"""The public names: `transopt.__all__` and `cli.__all__` are contracts."""

import inspect

import transopt
from transopt import cli

PACKAGE_NAMES = [
    "BalanceError",
    "CyclicBasisError",
    "DegenerateBasisError",
    "DualCertificate",
    "FeasibilityReport",
    "HungarianIteration",
    "LineCover",
    "MongeOrderWarning",
    "MongeReport",
    "OptimalityReport",
    "OracleResult",
    "ProblemPSpec",
    "SolveTrace",
    "TransportInstance",
    "TransportPlan",
    "ZeroFlowNetwork",
    "aggregate_assignment_solution",
    "as_fraction",
    "check_monge",
    "compute_duals_from_plan",
    "convex_diff_cost",
    "delta_adjust",
    "dual_objective",
    "enumerate_assignment",
    "enumerate_optimum",
    "expand_to_assignment",
    "extract_plan_from_zeros",
    "factored_cost",
    "is_feasible",
    "line_cover",
    "min_weight_zero_cover",
    "new_instance",
    "north_west_corner",
    "plan_cost",
    "problem_p_instance",
    "reduce_matrix",
    "solve_assignment",
    "solve_weighted_hungarian",
    "sum_cost",
    "verify_optimal",
]

CLI_NAMES = ["ParseError", "format_rational", "main", "parse_instance", "serialize_instance"]


def test_public_names_are_unchanged():
    assert list(transopt.__all__) == PACKAGE_NAMES
    assert all(hasattr(transopt, name) for name in PACKAGE_NAMES)
    assert list(cli.__all__) == CLI_NAMES
    assert all(hasattr(cli, name) for name in CLI_NAMES)


def test_every_public_name_and_method_has_a_docstring():
    names = [(transopt, name) for name in transopt.__all__]
    names += [(cli, name) for name in cli.__all__]
    undocumented = []
    for module, name in names:
        value = getattr(module, name)
        if not value.__doc__:
            undocumented.append(name)
        if isinstance(value, type):
            undocumented += [
                f"{name}.{attr}"
                for attr, method in vars(value).items()
                if inspect.isfunction(method) and not attr.startswith("_") and not method.__doc__
            ]
    assert undocumented == []
