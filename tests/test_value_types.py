"""Behaviour of the immutable value types: construction, defaults,
equality, hashing, immutability, repr and the values each derives from its
fields.  The ten in `CASES` are plain records; `TransportPlan` is a record
with its own repr and hash."""

import copy
import pickle
from fractions import Fraction

import pytest

from helpers import worked_example
from transopt import (
    DualCertificate,
    FeasibilityReport,
    HungarianIteration,
    LineCover,
    MongeReport,
    OptimalityReport,
    OracleResult,
    ProblemPSpec,
    SolveTrace,
    TransportInstance,
    TransportPlan,
    new_instance,
    solve_weighted_hungarian,
)
from transopt.oracle import enumerate_optimum

F = Fraction
COVER = LineCover(frozenset({0}), frozenset({1}), F(3))
ITERATION = HungarianIteration(((F(0), F(1)),), (F(0),), (F(0), F(0)), COVER, F(1))
PLAN = TransportPlan({(0, 0): 1})
CERT = DualCertificate((F(0),), (F(1),))


def shape(t):
    return t * t


# class -> ordered (field name, value) pairs; values already in normal form
CASES = {
    TransportInstance: (
        ("cost", ((F(1), F(2)),)),
        ("supply", (F(3),)),
        ("demand", (F(1), F(2))),
    ),
    DualCertificate: (("alpha", (F(1), F(-2))), ("beta", (F(1, 2),))),
    FeasibilityReport: (("violations", (("row", 0, F(1)),)),),
    OptimalityReport: (("violation", ("dual", 0, 1, F(2), F(1))),),
    LineCover: (("rows", frozenset({0})), ("cols", frozenset({1})), ("weight", F(3))),
    HungarianIteration: (
        ("cost", ((F(0), F(1)),)),
        ("alpha", (F(0),)),
        ("beta", (F(0), F(0))),
        ("cover", COVER),
        ("delta", F(1)),
    ),
    SolveTrace: (("scale", 1), ("iterations", (ITERATION,))),
    MongeReport: (
        ("witness", (0, 0, 1, 1)),
        ("direct_sum", F(3)),
        ("cross_sum", F(2)),
    ),
    ProblemPSpec: (
        ("x", (F(0), F(1))),
        ("y", (F(1),)),
        ("p_row", (F(1, 2), F(1, 2))),
        ("p_col", (F(1),)),
        ("f", shape),
    ),
    OracleResult: (("optimum", F(5)), ("plan", PLAN), ("optimal_count", 2)),
}

# the records whose truth value says that they hold no violation
REPORTS = (FeasibilityReport, OptimalityReport, MongeReport)

parametrize = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def values(cls):
    return [value for _, value in CASES[cls]]


@parametrize
def test_positional_and_keyword_construction_agree(cls):
    positional = cls(*values(cls))
    keyword = cls(**dict(reversed(CASES[cls])))
    assert positional == keyword
    for name, value in CASES[cls]:
        assert getattr(positional, name) == value
    assert cls.__match_args__ == tuple(name for name, _ in CASES[cls])


@parametrize
def test_equal_fields_give_equal_hashes(cls):
    assert hash(cls(*values(cls))) == hash(cls(*values(cls)))


@parametrize
def test_not_equal_to_its_tuple_or_another_class(cls):
    obj = cls(*values(cls))
    other = type("Other", (cls,), {})
    assert obj != tuple(values(cls))
    assert obj != other(*values(cls))
    assert other(*values(cls)) != obj


@parametrize
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = cls(*values(cls))
    name, value = CASES[cls][0]
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unknown = 1
    assert getattr(obj, name) == value


@parametrize
def test_repr_names_every_field(cls):
    body = ", ".join(f"{name}={value!r}" for name, value in CASES[cls])
    assert repr(cls(*values(cls))) == f"{cls.__name__}({body})"


@parametrize
def test_wrong_argument_count(cls):
    if cls in REPORTS:  # every field has a default: no violation
        assert cls() and not cls(*values(cls))
    else:
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*values(cls), None)
    with pytest.raises(TypeError):
        cls(**dict(CASES[cls]), unknown=1)
    with pytest.raises(TypeError):
        cls(*values(cls), **{CASES[cls][0][0]: values(cls)[0]})


def test_defaults():
    assert FeasibilityReport().violations == ()
    assert OptimalityReport().violation is None
    report = MongeReport()
    assert report.witness is None
    assert report.direct_sum is None and report.cross_sum is None
    assert MongeReport() == MongeReport(None, None, None)


# class -> (a construction in a form it no longer takes, the arguments it drops)
OLD_FORMS = {
    TransportInstance: (lambda: TransportInstance([[1, 2]], [3], [1, 2], 3), ("total",)),
    SolveTrace: (lambda: SolveTrace(1, (ITERATION,), PLAN, CERT), ("plan", "certificate")),
    HungarianIteration: (
        lambda: HungarianIteration(*values(HungarianIteration)[:4], F(3), F(1)),
        ("flow_value",),
    ),
    FeasibilityReport: (lambda: FeasibilityReport(True), ("feasible",)),
    OptimalityReport: (
        lambda: OptimalityReport(False, ("dual", 0, 1, F(2), F(1))),
        ("optimal",),
    ),
    MongeReport: (lambda: MongeReport(False, (0, 0, 1, 1), F(3), F(2)), ("holds",)),
}


def test_derived_values_are_read_from_the_fields():
    for cls, (old_form, dropped) in OLD_FORMS.items():
        with pytest.raises(TypeError):
            old_form()
        for name in dropped:
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                cls(*values(cls), **{name: None})
    # the old one-argument verdicts are refused, not read as a violation
    for cls in REPORTS:
        for verdict in (True, False):
            with pytest.raises(TypeError, match="takes no verdict"):
                cls(verdict)

    # the total is the sum of the supplies, however the marginals are given
    for supply, demand, total in (
        ([3, 4], [7], F(7)),
        (["1/2", "3"], ["7/2"], F(7, 2)),
        ([F(1, 3), F(2, 3)], [F(1)], F(1)),
    ):
        instance = TransportInstance([[0]] * len(supply), supply, demand)
        assert instance.total == sum(map(F, supply)) == total
        assert type(instance.total) is Fraction
        with pytest.raises(AttributeError):
            instance.total = total + 1
        assert instance.total == total
    assert "total" not in repr(instance)

    # an iteration's flow value is its cover's weight, however it is built
    for weight in (F(0), F(3), F(5, 2)):
        cover = LineCover(frozenset({0}), frozenset(), weight)
        iteration = HungarianIteration(((F(0), F(1)),), (F(0),), (F(0), F(0)), cover, None)
        assert iteration.flow_value == iteration.cover.weight == weight
    assert ITERATION.flow_value == COVER.weight == 3

    # a report is truthy, and says so, exactly when it holds no violation
    violation = ("row", 0, F(1))
    for report, verdict in (
        (FeasibilityReport(), True),
        (FeasibilityReport(()), True),
        (FeasibilityReport((violation,)), False),
        (FeasibilityReport((violation, ("column", 1, F(-1)))), False),
    ):
        assert bool(report) is report.feasible is verdict
        assert report.first_violation == (None if verdict else violation)
    for report, verdict in (
        (OptimalityReport(), True),
        (OptimalityReport(None), True),
        (OptimalityReport(("slack", 1, 0, F(2), F(3))), False),
    ):
        assert bool(report) is report.optimal is verdict
        assert (report.violation is None) is verdict
    for report, verdict in (
        (MongeReport(), True),
        (MongeReport((0, 0, 1, 1), F(3), F(2)), False),
    ):
        assert bool(report) is report.holds is verdict
        assert (report.witness is None) is verdict
    for cls, verdict in zip(REPORTS, ("feasible", "optimal", "holds")):
        with pytest.raises(AttributeError):
            setattr(cls(), verdict, False)


def test_lists_normalise_to_fraction_tuples():
    cert = DualCertificate([1, 2], [3])
    assert cert.alpha == (F(1), F(2)) and cert.beta == (F(3),)
    assert type(cert.alpha) is tuple and type(cert.beta) is tuple
    assert all(type(v) is Fraction for v in cert.alpha + cert.beta)
    assert cert == DualCertificate((F(1), F(2)), (F(3),))

    spec = ProblemPSpec([0, "1/2"], [1], [1], [1], shape)
    for name in ("x", "y", "p_row", "p_col"):
        assert type(getattr(spec, name)) is tuple
        assert all(type(v) is Fraction for v in getattr(spec, name))
    assert spec.x == (F(0), F(1, 2))
    assert spec == ProblemPSpec((F(0), F(1, 2)), (F(1),), (F(1),), (F(1),), shape)


def test_transport_plan_is_a_record_with_its_own_repr_and_hash():
    plan = TransportPlan(entries=[((1, 0), "1/2"), ((0, 0), 1), ((0, 1), 0)])
    assert plan == TransportPlan({(0, 0): 1, (1, 0): F(1, 2)})
    assert plan != TransportPlan({(0, 0): 1})
    assert TransportPlan.__match_args__ == ("entries",)
    assert dict(plan.entries) == {(0, 0): F(1), (1, 0): F(1, 2)}
    # the class body's __repr__ and __hash__, not the generated ones
    assert repr(plan) == "TransportPlan({(0, 0): 1, (1, 0): 1/2})"
    assert hash(plan) == hash((((0, 0), F(1)), ((1, 0), F(1, 2))))
    assert TransportPlan() == TransportPlan({}) and len(TransportPlan()) == 0
    with pytest.raises(AttributeError):
        plan.entries = {}
    with pytest.raises(AttributeError):
        del plan.entries
    with pytest.raises(TypeError):
        plan.entries[(0, 1)] = F(1)
    with pytest.raises(TypeError):
        TransportPlan({}, {})


ROUND_TRIPS = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}
round_trips = pytest.mark.parametrize("round_trip", list(ROUND_TRIPS.values()), ids=list(ROUND_TRIPS))


def assert_same_value(obj, twin):
    assert twin is not obj
    assert twin == obj
    assert hash(twin) == hash(obj)
    assert repr(twin) == repr(obj)


@round_trips
@parametrize
def test_copies_and_pickles_are_equal(cls, round_trip):
    obj = cls(*values(cls))
    assert_same_value(obj, round_trip(obj))


@round_trips
def test_plan_copies_are_rebuilt_through_the_constructor(round_trip):
    plan = TransportPlan({(1, 0): F(1, 2), (0, 0): 1})
    twin = round_trip(plan)
    assert_same_value(plan, twin)
    with pytest.raises(TypeError):
        twin.entries[(0, 1)] = F(1)


@round_trips
def test_a_solver_trace_and_an_oracle_result_survive_a_round_trip(round_trip):
    _, _, trace = solve_weighted_hungarian(worked_example())
    twin = round_trip(trace)
    assert_same_value(trace, twin)
    # a copied iteration derives its matrix on read from its fields, and the
    # copied iterations still share one cost
    for iteration, copied in zip(trace.iterations, twin.iterations):
        assert "matrix" not in vars(copied)
        assert copied.matrix == iteration.matrix
        assert copied.cost is twin.iterations[0].cost
    result = enumerate_optimum(new_instance([[1, 2], [3, 1]], [1, 2], [2, 1]))
    assert_same_value(result, round_trip(result))
