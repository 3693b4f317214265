import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import balanced_instances, random_feasible_plan, random_instance
from transopt import (
    BalanceError,
    CyclicBasisError,
    DegenerateBasisError,
    DualCertificate,
    TransportPlan,
    compute_duals_from_plan,
    dual_objective,
    enumerate_optimum,
    is_feasible,
    new_instance,
    north_west_corner,
    plan_cost,
    solve_weighted_hungarian,
    sum_cost,
    verify_optimal,
)
from transopt.core import as_matrix

# Certificate for the worked example's optimal plan, solved by elimination
# along its support tree with alpha[0] = 0; cross-checked by verify_optimal.
WORKED_PLAN_ALPHA = (0, 2, 2)
WORKED_PLAN_BETA = (-1, 2, 3, 1)


class TestNewInstance:
    def test_worked_example(self, worked_instance):
        assert worked_instance.m == 3
        assert worked_instance.n == 4
        assert worked_instance.total == 15
        assert worked_instance.cost[0][0] == Fraction(10)

    def test_one_by_one(self):
        inst = new_instance([[0]], [5], [5])
        assert inst.total == 5

    def test_imbalance_reports_both_totals(self):
        with pytest.raises(BalanceError) as err:
            new_instance([[1], [1]], [1, 2], [4])
        assert err.value.supply_total == 3
        assert err.value.demand_total == 4
        assert "3" in str(err.value) and "4" in str(err.value)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            new_instance([[1, 2]], [1, 1], [1, 1])
        with pytest.raises(ValueError, match="columns"):
            new_instance([[1, 2], [3, 4]], [1, 1], [2])

    def test_negative_marginals_rejected(self):
        with pytest.raises(ValueError, match="supply 1 is negative"):
            new_instance([[1], [1]], [2, -1], [1])
        with pytest.raises(ValueError, match="demand 0 is negative"):
            new_instance([[1, 1]], [0], [-1, 1])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            new_instance([[1, 2], [3]], [1, 1], [1, 1])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="^matrix must have at least one row$"):
            as_matrix([])
        with pytest.raises(ValueError, match="^matrix must have at least one column$"):
            as_matrix([[]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            new_instance([[float("inf")]], [1], [1])

    def test_fraction_strings_accepted(self):
        inst = new_instance([["1/2"]], ["3/4"], [Fraction(3, 4)])
        assert inst.cost[0][0] == Fraction(1, 2)

    @given(balanced_instances())
    def test_accepted_instances_are_balanced(self, inst):
        assert sum(inst.supply) == sum(inst.demand) == inst.total


class TestTransportPlan:
    def test_zero_quantities_are_dropped(self):
        plan = TransportPlan({(0, 0): 0, (0, 1): 3})
        assert (0, 0) not in plan.entries
        assert plan.quantity(0, 1) == 3

    def test_negative_quantity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TransportPlan({(0, 0): -1})

    @pytest.mark.parametrize(
        "entries",
        [
            [((0, 0), 1), ((0, 0), 2)],
            [((0, 0), 0), ((0, 0), 2)],
            [((0, 0), 1), (("0", 0), 1)],
            {(0, 0): 1, ("0", 0): 1},
        ],
    )
    def test_repeated_cell_rejected(self, entries):
        with pytest.raises(ValueError, match=r"cell \(0, 0\) is given twice"):
            TransportPlan(entries)

    def test_not_equal_to_a_non_plan(self):
        plan = TransportPlan({(0, 0): 1})
        assert plan.__eq__({(0, 0): 1}) is NotImplemented
        assert plan != {(0, 0): 1}
        assert plan != 1

    def test_entries_are_read_only(self):
        plan = TransportPlan({(0, 0): 1})
        with pytest.raises(TypeError):
            plan.entries[(0, 1)] = 2  # type: ignore[index]


class TestPlanCost:
    def test_worked_plan_costs_47(self, worked_instance, worked_plan):
        assert plan_cost(worked_instance, worked_plan) == 47

    def test_empty_plan_costs_zero(self, worked_instance):
        assert plan_cost(worked_instance, TransportPlan()) == 0

    def test_one_by_one(self):
        inst = new_instance([[4]], [5], [5])
        assert plan_cost(inst, TransportPlan({(0, 0): 5})) == 20

    def test_out_of_range_cell(self, worked_instance):
        with pytest.raises(IndexError):
            plan_cost(worked_instance, TransportPlan({(3, 0): 1}))


class TestIsFeasible:
    def test_worked_plan_feasible(self, worked_instance, worked_plan):
        assert is_feasible(worked_instance, worked_plan)

    def test_one_by_one_feasible(self):
        inst = new_instance([[0]], [5], [5])
        assert is_feasible(inst, TransportPlan({(0, 0): 5}))

    def test_short_shipment_reports_residual(self):
        inst = new_instance([[0]], [5], [5])
        report = is_feasible(inst, TransportPlan({(0, 0): 4}))
        assert not report
        assert report.first_violation == ("row", 0, Fraction(1))
        assert ("column", 0, Fraction(1)) in report.violations

    def test_violations_list_rows_then_columns(self, worked_instance):
        report = is_feasible(worked_instance, TransportPlan())
        kinds = [kind for kind, _, _ in report.violations]
        assert kinds == ["row"] * 3 + ["column"] * 4


class TestVerifyOptimal:
    def test_worked_plan_certificate(self, worked_instance, worked_plan):
        cert = DualCertificate(WORKED_PLAN_ALPHA, WORKED_PLAN_BETA)
        assert verify_optimal(worked_instance, worked_plan, cert)

    def test_dual_violation_reported_with_cell(self, worked_instance, worked_plan):
        cert = DualCertificate((0, 2, 2), (-1, 2, 3, 4))  # beta[3] too large
        report = verify_optimal(worked_instance, worked_plan, cert)
        assert not report
        # first offending cell in row-major order: alpha[1] + beta[3] = 6 > 3
        assert report.violation == ("dual", 1, 3, Fraction(6), Fraction(3))

    def test_slack_violation_reported(self):
        inst = new_instance([[1, 1], [1, 1]], [1, 1], [1, 1])
        plan = TransportPlan({(0, 0): 1, (1, 1): 1})
        cert = DualCertificate((0, 0), (0, 1))  # feasible but not tight at (0, 0)
        report = verify_optimal(inst, plan, cert)
        assert report.violation[0] == "slack"
        assert report.violation[1:3] == (0, 0)

    def test_sum_cost_certificate_verifies_every_plan(self):
        rng = random.Random(7)
        x, y = [3, -1], [2, 0, 5]
        inst = new_instance(sum_cost(x, y), [2, 3], [1, 1, 3])
        cert = DualCertificate(x, y)
        for _ in range(10):
            plan = random_feasible_plan(rng, inst)
            assert verify_optimal(inst, plan, cert)

    def test_infeasible_plan_rejected(self, worked_instance):
        cert = DualCertificate((0, 0, 0), (0, 0, 0, 0))
        with pytest.raises(ValueError, match="infeasible"):
            verify_optimal(worked_instance, TransportPlan(), cert)

    def test_shape_mismatch_rejected(self, worked_instance, worked_plan):
        with pytest.raises(ValueError, match="shape"):
            verify_optimal(worked_instance, worked_plan, DualCertificate((0,), (0,)))


class TestComputeDuals:
    def test_one_by_one_normalization(self):
        inst = new_instance([[4]], [5], [5])
        cert = compute_duals_from_plan(inst, TransportPlan({(0, 0): 5}))
        assert cert.alpha == (0,)
        assert cert.beta == (4,)

    def test_worked_plan_duals(self, worked_instance, worked_plan):
        cert = compute_duals_from_plan(worked_instance, worked_plan)
        assert cert.alpha == WORKED_PLAN_ALPHA
        assert cert.beta == WORKED_PLAN_BETA

    def test_cycle_rejected(self):
        inst = new_instance([[1, 2], [3, 4]], [2, 2], [2, 2])
        plan = TransportPlan({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
        with pytest.raises(CyclicBasisError, match=r"closed at cell \(1, 1\)"):
            compute_duals_from_plan(inst, plan)

    def test_degenerate_needs_hint(self, worked_instance):
        nw = north_west_corner(worked_instance)  # support splits into two components
        with pytest.raises(DegenerateBasisError, match="2 components"):
            compute_duals_from_plan(worked_instance, nw)
        cert = compute_duals_from_plan(worked_instance, nw, basis_hint=[(0, 1)])
        assert cert.alpha[0] == 0
        # tight on the hint and on every support cell
        assert cert.alpha[0] + cert.beta[1] == worked_instance.cost[0][1]
        for (i, j) in nw.entries:
            assert cert.alpha[i] + cert.beta[j] == worked_instance.cost[i][j]

    @pytest.mark.parametrize("hint", [(3, 0), (0, 4), (-1, 0)])
    def test_out_of_range_hint_rejected(self, worked_instance, hint):
        nw = north_west_corner(worked_instance)
        with pytest.raises(IndexError, match=r"hint cell \(%d, %d\) out of range" % hint):
            compute_duals_from_plan(worked_instance, nw, basis_hint=[hint])


class TestWeakDuality:
    @given(balanced_instances(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_dual_feasible_bound(self, inst, rnd):
        # a dual-feasible certificate by construction
        alpha = [Fraction(rnd.randint(-4, 4)) for _ in range(inst.m)]
        beta = [
            min(inst.cost[i][j] - alpha[i] for i in range(inst.m))
            - rnd.randint(0, 3)
            for j in range(inst.n)
        ]
        cert = DualCertificate(alpha, beta)
        plan = random_feasible_plan(rnd, inst)
        assert dual_objective(inst, cert) <= plan_cost(inst, plan)


class TestCertificateSoundness:
    def test_verified_plans_match_oracle(self):
        rng = random.Random(11)
        for _ in range(15):
            inst = random_instance(rng, max_dim=3, max_total=8)
            plan, cert, _ = solve_weighted_hungarian(inst)
            assert verify_optimal(inst, plan, cert)
            assert plan_cost(inst, plan) == enumerate_optimum(inst).optimum
