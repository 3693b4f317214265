import itertools
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import balanced_instances, digit_limit, random_feasible_plan, random_instance
from transopt import (
    BalanceError,
    CyclicBasisError,
    DegenerateBasisError,
    DualCertificate,
    TransportInstance,
    TransportPlan,
    ZeroFlowNetwork,
    as_fraction,
    check_monge,
    compute_duals_from_plan,
    dual_objective,
    enumerate_optimum,
    is_feasible,
    min_weight_zero_cover,
    new_instance,
    north_west_corner,
    plan_cost,
    solve_weighted_hungarian,
    sum_cost,
    verify_optimal,
)
from transopt import core
from transopt.core import _scaled_to_integers, _spanning_forest, as_matrix

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

    def test_finite_floats_convert_to_their_exact_binary_value(self):
        tenth = Fraction(3602879701896397, 36028797018963968)
        assert as_fraction(0.1) == tenth
        inst = new_instance([[0.1, 2.5]], [1.0], [0.25, 0.75])
        assert inst.cost == ((tenth, Fraction(5, 2)),)
        assert inst.supply == (1,) and inst.demand == (Fraction(1, 4), Fraction(3, 4))
        assert all(type(v) is Fraction for v in inst.cost[0] + inst.supply + inst.demand)

    @given(balanced_instances())
    def test_accepted_instances_are_balanced(self, inst):
        assert sum(inst.supply) == sum(inst.demand) == inst.total


class TestTransportInstance:
    """A directly built instance is read and checked as `new_instance` builds one."""

    def test_unbalanced_instance_is_refused(self):
        one, two = Fraction(1), Fraction(2)
        message = "^unbalanced instance: total supply 1 != total demand 2$"
        with pytest.raises(BalanceError, match=message):
            TransportInstance(((one,),), (one,), (two,))

    def test_string_costs_are_read_exactly(self):
        inst = TransportInstance((("1/3", "0.1"),), ("1",), ("1/2", 0.5))
        assert inst.cost == ((Fraction(1, 3), Fraction(1, 10)),)
        assert all(type(v) is Fraction for v in inst.cost[0] + inst.supply + inst.demand)
        assert inst.total == 1 and type(inst.total) is Fraction
        assert inst == new_instance([["1/3", "0.1"]], ["1"], ["1/2", 0.5])
        plan, _, _ = solve_weighted_hungarian(inst)
        assert plan_cost(inst, plan) == Fraction(13, 60)

    @pytest.mark.parametrize(
        "cost, supply, demand",
        [
            ([[1, 2], [3]], [1, 1], [1, 1]),
            ([[1, 2]], [1, 1], [1, 1]),
            ([[1, 2], [3, 4]], [1, 1], [2]),
            ([[1], [1]], [2, -1], [1]),
            ([[float("inf")]], [1], [1]),
            ([["x"]], [1], [1]),
            ([], [], []),
            ([[]], [1], []),
        ],
        ids=["ragged", "rows", "columns", "negative", "infinite", "malformed", "empty",
             "no_columns"],
    )
    def test_refuses_what_new_instance_refuses(self, cost, supply, demand):
        """The instance, the zero network and the cover step refuse each
        matrix and marginals `new_instance` refuses, with its message."""
        with pytest.raises(ValueError) as expected:
            new_instance(cost, supply, demand)
        for build in (TransportInstance, ZeroFlowNetwork, min_weight_zero_cover):
            with pytest.raises(ValueError) as raised:
                build(cost, supply, demand)
            assert str(raised.value) == str(expected.value), build.__name__

    def test_new_instance_reads_each_number_once(self, monkeypatch):
        reads, read = [], core.as_fraction

        def counting_read(value):
            reads.append(value)
            return read(value)

        monkeypatch.setattr(core, "as_fraction", counting_read)
        new_instance([[10, 7, 3, 6], [1, 6, 8, 3], [7, 4, 5, 3]], [3, 5, 7], [3, 2, 6, 4])
        assert len(reads) == 3 * 4 + 3 + 4


# ASCII, Arabic-Indic and fullwidth digits: `Fraction` and `int` read all three
DIGITS = "0123456789" + "\u0660\u0661\u0662\u0669" + "\uff10\uff11\uff19"


# a token with an exponent: everything up to its E, then the exponent's sign,
# digits (underscores kept, so a misplaced one stays misplaced) and trailing space
EXPONENT_TOKEN = re.compile(r"(.*[eE])([-+]?)([\d_]+)(\s*)", re.DOTALL)


def read_like_fraction(token):
    """`Fraction(token)` when this interpreter reads it and its reduced
    numerator and denominator have at most `digit_limit()` digits, else None.

    An exponent far past the limit is decided without computing its power: a
    zero mantissa reads as 0, and any other, shorter than the k characters up
    to the E, has a numerator and a denominator below 10**k, so it leaves
    10**(|exponent| - k) or more in the numerator (exponent > 0) or the
    denominator (exponent < 0)."""
    limit = digit_limit()
    shape = EXPONENT_TOKEN.fullmatch(token)
    if shape:
        head, sign, digits, tail = shape.groups()
        try:
            # the exponent's digits zeroed: the same form, read with power 1
            Fraction(head + sign + re.sub(r"\d", "0", digits) + tail)
        except (ValueError, ZeroDivisionError):
            return None
        if abs(int(digits)) >= limit + len(head):
            return Fraction(0) if Fraction(head[:-1]) == 0 else None
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        return None
    bound = 10 ** limit
    return value if abs(value.numerator) < bound and value.denominator < bound else None


@st.composite
def number_tokens(draw):
    """Signs, leading zeros and surrounding whitespace around an integer, a
    ratio p/q, a decimal, or a number with an exponent near 0 or near the
    digit limit."""
    digits = st.text(DIGITS, min_size=1, max_size=5)
    head = draw(st.sampled_from(["", "0", "00"])) + draw(digits)
    form = draw(st.sampled_from(["integer", "ratio", "decimal", "exponent"]))
    if form == "ratio":
        head += "/" + draw(digits)
    elif form == "decimal":
        head += "." + draw(st.text(DIGITS, max_size=4))
    elif form == "exponent":
        limit = digit_limit()
        power = draw(st.integers(0, 12) | st.integers(limit - 12, limit + 12))
        head += draw(st.sampled_from(["", ".", ".5", "5"])) + draw(st.sampled_from("eE"))
        head += draw(st.sampled_from(["", "+", "-"])) + str(power)
    pad = st.sampled_from(["", " ", "\t", "  "])
    return draw(pad) + draw(st.sampled_from(["", "+", "-"])) + head + draw(pad)


class TestAsFraction:
    @given(number_tokens() | st.text("0123456789+-/.eE_ x\u0661", max_size=10))
    @example("1e9999999")
    @example("0e9999999")
    @example("1e-9999999")
    @settings(max_examples=400, deadline=None)
    def test_reads_a_token_as_fraction_does_within_the_digit_limit(self, token):
        expected = read_like_fraction(token)
        if expected is None:
            with pytest.raises(ValueError, match=re.escape(repr(token))):
                as_fraction(token)
        else:
            value = as_fraction(token)
            assert value == expected
            assert type(value) is Fraction

    @pytest.mark.parametrize("token", [" 3 ", "+3", "-0", "3/6", "1.50", "1.5e3", "\u0661\u0662"])
    def test_fixed_tokens(self, token):
        assert as_fraction(token) == Fraction(token)

    def test_digit_limit_edges(self):
        limit = digit_limit()
        power = "1" + "0" * (limit - 1)  # limit digits
        assert str(as_fraction(f"1e{limit - 1}")) == power
        assert str(as_fraction(f"1e-{limit - 1}")) == f"1/{power}"
        for token in (f"1e{limit}", f"1e-{limit}"):
            with pytest.raises(
                ValueError, match=f"^number '{token}' exceeds the limit of {limit} digits$"
            ):
                as_fraction(token)

    def test_library_callers_get_the_digit_limit(self):
        with pytest.raises(ValueError, match="^number '1e5000' exceeds the limit"):
            as_fraction("1e5000")
        with pytest.raises(ValueError, match="'1e5000'"):
            new_instance([["1e5000"]], [1], [1])
        with pytest.raises(ValueError, match="'-1e-5000'"):
            DualCertificate(["-1e-5000"], [0])
        with pytest.raises(ValueError, match="'1e5000'"):
            TransportPlan({(0, 0): "1e5000"})

    def test_plain_digits_are_held_to_the_bound_with_the_interpreter_limit_off(
        self, int_limit_off
    ):
        # int() reads any run of digits here; the bound is as_fraction's own
        limit = sys.int_info.default_max_str_digits
        assert as_fraction("7" * limit) == int("7" * limit)
        for token in ("7" * (limit + 1), "7" * 5000, "7" * 5000 + "/1"):
            with pytest.raises(
                ValueError,
                match=rf"^number '7{{24}}'\.\.\. \({len(token)} characters\) "
                f"exceeds the limit of {limit} digits$",
            ):
                as_fraction(token)

    @pytest.mark.parametrize("limit_off", [False, True], ids=["limit_on", "limit_off"])
    def test_a_digit_run_over_the_limit_is_refused_under_either_setting(
        self, request, limit_off
    ):
        # int() refuses such a run where the interpreter's limit is on, and
        # reads it in quadratic time where it is off; either way as_fraction
        # refuses it, with the same message, before Fraction reads the token
        if limit_off:
            request.getfixturevalue("int_limit_off")
        limit = digit_limit()
        run = "7" * (limit + 1)
        for token in (
            run, "0" * limit + "1", "0" * limit + "1/1", f"-{run} ", f"1/{run}",
            f"1.{run}", f"{run}.5", f"1e{'0' * limit}1", "1_" * limit + "1",
        ):
            with pytest.raises(ValueError, match=f"exceeds the limit of {limit} digits$"):
                as_fraction(token)
        # runs of at most `limit` digits are read, however many the token has
        assert as_fraction("0" * (limit - 1) + "1/1") == 1
        assert as_fraction("1_" * (limit - 1) + "1") == int("1" * limit)
        assert as_fraction(f"{'1' * limit}.{'0' * limit}") == int("1" * limit)
        started = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the limit"):
            as_fraction("7" * 400_000 + "/1")
        assert time.perf_counter() - started < 1

    def test_huge_exponent_is_refused_before_its_power_is_computed(self):
        # 10**999999999 would take Fraction more than ten seconds
        for token in ("1e999999999", "-2.5E+999999999", "7e-999999999"):
            with pytest.raises(ValueError, match="exceeds the limit"):
                as_fraction(token)
        assert as_fraction("0e999999999") == 0


class TestScaledToIntegers:
    def test_scale_is_the_least_common_multiple_of_the_denominators(self):
        matrix = as_matrix([["1/4", "1/6", "-7/4"], ["3", "5/4", "1/6"]])
        assert _scaled_to_integers(matrix) == (12, [[3, 2, -21], [36, 15, 2]])

    def test_integer_matrix_keeps_scale_one(self):
        scale, rows = _scaled_to_integers(as_matrix([[3, -1], [0, 7]]))
        assert (scale, rows) == (1, [[3, -1], [0, 7]])
        assert all(type(v) is int for row in rows for v in row)

    def test_common_denominator_at_the_digit_limit(self):
        limit = digit_limit()
        power = Fraction(1, 10 ** (limit - 1))  # a denominator of limit digits
        # 3 * 10**(limit - 1) still has limit digits, 11 * 10**(limit - 1) one more
        assert _scaled_to_integers([[power, Fraction(1, 3)]])[0] == 3 * 10 ** (limit - 1)
        with pytest.raises(
            ValueError,
            match=f"^the common denominator of the costs exceeds the limit of {limit} digits$",
        ):
            _scaled_to_integers([[power, Fraction(1, 11)]])

    def test_many_large_denominators_are_refused_early(self):
        # 6400 coprime-ish 20-digit denominators: their full least common
        # multiple has about 128000 digits and took seconds to build
        rng = random.Random(15)
        cost = [[Fraction(1, rng.randrange(10**19, 10**20)) for _ in range(80)] for _ in range(80)]
        instance = new_instance(cost, [1] * 80, [1] * 80)
        started = time.perf_counter()
        for call in (lambda: check_monge(cost), lambda: solve_weighted_hungarian(instance)):
            with pytest.raises(ValueError, match="common denominator of the costs exceeds"):
                call()
        assert time.perf_counter() - started < 1


class TestTransportPlan:
    def test_zero_quantities_are_dropped(self):
        plan = TransportPlan({(0, 0): 0, (0, 1): 3})
        assert (0, 0) not in plan.entries
        assert plan.quantity(0, 1) == 3

    def test_negative_quantity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TransportPlan({(0, 0): -1})

    def test_non_integral_index_rejected(self):
        with pytest.raises(ValueError, match="cell index 0.5 is not an integer"):
            TransportPlan({(0.5, 1.9): 1})

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

    def test_non_integral_hint_rejected(self, worked_instance):
        # (0.5, 1) is in range, but read as (0, 1) it would fix the duals
        nw = north_west_corner(worked_instance)
        with pytest.raises(IndexError, match="hint cell index 0.5 is not an integer"):
            compute_duals_from_plan(worked_instance, nw, basis_hint=[(0.5, 1)])


class TestBasicPlans:
    def test_nw_and_oracle_plans_have_acyclic_support(self):
        # `solve --method nw --certificate` completes an NW plan's basis with
        # `_basis_duals`, which a cycle in the support would make fail; costs
        # 0..2 give many ties, so the oracle picks among many optima
        rng = random.Random(19)
        for _ in range(1000):
            inst = random_instance(rng, max_dim=4, max_total=12, cost_low=0, cost_high=2)
            for plan in (north_west_corner(inst), enumerate_optimum(inst).plan):
                assert _spanning_forest(inst.m, inst.n, plan.cells())[1] is None, (inst, plan)


class TestSpanningForest:
    def test_tree_and_the_first_cell_that_closes_a_cycle(self):
        cells = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (1, 1)]
        assert _spanning_forest(2, 2, cells) == ([(0, 0), (0, 1), (1, 0)], (1, 1))
        assert _spanning_forest(2, 2, cells[:3]) == ([(0, 0), (0, 1), (1, 0)], None)

    def test_cells_that_close_a_cycle_are_not_kept(self):
        # `solve --method nw --certificate` finds the basis hints of a
        # degenerate plan by a scan of its cells and then all m * n cells
        n = 300
        diagonal = [(k, k) for k in range(n)]
        tracemalloc.start()
        try:
            tree, closing = _spanning_forest(
                n, n, itertools.chain(diagonal, itertools.product(range(n), range(n)))
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tree) == 2 * n - 1
        assert closing == (0, 0)
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "cells, closing",
        [([(0, 0), (0, 1), (1, 0)], (1, 1)), ([(0, 0), (0, 0), (0, 1), (1, 0)], (0, 0))],
    )
    def test_the_scan_stops_at_the_first_cell_after_the_forest_spans(self, cells, closing):
        def scan():
            yield from cells  # spanning at the last of these
            yield (1, 1)
            raise AssertionError("read past the first cell after the spanning one")

        assert _spanning_forest(2, 2, scan()) == ([(0, 0), (0, 1), (1, 0)], closing)


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
