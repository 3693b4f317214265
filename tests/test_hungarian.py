import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

from helpers import CONVEX_SHAPES, composition, digit_limit, random_instance
from transopt import hungarian
from transopt import (
    HungarianIteration,
    OptimalityReport,
    ProblemPSpec,
    TransportPlan,
    aggregate_assignment_solution,
    check_monge,
    delta_adjust,
    dual_objective,
    enumerate_assignment,
    enumerate_optimum,
    expand_to_assignment,
    extract_plan_from_zeros,
    is_feasible,
    line_cover,
    min_weight_zero_cover,
    new_instance,
    north_west_corner,
    plan_cost,
    problem_p_instance,
    reduce_matrix,
    solve_assignment,
    solve_weighted_hungarian,
    sum_cost,
    verify_optimal,
)
from transopt.cli import main, parse_instance

DATA = Path(__file__).parent / "data"

# successive reduced matrices of the worked example: after the initial
# reduction, then after each adjustment step
REDUCED_START = ((7, 3, 0, 3), (0, 4, 7, 2), (4, 0, 2, 0))
REDUCED_AFTER1 = ((9, 5, 0, 5), (0, 4, 5, 2), (4, 0, 0, 0))
REDUCED_AFTER2 = ((11, 5, 0, 5), (0, 2, 3, 0), (6, 0, 0, 0))
# covers drawn in the worked example, as (rows, cols) 0-based
COVER1 = (frozenset({0}), frozenset({0, 1, 3}))
COVER2 = (frozenset({0, 2}), frozenset({0}))


# faulty stand-ins for `hungarian.line_cover`: one weight too many, or no
# line at the true weight
def _heavier_cover(rows, cols, supply, demand):
    cover = line_cover(rows, cols, supply, demand)
    return hungarian.LineCover(cover.rows, cover.cols, cover.weight + 1)


def _empty_cover(rows, cols, supply, demand):
    weight = line_cover(rows, cols, supply, demand).weight
    return hungarian.LineCover(frozenset(), frozenset(), weight)


class TestReduceMatrix:
    def test_worked_example_reduction(self, worked_instance):
        reduced, row_offsets, col_offsets = reduce_matrix(worked_instance.cost)
        assert reduced == REDUCED_START
        assert row_offsets == (3, 1, 3)
        assert col_offsets == (0, 1, 0, 0)

    def test_zero_matrix(self):
        reduced, row_offsets, col_offsets = reduce_matrix([[0, 0], [0, 0]])
        assert reduced == ((0, 0), (0, 0))
        assert row_offsets == (0, 0)
        assert col_offsets == (0, 0)

    def test_single_cell(self):
        reduced, row_offsets, col_offsets = reduce_matrix([[5]])
        assert reduced == ((0,),)
        assert row_offsets == (5,)
        assert col_offsets == (0,)

    def test_public_steps_return_fractions_on_int_input(self):
        reduced, row_offsets, col_offsets = reduce_matrix([[1, 2], [3, 4]])
        assert reduced == ((0, 0), (0, 0))
        assert (row_offsets, col_offsets) == ((1, 3), (0, 1))
        for value in [*chain.from_iterable(reduced), *row_offsets, *col_offsets]:
            assert type(value) is Fraction
        cover = line_cover([0], [0], [1, 1], [1, 1])
        adjusted, delta = delta_adjust([[0, 1], [2, 3]], cover)
        assert (adjusted, delta) == (((3, 1), (2, 0)), 3)
        for value in [*chain.from_iterable(adjusted), delta]:
            assert type(value) is Fraction

    def test_offsets_are_dual_feasible(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = random_instance(rng, cost_low=-5)
            reduced, row_offsets, col_offsets = reduce_matrix(inst.cost)
            for i in range(inst.m):
                for j in range(inst.n):
                    assert row_offsets[i] + col_offsets[j] <= inst.cost[i][j]
                    assert reduced[i][j] >= 0
            assert all(0 in row for row in reduced)
            assert all(0 in col for col in zip(*reduced))


class TestZeroFlowNetwork:
    def test_flow_is_capped_by_the_balanced_total(self):
        from transopt import ZeroFlowNetwork
        from transopt.core import as_matrix, as_vector

        # only one zero: the best flow routes min(supply[0], demand[1]) = 2
        network = ZeroFlowNetwork(
            as_matrix([[3, 0], [1, 2]]), as_vector([2, 3]), as_vector([4, 1])
        )
        assert network.max_flow() == 1
        assert network.zero_cell_flow() == {(0, 1): 1}

    def test_flow_read_out_keeps_zero_flows(self):
        from transopt import ZeroFlowNetwork
        from transopt.core import as_matrix, as_vector

        # column 1 demands nothing, so its zero cell carries no flow; the
        # read-out still names it, and only the plan drops it
        network = ZeroFlowNetwork(as_matrix([[0, 0]]), as_vector([1]), as_vector([1, 0]))
        assert network.zero_cell_flow() == {(0, 0): 1, (0, 1): 0}
        assert list(network.zero_cell_flow()) == network.zero_cells
        _, _, zero_flow = min_weight_zero_cover([[0, 0]], [1], [1, 0])
        assert zero_flow == {(0, 0): 1, (0, 1): 0}
        plan = extract_plan_from_zeros([[0, 0]], [1], [1, 0], zero_flow)
        assert plan.entries == {(0, 0): 1}

    def test_saturation_exactly_when_a_zero_supported_plan_exists(self):
        from transopt import ZeroFlowNetwork
        from transopt.core import as_matrix, as_vector

        full = ZeroFlowNetwork(
            as_matrix([[0, 0], [0, 0]]), as_vector([2, 1]), as_vector([1, 2])
        )
        assert full.max_flow() == 3

    def test_shape_must_match_marginals(self):
        from transopt import ZeroFlowNetwork
        from transopt.core import as_matrix, as_vector

        with pytest.raises(ValueError, match="^cost matrix has 1 rows but there are 2 supplies$"):
            ZeroFlowNetwork(as_matrix([[1, 1, 0]]), as_vector([1, 1]), as_vector([1, 1]))

    def test_empty_matrix_is_refused(self):
        from transopt import ZeroFlowNetwork

        with pytest.raises(ValueError, match="^matrix must have at least one row$"):
            ZeroFlowNetwork((), [], [])
        with pytest.raises(ValueError, match="^matrix must have at least one row$"):
            min_weight_zero_cover([], [], [])
        with pytest.raises(ValueError, match="^matrix must have at least one column$"):
            ZeroFlowNetwork(((),), [1], [])

    def test_negative_marginal_rejected(self):
        from transopt import ZeroFlowNetwork
        from transopt.core import as_matrix, as_vector

        with pytest.raises(ValueError, match="supply 0 is negative: -1"):
            ZeroFlowNetwork(as_matrix([[0]]), as_vector([-1]), as_vector([-1]))
        with pytest.raises(ValueError, match="demand 1 is negative: -1/2"):
            ZeroFlowNetwork(as_matrix([[0, 0]]), as_vector([0]), as_vector([1/2, -1/2]))

    def test_marginals_are_read_as_new_instance_reads_them(self):
        from transopt import ZeroFlowNetwork

        network = ZeroFlowNetwork(((0,),), [0.5], ["1/2"])
        assert network.supply == network.demand == (Fraction(1, 2),)
        flow = network.max_flow()
        assert flow == Fraction(1, 2) and type(flow) is Fraction
        assert type(network.min_cut_cover().weight) is Fraction
        # any iterable, read once: the network's m and n are the values it read
        network = ZeroFlowNetwork(((0, 0),), (v for v in [2]), (v for v in ["1", 1.0]))
        assert (network.m, network.n) == (1, 2)
        assert network.max_flow() == 2

    def test_malformed_marginal_raises_the_reader_error(self):
        from transopt import ZeroFlowNetwork

        with pytest.raises(ValueError) as expected:
            new_instance([[0]], ["x"], [1])
        with pytest.raises(ValueError) as raised:
            ZeroFlowNetwork(((0,),), ["x"], [1])
        assert str(raised.value) == str(expected.value) == "malformed number 'x'"

    def test_matrix_is_read_as_new_instance_reads_it(self):
        from transopt import ZeroFlowNetwork

        network = ZeroFlowNetwork((("0",),), [1], [1])
        assert network.zero_cells == [(0, 0)]
        assert network.max_flow() == 1 == min_weight_zero_cover([["0"]], [1], [1])[1]
        # a network already built reads the matrix it is moved to
        network = ZeroFlowNetwork(((1,),), [1], [1])
        assert network.max_flow() == 0
        network.update_zeros([["0/5"]])
        assert network.zero_cells == [(0, 0)] and network.max_flow() == 1

    def test_string_entries_are_read_exactly(self):
        from transopt import ZeroFlowNetwork

        # 1e-400 is no zero, though the float it rounds to is
        network = ZeroFlowNetwork([["1/2", "0"], ["0", "1e-400"]], [1, 1], [1, 1])
        assert network.zero_cells == [(0, 1), (1, 0)]
        assert network.max_flow() == 2
        assert network.zero_cell_flow() == {(0, 1): 1, (1, 0): 1}

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([["x"]], "malformed number 'x'"),
            ([[float("nan")]], "entries must be finite, got nan"),
            # the first unreadable entry in row-major order is the one named
            ([["x", 0], [0, "y"]], "malformed number 'x'"),
        ],
        ids=["malformed", "nan", "first"],
    )
    def test_unreadable_entry_raises_the_reader_error(self, matrix, message):
        from transopt import ZeroFlowNetwork

        ones = [1] * len(matrix)
        with pytest.raises(ValueError) as expected:
            new_instance(matrix, ones, ones)
        assert str(expected.value) == message
        with pytest.raises(ValueError) as raised:
            ZeroFlowNetwork(matrix, ones, ones)
        assert str(raised.value) == message
        network = ZeroFlowNetwork([[0] * len(ones)] * len(ones), ones, ones)
        zeros = list(network.zero_cells)
        with pytest.raises(ValueError) as raised:
            network.update_zeros(matrix)
        assert str(raised.value) == message
        # the refused matrix left the network as it was
        assert network.zero_cells == zeros and network.max_flow() == len(ones)

    @pytest.mark.parametrize(
        "faulty_cover, message",
        [
            (_heavier_cover, r"^min-cut weight 13 differs from max-flow 12$"),
            (_empty_cover, r"^derived cover misses the zero at \(0, 2\)$"),
        ],
        ids=["heavier", "empty"],
    )
    def test_min_cut_cover_checks_the_cover_it_reads(
        self, worked_instance, monkeypatch, faulty_cover, message
    ):
        from transopt import ZeroFlowNetwork

        network = ZeroFlowNetwork(REDUCED_START, worked_instance.supply, worked_instance.demand)
        monkeypatch.setattr(hungarian, "line_cover", faulty_cover)
        with pytest.raises(RuntimeError, match=message):
            network.min_cut_cover()

    def test_size_guard_refuses_before_allocating(self, worked_instance, monkeypatch):
        from transopt import ZeroFlowNetwork

        monkeypatch.setattr(hungarian, "MAX_NETWORK_LINES", 6)
        allocations = []
        clear_flow = ZeroFlowNetwork._clear_flow

        def counting_clear_flow(network):
            allocations.append(network)
            clear_flow(network)

        monkeypatch.setattr(ZeroFlowNetwork, "_clear_flow", counting_clear_flow)
        with pytest.raises(ValueError, match=r"3 x 4 instance has 7 lines, over the limit of 6"):
            solve_weighted_hungarian(worked_instance)
        assert allocations == []
        inst = new_instance([[1, 2, 3, 4], [4, 3, 2, 1]], [2, 2], [1, 1, 1, 1])
        plan, _, _ = solve_weighted_hungarian(inst)
        assert plan_cost(inst, plan) == 6
        assert len(allocations) == 1


class TestLineCover:
    @pytest.mark.parametrize(
        "rows, cols, message",
        [([2], [], "covered row 2"), ([-1], [], "covered row -1"), ([], [2], "covered column 2")],
    )
    def test_out_of_range_line_rejected(self, rows, cols, message):
        with pytest.raises(IndexError, match=message):
            line_cover(rows, cols, [1, 1], [1, 1])

    def test_non_integral_line_rejected(self):
        with pytest.raises(IndexError, match="covered row 0.7 is not an integer"):
            line_cover([0.7], [], [1, 1], [1, 1])

    def test_weight_is_an_exact_fraction_of_the_marginals(self):
        cover = line_cover([0], [0], [0.5, 0.25], [0.125])
        assert cover.weight == Fraction(5, 8) and type(cover.weight) is Fraction
        assert line_cover([1], [0], ["1/3", "1/6"], ["1/2"]).weight == Fraction(2, 3)
        assert type(line_cover([], [], [1], [1]).weight) is Fraction

    def test_marginals_may_be_any_iterable(self):
        cover = line_cover([1], [0], (v for v in [1, 2]), iter(["1/2"]))
        assert cover.weight == Fraction(5, 2)

    def test_malformed_marginal_raises_the_reader_error(self):
        with pytest.raises(ValueError) as expected:
            new_instance([[0]], [1], ["x"])
        with pytest.raises(ValueError) as raised:
            line_cover([], [], [1], ["x"])
        assert str(raised.value) == str(expected.value) == "malformed number 'x'"


class TestMinWeightZeroCover:
    def test_worked_example_first_cover_weight_12(self, worked_instance):
        cover, flow, zero_flow = min_weight_zero_cover(
            REDUCED_START, worked_instance.supply, worked_instance.demand
        )
        assert flow == 12
        assert cover.weight == 12
        assert (cover.rows, cover.cols) == COVER1
        assert sum(zero_flow.values()) == 12

    def test_zero_matrix_saturates(self):
        cover, flow, _ = min_weight_zero_cover([[0, 0], [0, 0]], [2, 3], [1, 4])
        assert flow == 5
        assert cover.weight == 5

    def test_diagonal_identity(self):
        matrix = [[0 if i == j else 1 for j in range(3)] for i in range(3)]
        cover, flow, zero_flow = min_weight_zero_cover(matrix, [1] * 3, [1] * 3)
        assert flow == 3
        assert cover.weight == 3
        assert zero_flow == {(0, 0): 1, (1, 1): 1, (2, 2): 1}

    def test_non_integer_marginals_are_covered(self):
        # the max flow is exact on rational capacities: 1/3 on each zero,
        # and the cheapest cover is row 2 with column 1, not both rows
        cover, flow, zero_flow = min_weight_zero_cover(
            [[0, 1], [1, 0]], ["1/2", "1/3"], ["1/3", "1/2"]
        )
        assert flow == cover.weight == Fraction(2, 3)
        assert (cover.rows, cover.cols) == ({1}, {0})
        assert zero_flow == {(0, 0): Fraction(1, 3), (1, 1): Fraction(1, 3)}

    @pytest.mark.parametrize(
        "matrix, message",
        [([[0, 0, 0]], "^cost matrix has 3 columns but there are 2 demands$"),
         ([[0], [0]], "^cost matrix has 2 rows but there are 1 supplies$")],
        ids=["matrix0", "matrix1"],
    )
    def test_shape_mismatch_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            min_weight_zero_cover(matrix, [2], [1, 1])

    @pytest.mark.parametrize(
        "supply, demand, message",
        [([-1], [-1], "supply 0 is negative: -1"), ([1, -1], [0], "supply 1 is negative: -1"),
         ([0], [2, -2], "demand 1 is negative: -2")],
    )
    def test_negative_marginal_rejected(self, supply, demand, message):
        matrix = [[0] * len(demand) for _ in supply]
        with pytest.raises(ValueError, match=message):
            min_weight_zero_cover(matrix, supply, demand)


class TestDeltaAdjust:
    def test_first_adjustment(self, worked_instance):
        cover = line_cover(*COVER1, worked_instance.supply, worked_instance.demand)
        adjusted, delta = delta_adjust(REDUCED_START, cover)
        assert delta == 2
        assert adjusted == REDUCED_AFTER1

    def test_second_adjustment(self, worked_instance):
        cover = line_cover(*COVER2, worked_instance.supply, worked_instance.demand)
        adjusted, delta = delta_adjust(REDUCED_AFTER1, cover)
        assert delta == 2
        assert adjusted == REDUCED_AFTER2

    def test_cover_missing_a_zero_rejected(self):
        cover = line_cover([0], [0], [1, 1], [1, 1])
        with pytest.raises(ValueError, match=r"uncovered"):
            delta_adjust([[0, 1], [1, 0]], cover)

    def test_everything_covered_rejected(self):
        cover = line_cover([0, 1], [], [1, 1], [1, 1])
        with pytest.raises(ValueError, match="every cell is covered"):
            delta_adjust([[0, 1], [1, 0]], cover)

    @pytest.mark.parametrize("col, message", [(-1, "covered column -1"), (2, "covered column 2")])
    def test_out_of_range_line_rejected(self, col, message):
        cover = hungarian.LineCover(frozenset(), frozenset({col}), Fraction(0))
        with pytest.raises(IndexError, match=f"^{message} out of range$"):
            delta_adjust([[1, 2], [3, 4]], cover)

    def test_negative_uncovered_entry_rejected(self):
        cover = line_cover([0], [1], [1, 1], [1, 1])
        with pytest.raises(ValueError, match="-1 is negative"):
            delta_adjust([[0, 5], [-1, 0]], cover)

    def test_adjustment_shifts_optimum_but_not_optimizers(self):
        # uncovered cells drop by delta, doubly-covered rise: every feasible
        # plan's cost moves by the same delta * (total - cover weight), so the
        # optimizer set is untouched.
        rng = random.Random(13)
        checked = 0
        while checked < 10:
            inst = random_instance(rng, max_dim=3, max_total=7)
            reduced, _, _ = reduce_matrix(inst.cost)
            cover, flow, _ = min_weight_zero_cover(reduced, inst.supply, inst.demand)
            if flow == inst.total:
                continue
            adjusted, delta = delta_adjust(reduced, cover)
            before = enumerate_optimum(new_instance(reduced, inst.supply, inst.demand))
            after = enumerate_optimum(new_instance(adjusted, inst.supply, inst.demand))
            shift = delta * (inst.total - cover.weight)
            assert after.optimum == before.optimum - shift
            assert after.plan == before.plan
            assert after.optimal_count == before.optimal_count
            checked += 1


class TestSolveWeightedHungarian:
    def test_worked_example_full_trace(self, worked_instance, worked_plan):
        plan, cert, trace = solve_weighted_hungarian(worked_instance)
        assert plan == worked_plan
        assert plan_cost(worked_instance, plan) == 47
        assert cert.alpha == (3, 5, 5)
        assert cert.beta == (-4, -1, 0, -2)
        assert trace.scale == 1
        assert [it.matrix for it in trace.iterations] == [REDUCED_START, REDUCED_AFTER1, REDUCED_AFTER2]
        assert [it.cover.weight for it in trace.iterations] == [12, 13, 15]
        assert [it.delta for it in trace.iterations] == [2, 2, None]
        assert [it.flow_value for it in trace.iterations] == [12, 13, 15]
        assert verify_optimal(worked_instance, plan, cert)

    def test_worked_example_with_pinned_covers(self, worked_instance):
        plan, _, trace = solve_weighted_hungarian(worked_instance)
        assert [it.matrix for it in trace.iterations] == [REDUCED_START, REDUCED_AFTER1, REDUCED_AFTER2]
        assert [(it.cover.rows, it.cover.cols) for it in trace.iterations[:2]] == [
            COVER1,
            COVER2,
        ]
        assert plan_cost(worked_instance, plan) == 47

    def test_one_by_one_terminates_without_adjustment(self):
        inst = new_instance([[4]], [5], [5])
        plan, cert, trace = solve_weighted_hungarian(inst)
        assert plan == TransportPlan({(0, 0): 5})
        assert len(trace.iterations) == 1
        assert trace.iterations[0].delta is None
        assert (cert.alpha, cert.beta) == ((4,), (0,))

    def test_sum_cost_reduction_terminates_immediately(self):
        inst = new_instance(sum_cost([1, 2], [10, 20]), [2, 3], [1, 4])
        plan, _, trace = solve_weighted_hungarian(inst)
        assert len(trace.iterations) == 1
        assert trace.iterations[0].matrix == ((0, 0), (0, 0))
        assert plan_cost(inst, plan) == enumerate_optimum(inst).optimum

    def test_rational_costs_are_scaled(self):
        inst = new_instance(
            [[Fraction(1, 2), Fraction(2, 3)], [Fraction(3, 4), 1]], [1, 2], [2, 1]
        )
        plan, cert, trace = solve_weighted_hungarian(inst)
        assert trace.scale == 12
        assert plan_cost(inst, plan) == enumerate_optimum(inst).optimum
        assert verify_optimal(inst, plan, cert)

    def test_non_integer_marginals_are_solved(self, worked_instance, worked_plan):
        halves = new_instance([[0, 1], [1, 0]], ["1/2", "1/2"], ["1/2", "1/2"])
        plan, cert, _ = solve_weighted_hungarian(halves)
        assert plan == TransportPlan({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
        assert verify_optimal(halves, plan, cert)
        # every marginal divided by 7: the same duals, matrices and deltas,
        # and flows, covers and the plan divided by 7
        sevenths = new_instance(
            worked_instance.cost,
            [v / 7 for v in worked_instance.supply],
            [v / 7 for v in worked_instance.demand],
        )
        plan, cert, trace = solve_weighted_hungarian(sevenths)
        assert plan == TransportPlan({cell: q / 7 for cell, q in worked_plan.entries.items()})
        assert (cert.alpha, cert.beta) == ((3, 5, 5), (-4, -1, 0, -2))
        assert [it.matrix for it in trace.iterations] == [REDUCED_START, REDUCED_AFTER1, REDUCED_AFTER2]
        assert [it.delta for it in trace.iterations] == [2, 2, None]
        assert [it.cover.weight for it in trace.iterations] == [
            Fraction(12, 7), Fraction(13, 7), Fraction(15, 7)
        ]
        assert [it.flow_value for it in trace.iterations] == [
            Fraction(12, 7), Fraction(13, 7), Fraction(15, 7)
        ]

    def test_problem_p_optimum_is_the_nw_cost(self):
        # convex f(x[i] - y[j]) on sorted x and y is Monge, so the NW plan is
        # optimal; the marginals are distributions with unlike denominators
        rng = random.Random(27)
        for _ in range(120):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            x = sorted(rng.randint(-20, 20) for _ in range(m))
            y = sorted(rng.randint(-20, 20) for _ in range(n))
            p_row, p_col = (
                [Fraction(k, d) for k in composition(rng, d, parts)]
                for d, parts in ((rng.randint(1, 10**6), m), (rng.randint(1, 10**6), n))
            )
            shape = rng.choice(sorted(CONVEX_SHAPES))
            inst = problem_p_instance(ProblemPSpec(x, y, p_row, p_col, CONVEX_SHAPES[shape]))
            plan, cert, _ = solve_weighted_hungarian(inst)
            nw = north_west_corner(inst)
            assert plan_cost(inst, plan) == plan_cost(inst, nw), inst
            assert verify_optimal(inst, nw, cert), inst

    def test_optimum_scales_with_the_marginals(self):
        # dividing every marginal by `unit` divides the optimum by it, which
        # the oracle finds on the undivided instance
        rng = random.Random(28)
        checked = 0
        while checked < 400:
            inst = random_instance(rng, max_dim=4, max_total=12)
            if check_monge(inst.cost).holds:
                continue
            unit = rng.choice((2, 3, 7, 10, 12, 97))
            divided = new_instance(
                inst.cost, [v / unit for v in inst.supply], [v / unit for v in inst.demand]
            )
            plan, _, _ = solve_weighted_hungarian(divided)
            assert plan_cost(divided, plan) * unit == enumerate_optimum(inst).optimum, inst
            checked += 1

    def test_marginals_over_the_digit_limit_are_refused(self):
        limit = digit_limit()
        a = 10 ** (limit // 2 + 1) + 1  # a and a + 2 are coprime
        inst = new_instance([[0, 1], [1, 0]], [Fraction(1, a), 1 - Fraction(1, a)],
                            [Fraction(1, a + 2), 1 - Fraction(1, a + 2)])
        message = (
            f"^the common denominator of the supplies and demands exceeds the limit of "
            f"{limit} digits$"
        )
        with pytest.raises(ValueError, match=message):
            solve_weighted_hungarian(inst)

    def test_a_step_that_changes_nothing_hits_the_iteration_bound(
        self, worked_instance, monkeypatch
    ):
        steps = []

        def stuck(cost, alpha, beta, cover):
            steps.append(cover)
            return 1

        monkeypatch.setattr(hungarian, "_delta_step", stuck)
        # the per-step check stops such a step at once ...
        with pytest.raises(RuntimeError, match=r"iteration 1: the delta step raised the dual "
                           r"objective by 0, not delta \* \(total - cover weight\) = 3"):
            solve_weighted_hungarian(worked_instance)
        # ... and without it the iteration bound still does, after
        # (total + 1)(m + n + 1) = 16 * 8 iterations on the worked example
        steps.clear()
        monkeypatch.setattr(hungarian, "_check_step", lambda *args: None)
        with pytest.raises(RuntimeError, match=r"no optimum after 128 iterations"):
            solve_weighted_hungarian(worked_instance)
        assert len(steps) == 128

    def test_a_step_that_raises_beta_fails_the_dual_objective_check(
        self, worked_instance, monkeypatch
    ):
        step = hungarian._delta_step

        def beta_up(cost, alpha, beta, cover):
            delta = step(cost, alpha, beta, cover)
            for j in cover.cols:
                beta[j] += 2 * delta  # net: beta[j] += delta
            return delta

        monkeypatch.setattr(hungarian, "_delta_step", beta_up)
        # first step: delta 2, covered demand 3 + 2 + 4, so the objective
        # rises by 2 * (15 - 12) + 2 * 2 * 9 instead of 2 * (15 - 12)
        with pytest.raises(
            RuntimeError,
            match=r"iteration 1: the delta step raised the dual objective by 42, "
            r"not delta \* \(total - cover weight\) = 6",
        ):
            solve_weighted_hungarian(worked_instance)

    def test_a_step_that_drops_a_cover_line_is_an_internal_error(
        self, worked_instance, monkeypatch
    ):
        step = hungarian._delta_step

        def drop_last_column(cost, alpha, beta, cover):
            cols = cover.cols - {max(cover.cols)}
            return step(cost, alpha, beta, hungarian.LineCover(cover.rows, cols, cover.weight))

        monkeypatch.setattr(hungarian, "_delta_step", drop_last_column)
        # COVER1 without column 3 leaves the zero at (2, 3) uncovered
        with pytest.raises(
            RuntimeError, match=r"iteration 1: cover leaves the zero at \(2, 3\) uncovered"
        ):
            solve_weighted_hungarian(worked_instance)

    def test_a_step_that_keeps_the_old_zeros_fails_the_progress_check(
        self, worked_instance, monkeypatch
    ):
        update = hungarian.ZeroFlowNetwork.update_zeros
        given = []

        def stale(network, reduced):
            given.append(reduced)
            update(network, given[0])

        monkeypatch.setattr(hungarian.ZeroFlowNetwork, "update_zeros", stale)
        # the source side: the source node, rows 1 and 2, columns 0, 1 and 3
        with pytest.raises(
            RuntimeError,
            match=r"iteration 1: the delta step took the max flow from 12 to 12 and "
            r"the min cut's source side from 6 to 6 nodes, without growing either",
        ):
            solve_weighted_hungarian(worked_instance)

    def test_a_cover_heavier_than_the_flow_is_an_internal_error(
        self, worked_instance, monkeypatch
    ):
        monkeypatch.setattr(hungarian, "line_cover", _heavier_cover)
        with pytest.raises(RuntimeError, match=r"^min-cut weight 13 differs from max-flow 12$"):
            solve_weighted_hungarian(worked_instance)

    def test_a_cover_that_leaves_a_zero_is_an_internal_error(
        self, worked_instance, monkeypatch
    ):
        monkeypatch.setattr(hungarian, "line_cover", _empty_cover)
        # the first zero of REDUCED_START in row-major order
        with pytest.raises(RuntimeError, match=r"^derived cover misses the zero at \(0, 2\)$"):
            solve_weighted_hungarian(worked_instance)

    def test_a_failed_final_certificate_check_is_an_internal_error(
        self, worked_instance, monkeypatch
    ):
        violation = ("dual", 0, 0, Fraction(11), Fraction(10))
        monkeypatch.setattr(
            hungarian, "verify_optimal", lambda *args: OptimalityReport(violation)
        )
        with pytest.raises(
            RuntimeError, match=r"^internal error: certificate check failed: \('dual', 0, 0, "
        ):
            solve_weighted_hungarian(worked_instance)

    def test_an_infeasible_final_plan_is_an_internal_error(self, worked_instance, monkeypatch):
        # a mutant flow read-out that drops the first cell, (0, 2) with 3 units
        flow = hungarian.ZeroFlowNetwork.zero_cell_flow

        def drop_first(network):
            cells = flow(network)
            del cells[min(cells)]
            return cells

        monkeypatch.setattr(hungarian.ZeroFlowNetwork, "zero_cell_flow", drop_first)
        message = (
            r"^internal error: plan is infeasible \(row 0 has residual 3\); "
            "cannot certify optimality$"
        )
        with pytest.raises(RuntimeError, match=message):
            solve_weighted_hungarian(worked_instance)
        # so the CLI does not report it as a method precondition (exit 3)
        with pytest.raises(RuntimeError, match=message):
            main(["solve", str(DATA / "worked_example.txt"), "--method", "hungarian"])

    @pytest.mark.parametrize(
        "name, alpha, beta",
        [
            ("rational.txt", (Fraction(1, 2), Fraction(3, 4)), (0, Fraction(1, 6))),
            ("worked_example.txt", (3, 5, 5), (-4, -1, 0, -2)),
        ],
    )
    def test_loop_runs_on_ints_and_certificate_is_fractions(self, name, alpha, beta):
        inst = parse_instance((DATA / name).read_text())
        _, cert, trace = solve_weighted_hungarian(inst)
        for it in trace.iterations:
            assert all(type(v) is int for row in it.matrix for v in row)
            assert it.delta is None or type(it.delta) is int
        assert all(type(v) is Fraction for v in cert.alpha + cert.beta)
        assert (cert.alpha, cert.beta) == (alpha, beta)

    def test_solve_validates_once_and_verifies_once(self, worked_instance, monkeypatch):
        names = ("as_matrix", "new_instance", "extract_plan_from_zeros", "verify_optimal")
        calls = dict.fromkeys(names, 0)

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(hungarian, name, counted(name, getattr(hungarian, name)))
        solve_weighted_hungarian(worked_instance)
        assert calls == {
            "as_matrix": 0,
            "new_instance": 0,
            "extract_plan_from_zeros": 0,
            "verify_optimal": 1,
        }

    def test_an_integer_solve_reads_none_of_its_loop_matrices(self, monkeypatch):
        # reading a scaled-int matrix on every delta step would cost about
        # 0.3 ms per 20 x 20 step; the network's type test lets ints through
        reads = []

        def counting(read):
            def counting_read(value):
                reads.append(value)
                return read(value)

            return counting_read

        for name in ("as_matrix", "as_fraction"):
            monkeypatch.setattr(hungarian, name, counting(getattr(hungarian, name)))
        rng = random.Random(3)
        cost = [[rng.randint(0, 1000) for _ in range(20)] for _ in range(20)]
        inst = new_instance(cost, composition(rng, 200, 20), composition(rng, 200, 20))
        _, _, trace = solve_weighted_hungarian(inst)
        assert sum(it.delta is not None for it in trace.iterations) == 25
        assert reads == []

    def test_cover_weights_monotone_and_dual_objective_strictly_increasing(self):
        rng = random.Random(17)
        for _ in range(20):
            inst = random_instance(rng)
            _, cert, trace = solve_weighted_hungarian(inst)
            weights = [it.cover.weight for it in trace.iterations]
            assert weights == sorted(weights)
            # each adjustment improves the dual objective by delta * (total - weight)
            gains = [
                it.delta * (inst.total - it.cover.weight)
                for it in trace.iterations
                if it.delta is not None
            ]
            assert all(gain > 0 for gain in gains)
            reduced_start = reduce_matrix(tuple(
                tuple(c * trace.scale for c in row) for row in inst.cost
            ))
            start_objective = (
                sum(o * a for o, a in zip(reduced_start[1], inst.supply))
                + sum(o * b for o, b in zip(reduced_start[2], inst.demand))
            ) / trace.scale
            assert start_objective + sum(gains) / trace.scale == dual_objective(inst, cert)

    def test_every_iteration_flow_matches_cover_weight(self):
        rng = random.Random(19)
        for _ in range(25):
            inst = random_instance(rng)
            _, _, trace = solve_weighted_hungarian(inst)
            for it in trace.iterations:
                assert it.flow_value == it.cover.weight

    def test_integer_data_stays_integral(self):
        rng = random.Random(47)
        for _ in range(10):
            inst = random_instance(rng, cost_low=-5)
            plan, cert, _ = solve_weighted_hungarian(inst)
            for q in plan.entries.values():
                assert q.denominator == 1
            for v in cert.alpha + cert.beta:
                assert v.denominator == 1


class TestDerivedTrace:
    """The solver's iterations keep their duals and derive `matrix` on read;
    `test_warm_start.py` compares every iteration with the cold start's."""

    def test_a_derived_iteration_is_its_public_construction(self, worked_instance):
        _, _, trace = solve_weighted_hungarian(worked_instance)
        for it in trace.iterations:
            assert "matrix" not in vars(it) and "flow_value" not in vars(it)
            assert it.flow_value == it.cover.weight
            assert it.matrix == tuple(
                tuple(c - a - b for c, b in zip(row, it.beta))
                for row, a in zip(it.cost, it.alpha)
            )
            public = HungarianIteration(it.cost, it.alpha, it.beta, it.cover, it.delta)
            assert it == public and public == it
            assert hash(it) == hash(public)
            assert repr(it) == repr(public)
        # every iteration of a solve shares its scaled cost
        assert all(it.cost is trace.iterations[0].cost for it in trace.iterations)
        with pytest.raises(AttributeError, match="no attribute 'unknown'"):
            trace.iterations[0].unknown

    def test_a_60x60_solve_keeps_under_one_mib_until_matrices_are_read(self):
        # 60x60, costs 0..1000: 84 iterations.  A trace that stores one m x n
        # matrix per iteration keeps 6.2 MiB alive on it (CPython 3.11).
        rng = random.Random(6060)
        cost = [[rng.randint(0, 1000) for _ in range(60)] for _ in range(60)]
        instance = new_instance(cost, composition(rng, 600, 60), composition(rng, 600, 60))
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, _, trace = solve_weighted_hungarian(instance)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(trace.iterations) == 84
        assert kept < 2**20
        assert trace.iterations[0].matrix == reduce_matrix(instance.cost)[0]


class TestExtractPlan:
    def test_final_matrix_extraction_is_the_worked_plan(self, worked_instance, worked_plan):
        _, flow, zero_flow = min_weight_zero_cover(
            REDUCED_AFTER2, worked_instance.supply, worked_instance.demand
        )
        assert flow == 15
        plan = extract_plan_from_zeros(REDUCED_AFTER2, worked_instance.supply, worked_instance.demand, zero_flow)
        assert plan == worked_plan
        assert is_feasible(worked_instance, plan)
        assert all(REDUCED_AFTER2[i][j] == 0 for (i, j) in plan.entries)

    def test_identity_zero_matrix(self):
        matrix = [[0 if i == j else 1 for j in range(3)] for i in range(3)]
        _, _, zero_flow = min_weight_zero_cover(matrix, [1] * 3, [1] * 3)
        plan = extract_plan_from_zeros(matrix, [1] * 3, [1] * 3, zero_flow)
        assert plan == TransportPlan({(0, 0): 1, (1, 1): 1, (2, 2): 1})

    def test_all_zero_matrix_yields_some_feasible_plan(self):
        inst = new_instance([[0, 0], [0, 0]], [1, 1], [1, 1])
        _, _, zero_flow = min_weight_zero_cover(inst.cost, inst.supply, inst.demand)
        plan = extract_plan_from_zeros(inst.cost, inst.supply, inst.demand, zero_flow)
        assert is_feasible(inst, plan)

    def test_short_flow_rejected(self):
        with pytest.raises(ValueError, match="balanced total"):
            extract_plan_from_zeros([[0, 1], [1, 0]], [1, 1], [1, 1], {(0, 0): 1})

    def test_infeasible_flow_of_full_total_rejected(self):
        with pytest.raises(ValueError, match="balanced total"):
            extract_plan_from_zeros([[0, 0], [0, 0]], [1, 1], [1, 1], {(0, 0): 2})

    def test_flow_on_nonzero_cell_rejected(self):
        with pytest.raises(ValueError, match=r"flow of 1 on nonzero cell \(0, 1\)"):
            extract_plan_from_zeros([[0, 1], [1, 0]], [1, 1], [1, 1], {(0, 1): 1, (1, 0): 1})

    @pytest.mark.parametrize("cell", [(0, 1), (5, 5)])
    def test_a_zero_entry_is_no_flow(self, cell):
        # a plan drops zero quantities, so a zero entry ships nothing, on a
        # nonzero cell or outside the matrix
        plan = extract_plan_from_zeros(
            [[0, 1], [1, 0]], [1, 1], [1, 1], {(0, 0): 1, (1, 1): 1, cell: 0}
        )
        assert plan == TransportPlan({(0, 0): 1, (1, 1): 1})


class TestExpansion:
    def test_worked_example_expands_to_15x15_blocks(self, worked_instance):
        expanded, row_map, col_map = expand_to_assignment(worked_instance)
        assert len(expanded) == 15 and len(expanded[0]) == 15
        assert row_map == (0,) * 3 + (1,) * 5 + (2,) * 7
        assert col_map == (0,) * 3 + (1,) * 2 + (2,) * 6 + (3,) * 4
        for p in range(3):
            for q in range(3):
                assert expanded[p][q] == 10

    def test_unit_marginals_expand_to_the_same_matrix(self):
        inst = new_instance([[1, 2], [3, 4]], [1, 1], [1, 1])
        expanded, row_map, col_map = expand_to_assignment(inst)
        assert expanded == inst.cost
        assert row_map == (0, 1) and col_map == (0, 1)

    def test_row_replication(self):
        inst = new_instance([[3, 4]], [2], [1, 1])
        expanded, row_map, col_map = expand_to_assignment(inst)
        assert expanded == ((3, 4), (3, 4))
        assert row_map == (0, 0) and col_map == (0, 1)

    def test_cap_enforced(self, worked_instance):
        with pytest.raises(ValueError, match="cap"):
            expand_to_assignment(worked_instance, max_total=10)

    def test_non_integer_marginals_refused(self):
        halves = parse_instance((DATA / "halves.txt").read_text())
        with pytest.raises(ValueError, match="^integer supplies and demands required"):
            expand_to_assignment(halves)


class TestSolveAssignment:
    def test_two_by_two(self):
        assert solve_assignment([[1, 2], [2, 1]]) == ((0, 1), 2)
        assert solve_assignment([[0, 1], [1, 0]]) == ((0, 1), 0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_assignment([[1, 2, 3], [4, 5, 6]])

    def test_matches_factorial_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 4)
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            perm, cost = solve_assignment(matrix)
            _, expected = enumerate_assignment(matrix)
            assert cost == expected
            assert sum(matrix[i][perm[i]] for i in range(n)) == expected


    @pytest.mark.parametrize(
        "entries",
        [
            {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2),
             (1, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)},
            {(0, 0): 1, (0, 1): 1},
        ],
    )
    def test_a_plan_that_is_not_a_permutation_is_an_internal_error(
        self, monkeypatch, entries
    ):
        plan = TransportPlan(entries)
        monkeypatch.setattr(
            hungarian, "solve_weighted_hungarian", lambda instance: (plan, None, None)
        )
        with pytest.raises(
            RuntimeError, match=r"^internal error: the plan is not a permutation: TransportPlan"
        ):
            solve_assignment([[0, 0], [0, 0]])


class TestAggregate:
    def test_identity_expansion_round_trip(self):
        plan = aggregate_assignment_solution((1, 0), (0, 1), (0, 1))
        assert plan == TransportPlan({(0, 1): 1, (1, 0): 1})

    def test_replicated_row(self):
        plan = aggregate_assignment_solution((0, 1), (0, 0), (0, 1))
        assert plan == TransportPlan({(0, 0): 1, (0, 1): 1})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expanded order"):
            aggregate_assignment_solution((0,), (0, 0), (0,))

    @pytest.mark.parametrize(
        "permutation, row_map, col_map", [([0, 0], [0, 1], [0, 1]), ([-1], [0], [0])]
    )
    def test_non_permutation_rejected(self, permutation, row_map, col_map):
        with pytest.raises(ValueError, match=r"not a permutation of range\("):
            aggregate_assignment_solution(permutation, row_map, col_map)

    def test_worked_example_expansion_equivalence(self, worked_instance):
        expanded, row_map, col_map = expand_to_assignment(worked_instance)
        perm, expanded_cost = solve_assignment(expanded)
        plan = aggregate_assignment_solution(perm, row_map, col_map)
        assert is_feasible(worked_instance, plan)
        assert plan_cost(worked_instance, plan) == expanded_cost == 47


class TestEquivalence:
    def test_three_routes_agree_on_small_instances(self):
        rng = random.Random(37)
        for _ in range(20):
            inst = random_instance(rng, max_dim=4, max_total=8, cost_low=-4)
            direct, _, _ = solve_weighted_hungarian(inst)
            expanded, row_map, col_map = expand_to_assignment(inst)
            perm, _ = solve_assignment(expanded)
            via_expansion = aggregate_assignment_solution(perm, row_map, col_map)
            oracle = enumerate_optimum(inst)
            assert (
                plan_cost(inst, direct)
                == plan_cost(inst, via_expansion)
                == oracle.optimum
            )
