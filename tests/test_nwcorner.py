import random
import statistics
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CONVEX_SHAPES,
    balanced_instances,
    brute_force_monge,
    composition,
    random_feasible_plan,
    small_matrices,
    sorted_rationals,
)
from transopt import (
    MongeOrderWarning,
    MongeReport,
    ProblemPSpec,
    TransportPlan,
    check_monge,
    convex_diff_cost,
    enumerate_optimum,
    factored_cost,
    is_feasible,
    new_instance,
    north_west_corner,
    plan_cost,
    problem_p_instance,
    sum_cost,
)


class TestNorthWestCorner:
    def test_worked_example_marginals(self, worked_instance):
        plan = north_west_corner(worked_instance)
        assert plan == TransportPlan(
            {(0, 0): 3, (1, 1): 2, (1, 2): 3, (2, 2): 3, (2, 3): 4}
        )
        assert plan_cost(worked_instance, plan) == 93

    def test_one_by_one(self):
        inst = new_instance([[0]], [5], [5])
        assert north_west_corner(inst) == TransportPlan({(0, 0): 5})

    def test_diagonal_forced(self):
        inst = new_instance([[0, 0], [0, 0]], [1, 1], [1, 1])
        assert north_west_corner(inst) == TransportPlan({(0, 0): 1, (1, 1): 1})

    @given(balanced_instances())
    @settings(max_examples=80)
    def test_feasible_staircase_and_sparse(self, inst):
        plan = north_west_corner(inst)
        assert is_feasible(inst, plan)
        assert len(plan) <= inst.m + inst.n - 1
        cells = plan.cells()
        for (i, j), (r, s) in zip(cells, cells[1:]):
            # no cell strictly below-and-left of a later one
            assert not (i < r and j > s)


class TestCheckMonge:
    def test_factored_sorted_holds(self):
        cost = factored_cost([3, 2, 1], [1, 2, 3])
        assert check_monge(cost, "exhaustive").holds

    def test_constant_matrix_holds(self):
        assert check_monge([[5] * 3] * 4, "exhaustive").holds

    def test_report_truth_is_the_verdict(self):
        assert not MongeReport(False)
        assert MongeReport(True)

    def test_two_by_two_cases(self):
        assert check_monge([[0, 1], [1, 0]], "exhaustive").holds
        report = check_monge([[1, 0], [0, 1]], "exhaustive")
        assert not report.holds
        assert report.witness == (0, 0, 1, 1)
        assert report.direct_sum == 2
        assert report.cross_sum == 0

    def test_worked_example_witness(self, worked_instance):
        report = check_monge(worked_instance.cost, "exhaustive")
        assert report.witness == (0, 0, 1, 1)
        assert (report.direct_sum, report.cross_sum) == (16, 8)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            check_monge([[1]], "both")
        # before any cell is read
        with pytest.raises(ValueError, match="^mode must be 'adjacent' or 'exhaustive'"):
            check_monge([["x"]], "both")

    def test_default_mode_is_exhaustive(self):
        # (0, 0, 1, 1) holds, (0, 0, 1, 2) and (0, 1, 1, 2) are violated
        matrix = [[1, 1, 0], [0, 0, 0]]
        assert check_monge(matrix, "adjacent").witness == (0, 1, 1, 2)
        assert check_monge(matrix, "exhaustive").witness == (0, 0, 1, 2)
        assert check_monge(matrix) == check_monge(matrix, "exhaustive")

    @given(small_matrices())
    @settings(max_examples=150)
    def test_modes_agree(self, matrix):
        assert check_monge(matrix, "adjacent").holds == check_monge(matrix, "exhaustive").holds

    @given(
        st.one_of(
            small_matrices(max_dim=5, low=-3, high=3),
            st.integers(1, 5).flatmap(
                lambda n: st.lists(
                    st.lists(
                        st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n
                    ),
                    min_size=1,
                    max_size=5,
                )
            ),
        )
    )
    @settings(max_examples=300)
    def test_exhaustive_matches_brute_force(self, matrix):
        assert check_monge(matrix, "exhaustive") == brute_force_monge(matrix)

    def test_exhaustive_matches_brute_force_seeded(self):
        rng = random.Random(3)
        violated = 0
        for k in range(600):
            if k % 10 == 0:
                m, n = rng.choice([(1, rng.randint(1, 7)), (rng.randint(1, 7), 1)])
            else:
                m, n = rng.randint(2, 7), rng.randint(2, 7)
            if k % 3 == 0:
                cost = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            elif k % 3 == 1:
                cost = [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                    for _ in range(m)
                ]
            else:
                # convex-difference costs, mostly with one cell perturbed
                f = CONVEX_SHAPES[rng.choice(sorted(CONVEX_SHAPES))]
                x, y = sorted_rationals(rng, m), sorted_rationals(rng, n)
                cost = [list(row) for row in convex_diff_cost(x, y, f)]
                if rng.random() < 0.7:
                    bump = Fraction(rng.randint(-3, 3), 2)
                    cost[rng.randrange(m)][rng.randrange(n)] += bump
            report = check_monge(cost, "exhaustive")
            assert report == brute_force_monge(cost)
            violated += not report.holds
        assert 0 < violated < 600

    def test_exhaustive_agrees_with_adjacent_at_the_same_cost(self):
        rng = random.Random(71)
        kinds = {"monge": 0, "perturbed": 0, "random": 0}
        for k in range(90):
            kind = sorted(kinds)[k % 3]
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            if kind == "random":
                cost = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            else:
                f = CONVEX_SHAPES[rng.choice(sorted(CONVEX_SHAPES))]
                x, y = sorted_rationals(rng, m), sorted_rationals(rng, n)
                cost = [list(row) for row in convex_diff_cost(x, y, f)]
                if kind == "perturbed":
                    cost[rng.randrange(m)][rng.randrange(n)] -= Fraction(rng.randint(1, 8), 2)
            report = check_monge(cost, "exhaustive")
            assert report == brute_force_monge(cost)
            adjacent = check_monge(cost, "adjacent")
            assert report.holds == adjacent.holds
            if not report.holds:
                assert report.witness[0] <= adjacent.witness[0]
            kinds[kind] += not report.holds
        assert kinds["monge"] == 0 and 0 < kinds["perturbed"] < 30 and kinds["random"] > 0

        # Square differences broken only in the last two rows: a scan over
        # the rows above the first violation would cost O(m^2 n) here.
        size = 300
        late = [[(i - j) ** 2 for j in range(size)] for i in range(size)]
        late[-2][0] += 3
        seconds: dict[str, list[float]] = {"adjacent": [], "exhaustive": []}
        for _ in range(5):
            for mode, runs in seconds.items():
                start = time.perf_counter()
                assert check_monge(late, mode).witness[0] == size - 2
                runs.append(time.perf_counter() - start)
        assert statistics.median(seconds["exhaustive"]) <= 3 * statistics.median(
            seconds["adjacent"]
        )

    @pytest.mark.parametrize(
        "cost, witness",
        [
            # r = 1 and r = 2 share the smallest j; the smaller r wins, and
            # of the violated s = 1, 2, 3 the first is reported.
            ([[5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], (0, 0, 1, 1)),
            # a later r with a smaller j comes first in scan order
            ([[5, 5, 0, 0], [5, 0, 0, 0], [0, 0, 0, 0]], (0, 0, 2, 2)),
            # s is the first column below g[j], not j + 1
            ([[3, 4, 5, 1], [0, 0, 0, 0]], (0, 0, 1, 3)),
            # no violation at i = 0, several at i = 1
            ([[0, 0, 0], [2, 1, 0], [0, 0, 0], [0, 0, 0]], (1, 0, 2, 1)),
            ([[1, 0, 2]], None),
            ([[1], [0], [2]], None),
        ],
    )
    def test_exhaustive_witness_ties(self, cost, witness):
        report = check_monge(cost, "exhaustive")
        assert report.witness == witness
        assert report == brute_force_monge(cost)

    def test_monge_implies_nw_optimal(self):
        rng = random.Random(23)
        tested = 0
        while tested < 25:
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            cost = [[rng.randint(0, 6) for _ in range(n)] for _ in range(m)]
            if not check_monge(cost, "exhaustive").holds:
                continue
            total = rng.randint(1, 8)
            inst = new_instance(cost, composition(rng, total, m), composition(rng, total, n))
            nw = north_west_corner(inst)
            assert plan_cost(inst, nw) == enumerate_optimum(inst).optimum
            tested += 1


class TestFactoredCost:
    def test_products(self):
        assert factored_cost([2, 1], [1, 3]) == ((2, 6), (1, 3))

    def test_all_ones(self):
        cost = factored_cost([1, 1], [1, 1])
        assert cost == ((1, 1), (1, 1))
        assert check_monge(cost, "exhaustive").holds

    def test_unsorted_warns_but_builds(self):
        with pytest.warns(MongeOrderWarning):
            cost = factored_cost([1, 2], [3, 1])
        assert cost == ((3, 1), (6, 2))

    def test_negative_entries_warn_but_build(self):
        with pytest.warns(MongeOrderWarning) as caught:
            cost = factored_cost([1, -1], [0, 2])
        assert [str(w.message) for w in caught] == [
            "factored cost without greedy-optimality guarantee: "
            "entries are not all nonnegative"
        ]
        assert cost == ((0, 2), (0, -2))

    def test_three_by_three_nw_matches_oracle(self):
        cost = factored_cost([3, 2, 1], [1, 2, 3])
        inst = new_instance(cost, [2, 1, 2], [1, 2, 2])
        assert plan_cost(inst, north_west_corner(inst)) == enumerate_optimum(inst).optimum


class TestSumCost:
    def test_zero_vectors(self):
        assert sum_cost([0, 0], [0, 0]) == ((0, 0), (0, 0))

    def test_values(self):
        assert sum_cost([1, 2], [10, 20]) == ((11, 21), (12, 22))

    def test_every_feasible_plan_has_the_same_cost(self):
        rng = random.Random(3)
        for _ in range(10):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            x = [rng.randint(-5, 5) for _ in range(m)]
            y = [rng.randint(-5, 5) for _ in range(n)]
            total = rng.randint(1, 8)
            supply = composition(rng, total, m)
            demand = composition(rng, total, n)
            inst = new_instance(sum_cost(x, y), supply, demand)
            expected = sum(a * xi for a, xi in zip(supply, x)) + sum(
                b * yj for b, yj in zip(demand, y)
            )
            for _ in range(5):
                plan = random_feasible_plan(rng, inst)
                assert plan_cost(inst, plan) == expected

    def test_greedy_solver_and_oracle_all_agree(self):
        from transopt import solve_weighted_hungarian

        rng = random.Random(53)
        for _ in range(10):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            x = [rng.randint(-5, 5) for _ in range(m)]
            y = [rng.randint(-5, 5) for _ in range(n)]
            total = rng.randint(1, 8)
            inst = new_instance(
                sum_cost(x, y), composition(rng, total, m), composition(rng, total, n)
            )
            nw_cost = plan_cost(inst, north_west_corner(inst))
            solver_cost = plan_cost(inst, solve_weighted_hungarian(inst)[0])
            assert nw_cost == solver_cost == enumerate_optimum(inst).optimum


class TestConvexDiffCost:
    def test_square_values(self):
        cost = convex_diff_cost([1, 2], [1, 2], lambda t: t * t)
        assert cost == ((0, 1), (1, 0))

    def test_abs_gives_index_distance_pattern(self):
        cost = convex_diff_cost([1, 2, 3], [1, 2, 3], abs)
        assert cost == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
        inst = new_instance(cost, [2, 2, 1], [1, 3, 1])
        assert plan_cost(inst, north_west_corner(inst)) == enumerate_optimum(inst).optimum

    def test_unsorted_inputs_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            convex_diff_cost([2, 1], [1, 2], abs)
        with pytest.raises(ValueError, match="nondecreasing"):
            convex_diff_cost([1, 2], [2, 1], abs)

    def test_convexity_spot_check_catches_concave(self):
        with pytest.raises(ValueError, match="convexity"):
            convex_diff_cost([0, 1, 2], [0, 1, 2], lambda t: -(t * t), spot_check_convexity=True)

    def test_convexity_spot_check_passes_convex(self):
        cost = convex_diff_cost([0, 1, 2], [0, 1, 2], abs, spot_check_convexity=True)
        assert cost[0][2] == 2

    def test_random_sorted_rationals_nw_matches_oracle(self):
        rng = random.Random(29)
        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            x = sorted_rationals(rng, m)
            y = sorted_rationals(rng, n)
            f = CONVEX_SHAPES[rng.choice(sorted(CONVEX_SHAPES))]
            total = rng.randint(1, 8)
            inst = new_instance(
                convex_diff_cost(x, y, f), composition(rng, total, m), composition(rng, total, n)
            )
            assert plan_cost(inst, north_west_corner(inst)) == enumerate_optimum(inst).optimum

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(sorted(CONVEX_SHAPES)),
        st.data(),
    )
    @settings(max_examples=60)
    def test_sorted_inputs_always_yield_monge_costs(self, m, n, shape, data):
        x = sorted(data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)))
        y = sorted(data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
        cost = convex_diff_cost(x, y, CONVEX_SHAPES[shape])
        assert check_monge(cost, "exhaustive").holds


class TestProblemP:
    def test_balanced_marginals_reach_zero_cost(self):
        spec = ProblemPSpec(
            (0, 1), (0, 1), (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)), lambda t: t * t,
        )
        inst = problem_p_instance(spec)
        assert inst.total == 1
        assert inst.cost == ((0, 1), (1, 0))
        plan = north_west_corner(inst)
        assert plan == TransportPlan({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
        assert plan_cost(inst, plan) == 0

    def test_degenerate_row_marginal(self):
        spec = ProblemPSpec(
            (0, 1), (0, 1), (1, 0), (Fraction(1, 2), Fraction(1, 2)), lambda t: t * t,
        )
        inst = problem_p_instance(spec)
        plan = north_west_corner(inst)
        assert plan == TransportPlan({(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
        assert plan_cost(inst, plan) == Fraction(1, 2)

    def test_marginals_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            problem_p_instance(
                ProblemPSpec((0, 1), (0, 1), (Fraction(1, 2), Fraction(1, 2)),
                             (Fraction(1, 2), Fraction(1, 4)), abs)
            )

    def test_negative_marginals_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            problem_p_instance(
                ProblemPSpec((0, 1), (0, 1), (Fraction(3, 2), Fraction(-1, 2)),
                             (Fraction(1, 2), Fraction(1, 2)), abs)
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="x has"):
            problem_p_instance(
                ProblemPSpec((0, 1, 2), (0, 1), (Fraction(1, 2), Fraction(1, 2)),
                             (Fraction(1, 2), Fraction(1, 2)), abs)
            )

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError, match="^y has 3 values but p_col has 2$"):
            problem_p_instance(
                ProblemPSpec((0, 1), (0, 1, 2), (Fraction(1, 2), Fraction(1, 2)),
                             (Fraction(1, 2), Fraction(1, 2)), abs)
            )

    def test_squared_cost_minimum_maximizes_covariance(self):
        # 2x2 couplings with fixed marginals form a one-parameter family; the
        # squared-difference minimizer must be the expected-product maximizer.
        x, y = (0, 1), (0, 1)
        p_row = (Fraction(1, 2), Fraction(1, 2))
        p_col = (Fraction(1, 2), Fraction(1, 2))
        spec = ProblemPSpec(x, y, p_row, p_col, lambda t: t * t)
        inst = problem_p_instance(spec)
        nw = north_west_corner(inst)

        def coupling(t):
            return TransportPlan(
                {(0, 0): t, (0, 1): p_row[0] - t, (1, 0): p_col[0] - t,
                 (1, 1): p_row[1] - (p_col[0] - t)}
            )

        def product_expectation(plan):
            return sum(
                x[i] * y[j] * q for (i, j), q in plan.entries.items()
            )

        grid = [Fraction(k, 16) for k in range(9)]  # t in [0, 1/2]
        plans = [coupling(t) for t in grid]
        assert all(is_feasible(inst, p) for p in plans)
        best_cost = min(plan_cost(inst, p) for p in plans)
        best_cov = max(product_expectation(p) for p in plans)
        assert plan_cost(inst, nw) == best_cost
        assert product_expectation(nw) == best_cov
