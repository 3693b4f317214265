import random
from fractions import Fraction

import pytest

from helpers import CONVEX_SHAPES, composition, random_instance
from transopt import (
    ProblemPSpec,
    TransportPlan,
    enumerate_assignment,
    enumerate_optimum,
    is_feasible,
    new_instance,
    north_west_corner,
    plan_cost,
    problem_p_instance,
    solve_weighted_hungarian,
)


class TestEnumerateOptimum:
    def test_one_by_one(self):
        result = enumerate_optimum(new_instance([[4]], [5], [5]))
        assert result.optimum == 20
        assert result.plan == TransportPlan({(0, 0): 5})
        assert result.optimal_count == 1

    def test_diagonal_zeros(self):
        result = enumerate_optimum(new_instance([[0, 1], [1, 0]], [1, 1], [1, 1]))
        assert result.optimum == 0
        assert result.plan == TransportPlan({(0, 0): 1, (1, 1): 1})

    def test_unit_marginals_match_permutation_oracle(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(1, 3)
            matrix = [[rng.randint(-5, 9) for _ in range(n)] for _ in range(n)]
            inst = new_instance(matrix, [1] * n, [1] * n)
            _, best = enumerate_assignment(matrix)
            assert enumerate_optimum(inst).optimum == best

    def test_worked_example_leading_submatrix_unit_marginals(self):
        from helpers import WORKED_COST

        leading = [row[:3] for row in WORKED_COST]
        inst = new_instance(leading, [1, 1, 1], [1, 1, 1])
        _, best = enumerate_assignment(leading)
        assert enumerate_optimum(inst).optimum == best

    def test_tie_breaks_to_lexicographically_smallest(self):
        result = enumerate_optimum(new_instance([[0, 0], [0, 0]], [1, 1], [1, 1]))
        # flattened (x00, x01, x10, x11) = (0, 1, 1, 0) precedes (1, 0, 0, 1)
        assert result.plan == TransportPlan({(0, 1): 1, (1, 0): 1})
        assert result.optimal_count == 2

    def test_total_guard(self, worked_instance):
        with pytest.raises(ValueError, match="size guard"):
            enumerate_optimum(worked_instance)

    def test_raised_guard_admits_the_worked_example(self, worked_instance):
        assert enumerate_optimum(worked_instance, max_total=15).optimum == 47

    def test_cell_guard(self):
        inst = new_instance([[0] * 5] * 4, [1, 1, 1, 1], [1, 1, 1, 1, 0])
        with pytest.raises(ValueError, match="cells"):
            enumerate_optimum(inst)

    def test_non_integer_marginals_are_enumerated(self):
        inst = new_instance([[0]], [Fraction(1, 2)], [Fraction(1, 2)])
        result = enumerate_optimum(inst)
        assert result.optimum == 0
        assert result.plan == TransportPlan({(0, 0): Fraction(1, 2)})

    def test_rational_marginals_match_the_hungarian_solver(self):
        # marginals s / unit: the oracle enumerates plans in units of 1/unit
        rng = random.Random(5)
        for _ in range(400):
            inst = random_instance(rng, max_dim=4, max_total=12, cost_low=-5)
            unit = rng.choice((2, 3, 4, 7, 12))
            divided = new_instance(
                inst.cost, [v / unit for v in inst.supply], [v / unit for v in inst.demand]
            )
            result = enumerate_optimum(divided)
            plan, _, _ = solve_weighted_hungarian(divided)
            assert result.optimum == plan_cost(divided, plan), divided
            assert is_feasible(divided, result.plan), divided
            assert plan_cost(divided, result.plan) == result.optimum, divided

    def test_problem_p_optimum_is_the_nw_cost(self):
        # convex f(x[i] - y[j]) on sorted x and y is Monge, so the NW plan is
        # optimal; the marginals are distributions with unlike denominators
        rng = random.Random(28)
        for _ in range(60):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            x = sorted(rng.randint(-5, 5) for _ in range(m))
            y = sorted(rng.randint(-5, 5) for _ in range(n))
            p_row, p_col = (
                [Fraction(k, d) for k in composition(rng, d, parts)]
                for d, parts in ((rng.randint(1, 4), m), (rng.randint(1, 3), n))
            )
            shape = rng.choice(sorted(CONVEX_SHAPES))
            inst = problem_p_instance(ProblemPSpec(x, y, p_row, p_col, CONVEX_SHAPES[shape]))
            nw = north_west_corner(inst)
            assert enumerate_optimum(inst).optimum == plan_cost(inst, nw), inst

    def test_total_guard_counts_scaled_units(self):
        inst = new_instance([[0, 1]], [Fraction(13, 2)], [3, Fraction(7, 2)])
        message = r"^size guard exceeded: balanced total 13/2 \(13 units of 1/2\) > 12$"
        with pytest.raises(ValueError, match=message):
            enumerate_optimum(inst)
        assert enumerate_optimum(inst, max_total=13).optimum == Fraction(7, 2)

    def test_plan_is_always_feasible_and_optimum_a_lower_bound(self):
        rng = random.Random(43)
        for _ in range(20):
            inst = random_instance(rng, cost_low=-5)
            result = enumerate_optimum(inst)
            assert is_feasible(inst, result.plan)
            assert plan_cost(inst, result.plan) == result.optimum
            assert result.optimal_count >= 1


class TestEnumerateAssignment:
    def test_single_cell(self):
        assert enumerate_assignment([[1]]) == ((0,), 1)

    def test_two_by_two(self):
        assert enumerate_assignment([[1, 2], [2, 1]]) == ((0, 1), 2)

    def test_tie_breaks_lexicographically(self):
        perm, cost = enumerate_assignment([[0, 0], [0, 0]])
        assert perm == (0, 1)
        assert cost == 0

    def test_size_guard(self):
        with pytest.raises(ValueError, match="size guard"):
            enumerate_assignment([[0] * 9] * 9)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            enumerate_assignment([[1, 2]])
