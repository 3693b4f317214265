"""Optimal values against independent exact solvers, above the oracle's size.

`networkx.network_simplex` is exact on integer costs and marginals, and the
transportation optimum it returns must equal the cost of the Hungarian plan,
whose certificate must also verify.  `scipy.optimize.linear_sum_assignment`
does the same for `solve_assignment`; its float costs are exact for these
small integers, and the optimum is summed back from the integer matrix.
The North West corner plan of a Monge instance must be optimal too (the
paper's theorem), which the same network simplex checks at 40 x 40.
"""

import random
import warnings

import pytest

from helpers import CONVEX_SHAPES, composition
from transopt import (
    check_monge,
    convex_diff_cost,
    factored_cost,
    new_instance,
    north_west_corner,
    plan_cost,
    solve_assignment,
    solve_weighted_hungarian,
    verify_optimal,
)

# (m, n, cost_high), total 10*m as in the benchmark pools; two seeds each
TRANSPORT_SHAPES = [
    (5, 8, 9),
    (9, 6, 1000),
    (20, 20, 9),
    (20, 20, 1000),
    (31, 27, 1000),
    (40, 40, 9),
    (40, 40, 1000),
]
# Monge cost builders on sorted signed integers: (x, y) -> matrix
MONGE_COSTS = {
    "factored_x_down_y_up": lambda x, y: factored_cost(x[::-1], y),
    "factored_x_up_y_down": lambda x, y: factored_cost(x, y[::-1]),
    "convexdiff_abs": lambda x, y: convex_diff_cost(x, y, CONVEX_SHAPES["abs"]),
    "convexdiff_square": lambda x, y: convex_diff_cost(x, y, CONVEX_SHAPES["square"]),
}
# (order, cost_low, cost_high)
ASSIGNMENT_SHAPES = [(8, -9, 9), (15, 0, 1000), (30, 0, 9), (30, 0, 1000)]


def network_simplex_optimum(instance):
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    for i, s in enumerate(instance.supply):
        graph.add_node(("row", i), demand=-int(s))
    for j, d in enumerate(instance.demand):
        graph.add_node(("col", j), demand=int(d))
    for i, row in enumerate(instance.cost):
        for j, c in enumerate(row):
            graph.add_edge(("row", i), ("col", j), weight=int(c))
    optimum, _ = nx.network_simplex(graph)
    return optimum


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m, n, cost_high", TRANSPORT_SHAPES)
def test_transport_optimum_matches_network_simplex(m, n, cost_high, seed):
    rng = random.Random(f"transport:{m}x{n}:{cost_high}:{seed}")
    total = 10 * m
    cost = [[rng.randint(0, cost_high) for _ in range(n)] for _ in range(m)]
    instance = new_instance(cost, composition(rng, total, m), composition(rng, total, n))
    expected = network_simplex_optimum(instance)
    plan, certificate, _ = solve_weighted_hungarian(instance)
    assert plan_cost(instance, plan) == expected
    assert verify_optimal(instance, plan, certificate)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", MONGE_COSTS)
def test_nw_plan_of_a_monge_instance_matches_network_simplex(kind, seed):
    rng = random.Random(f"monge:{kind}:{seed}")
    m = n = 40
    x = sorted(rng.randint(-30, 30) for _ in range(m))
    y = sorted(rng.randint(-30, 30) for _ in range(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cost = MONGE_COSTS[kind](x, y)
    assert check_monge(cost)
    total = 10 * m
    instance = new_instance(cost, composition(rng, total, m), composition(rng, total, n))
    assert plan_cost(instance, north_west_corner(instance)) == network_simplex_optimum(instance)


@pytest.mark.parametrize("order, cost_low, cost_high", ASSIGNMENT_SHAPES)
def test_assignment_optimum_matches_linear_sum_assignment(order, cost_low, cost_high):
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(f"assignment:{order}:{cost_low}:{cost_high}")
    matrix = [[rng.randint(cost_low, cost_high) for _ in range(order)] for _ in range(order)]
    rows, cols = optimize.linear_sum_assignment(matrix)
    expected = sum(matrix[i][j] for i, j in zip(rows, cols))
    perm, cost = solve_assignment(matrix)
    assert sorted(perm) == list(range(order))
    assert cost == sum(matrix[i][perm[i]] for i in range(order)) == expected
