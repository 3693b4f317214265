"""Shared generators for randomized tests: seeded `random.Random` builders for
exact-count suites and hypothesis strategies for property tests."""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

from hypothesis import strategies as st

from transopt import (
    DualCertificate,
    HungarianIteration,
    MongeReport,
    SolveTrace,
    TransportInstance,
    TransportPlan,
    delta_adjust,
    extract_plan_from_zeros,
    min_weight_zero_cover,
    new_instance,
    reduce_matrix,
)
from transopt.core import as_matrix

CONVEX_SHAPES = {
    "square": lambda t: t * t,
    "abs": abs,
    "relu": lambda t: max(Fraction(0), t),
}

WORKED_COST = [[10, 7, 3, 6], [1, 6, 8, 3], [7, 4, 5, 3]]
WORKED_SUPPLY = [3, 5, 7]
WORKED_DEMAND = [3, 2, 6, 4]


def worked_example() -> TransportInstance:
    """The 3x4 instance whose solve is traced step by step in the docs."""
    return new_instance(WORKED_COST, WORKED_SUPPLY, WORKED_DEMAND)


def digit_limit() -> int:
    """The most digits `str` prints of an int: the interpreter's setting, or
    its default where the setting is 0 (no limit), as the program reads it."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def brute_force_monge(cost) -> MongeReport:
    """Reference for `check_monge(cost, "exhaustive")`: every quadruple
    i < r, j < s in (i, j, r, s) order, in O(m^2 n^2) Fraction sums."""
    c = as_matrix(cost)
    m, n = len(c), len(c[0])
    for i in range(m):
        for j in range(n):
            for r in range(i + 1, m):
                for s in range(j + 1, n):
                    direct = c[i][j] + c[r][s]
                    cross = c[r][j] + c[i][s]
                    if direct > cross:
                        return MongeReport((i, j, r, s), direct, cross)
    return MongeReport()


def cold_start_solve(
    instance: TransportInstance,
) -> tuple[TransportPlan, DualCertificate, SolveTrace]:
    """Reference for `solve_weighted_hungarian`, returning (plan, certificate,
    trace) as it does: the same cover / delta loop from the public step
    functions, with a fresh zero network (max flow from zero) at every cover
    step."""
    supply, demand = instance.supply, instance.demand
    scale = math.lcm(*(c.denominator for row in instance.cost for c in row))
    cost = tuple(tuple(c * scale for c in row) for row in instance.cost)
    reduced, alpha, beta = reduce_matrix(cost)
    alpha, beta = list(alpha), list(beta)
    iterations = []
    while True:
        cover, flow_value, zero_flow = min_weight_zero_cover(reduced, supply, demand)
        final = flow_value == instance.total
        adjusted, delta = (reduced, None) if final else delta_adjust(reduced, cover)
        iteration = HungarianIteration(cost, tuple(alpha), tuple(beta), cover, delta)
        if iteration.matrix != reduced:  # a check that `python -O` keeps
            raise AssertionError("the recorded duals do not derive the covered matrix")
        iterations.append(iteration)
        if final:
            break
        alpha = [a if i in cover.rows else a + delta for i, a in enumerate(alpha)]
        beta = [b - delta if j in cover.cols else b for j, b in enumerate(beta)]
        reduced = adjusted
    plan = extract_plan_from_zeros(reduced, supply, demand, zero_flow)
    certificate = DualCertificate(
        tuple(a / scale for a in alpha), tuple(b / scale for b in beta)
    )
    return plan, certificate, SolveTrace(scale, tuple(iterations))


def composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split `total` into `parts` nonnegative integers, uniformly via cuts."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0, *cuts, total]
    return [bounds[k + 1] - bounds[k] for k in range(parts)]


def random_instance(
    rng: random.Random,
    max_dim: int = 4,
    max_total: int = 10,
    cost_low: int = 0,
    cost_high: int = 9,
) -> TransportInstance:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    total = rng.randint(1, max_total)
    supply = composition(rng, total, m)
    demand = composition(rng, total, n)
    cost = [[rng.randint(cost_low, cost_high) for _ in range(n)] for _ in range(m)]
    return new_instance(cost, supply, demand)


def random_feasible_plan(rng: random.Random, instance: TransportInstance) -> TransportPlan:
    """Any feasible integer plan: ship random amounts on random admissible cells."""
    rem_supply = [int(v) for v in instance.supply]
    rem_demand = [int(v) for v in instance.demand]
    entries: dict[tuple[int, int], int] = {}
    while any(rem_supply):
        i = rng.choice([k for k, v in enumerate(rem_supply) if v])
        j = rng.choice([k for k, v in enumerate(rem_demand) if v])
        q = rng.randint(1, min(rem_supply[i], rem_demand[j]))
        entries[(i, j)] = entries.get((i, j), 0) + q
        rem_supply[i] -= q
        rem_demand[j] -= q
    return TransportPlan(entries)


def sorted_rationals(
    rng: random.Random, count: int, low: int = -4, high: int = 4
) -> list[Fraction]:
    values = [
        Fraction(rng.randint(low, high), rng.choice((1, 2, 3, 4)))
        for _ in range(count)
    ]
    return sorted(values)


@st.composite
def compositions(draw, total: int, parts: int) -> list[int]:
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=parts - 1, max_size=parts - 1)))
    bounds = [0, *cuts, total]
    return [bounds[k + 1] - bounds[k] for k in range(parts)]


@st.composite
def balanced_instances(
    draw, max_dim: int = 4, max_total: int = 10, cost_low: int = -5, cost_high: int = 9
) -> TransportInstance:
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    total = draw(st.integers(1, max_total))
    supply = draw(compositions(total, m))
    demand = draw(compositions(total, n))
    cost = draw(
        st.lists(
            st.lists(st.integers(cost_low, cost_high), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return new_instance(cost, supply, demand)


@st.composite
def small_matrices(
    draw, max_dim: int = 4, low: int = -5, high: int = 9
) -> list[list[int]]:
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    return draw(
        st.lists(
            st.lists(st.integers(low, high), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )


@st.composite
def zero_network_steps(
    draw, max_dim: int = 7, max_total: int = 12, max_steps: int = 3
) -> tuple[int, int, list[int], list[int], list[set[tuple[int, int]]]]:
    """(m, n, supply, demand, patterns): integer marginals and zero patterns
    of an m x n matrix; the first pattern builds a zero network, each later
    one is a warm `update_zeros` step."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    total = draw(st.integers(1, max_total))
    supply = draw(compositions(total, m))
    demand = draw(compositions(total, n))
    cells = list(itertools.product(range(m), range(n)))
    pattern = st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)).map(
        lambda zero: {cell for cell, is_zero in zip(cells, zero) if is_zero}
    )
    patterns = draw(st.lists(pattern, min_size=1, max_size=1 + max_steps))
    return m, n, supply, demand, patterns
