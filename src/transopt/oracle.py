"""Brute-force ground truth for tiny instances.

Enumerates every feasible plan in units of 1/unit, unit the common denominator
of the marginals (the scaled polytope has integral vertices, so this finds the
true optimum), and every permutation for small assignment problems.  Used to
validate all solver paths; guarded against anything bigger than desk scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .core import (
    Numberish,
    TransportInstance,
    TransportPlan,
    _scaled_to_integers,
    _value_type,
    as_matrix,
)

__all__ = ["OracleResult", "enumerate_assignment", "enumerate_optimum"]


@_value_type
class OracleResult:
    optimum: Fraction
    plan: TransportPlan
    optimal_count: int  # how many plans in units of 1/unit achieve the optimum


def enumerate_optimum(
    instance: TransportInstance,
    max_total: int = 12,
    max_cells: int = 16,
) -> OracleResult:
    """Exact minimum over all feasible plans in units of 1/unit, unit the
    common denominator of the supplies and demands, by cell-wise recursion.

    Assigns x[0][0], x[0][1], ... row by row, pruning with remaining supply and
    demand bounds.  Ties break to the lexicographically smallest flattened plan
    (the first one met in ascending enumeration order).  Size guards reject
    instances whose balanced total exceeds max_total units of 1/unit or with
    more than max_cells cells.
    """
    unit, (supply, demand) = _scaled_to_integers(
        (instance.supply, instance.demand), "supplies and demands"
    )
    m, n = instance.m, instance.n
    units = sum(supply)
    if units > max_total:
        counted = "" if unit == 1 else f" ({units} units of 1/{unit})"
        raise ValueError(
            f"size guard exceeded: balanced total {instance.total}{counted} > {max_total}"
        )
    if m * n > max_cells:
        raise ValueError(f"size guard exceeded: {m}x{n} has more than {max_cells} cells")

    cost = instance.cost
    rem_demand = list(demand)
    # demand_tail[j] = total demand strictly after column j
    demand_tail = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        demand_tail[j] = demand_tail[j + 1] + demand[j]

    current: dict[tuple[int, int], int] = {}
    best_cost: Fraction | None = None
    best_plan: dict[tuple[int, int], int] = {}
    best_count = 0

    def walk(i: int, j: int, rem_row: int, acc: Fraction) -> None:
        nonlocal best_cost, best_plan, best_count
        if i == m:
            if best_cost is None or acc < best_cost:
                best_cost = acc
                best_plan = dict(current)
                best_count = 1
            elif acc == best_cost:
                best_count += 1
            return
        if j == n:
            walk(i + 1, 0, supply[i + 1] if i + 1 < m else 0, acc)
            return
        tail = demand_tail[j + 1]
        low = rem_row - tail if rem_row > tail else 0
        high = min(rem_row, rem_demand[j])
        for q in range(low, high + 1):
            current[(i, j)] = q
            rem_demand[j] -= q
            walk(i, j + 1, rem_row - q, acc + cost[i][j] * q)
            rem_demand[j] += q
        current.pop((i, j), None)

    walk(0, 0, supply[0] if m else 0, Fraction(0))
    assert best_cost is not None  # balanced instances always have a feasible plan
    plan = TransportPlan({cell: Fraction(q, unit) for cell, q in best_plan.items()})
    return OracleResult(best_cost / unit, plan, best_count)


def enumerate_assignment(
    cost: Sequence[Sequence[Numberish]], max_n: int = 8
) -> tuple[tuple[int, ...], Fraction]:
    """Exact minimum assignment by trying all permutations.

    Returns the lexicographically smallest argmin permutation and its cost.
    """
    matrix = as_matrix(cost)
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("assignment cost matrix must be square")
    if n > max_n:
        raise ValueError(f"size guard exceeded: n {n} > {max_n}")

    def cost_of(perm: tuple[int, ...]) -> Fraction:
        return sum((matrix[i][j] for i, j in enumerate(perm)), Fraction(0))

    # permutations come in lexicographic order and min keeps the first minimum
    best = min(itertools.permutations(range(n)), key=cost_of)
    return best, cost_of(best)
