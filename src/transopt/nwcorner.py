"""North West corner rule, Monge-condition checking, and structured cost builders.

The builders cover the cost families for which the NW corner plan is optimal:
factored costs x_i * y_j (with x nonincreasing, y nondecreasing), sum costs
x_i + y_j (where every feasible plan is optimal), convex-difference costs
f(x_i - y_j) for convex f, and coupling problems with fixed marginals.

A coupling instance with irrational-valued (float) data converts exactly to
binary rationals, so everything downstream stays exact arithmetic.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from operator import gt, sub
from typing import Callable, Iterable, Sequence

from .core import (
    Numberish,
    TransportInstance,
    TransportPlan,
    _scaled_to_integers,
    _value_type,
    as_fraction,
    as_matrix,
    as_vector,
    new_instance,
)

__all__ = [
    "MongeOrderWarning",
    "MongeReport",
    "ProblemPSpec",
    "check_monge",
    "convex_diff_cost",
    "factored_cost",
    "north_west_corner",
    "problem_p_instance",
    "sum_cost",
]


class MongeOrderWarning(UserWarning):
    """Inputs are not ordered as the greedy-optimality guarantee requires."""


@_value_type
class MongeReport:
    """Verdict of a Monge-condition check.

    When the condition fails, `witness` is the first quadruple (i, j, r, s)
    with i < r and j < s in scan order for which
    cost[i][j] + cost[r][s] > cost[r][j] + cost[i][s]; the two sums are kept
    as `direct_sum` (left side) and `cross_sum` (right side).
    """

    holds: bool
    witness: tuple[int, int, int, int] | None = None
    direct_sum: Fraction | None = None
    cross_sum: Fraction | None = None

    def __bool__(self) -> bool:
        return self.holds


def north_west_corner(instance: TransportInstance) -> TransportPlan:
    """Greedy staircase plan: ship min(remaining supply, remaining demand) at
    the current cell, move right when the demand is exhausted, down when the
    supply is.  When both run out together, the column is consumed first and
    the pointer moves right (the plan stays degenerate rather than storing a
    zero cell).
    """
    rem_supply = list(instance.supply)
    rem_demand = list(instance.demand)
    m, n = instance.m, instance.n
    entries: dict[tuple[int, int], Fraction] = {}
    i = j = 0
    while i < m and j < n:
        q = min(rem_supply[i], rem_demand[j])
        if q > 0:
            entries[(i, j)] = q
            rem_supply[i] -= q
            rem_demand[j] -= q
        if rem_demand[j] == 0:
            j += 1
        else:
            i += 1
    return TransportPlan(entries)


def check_monge(
    cost: Sequence[Sequence[Numberish]], mode: str = "exhaustive"
) -> MongeReport:
    """Test cost[i][j] + cost[r][s] <= cost[r][j] + cost[i][s] for i < r, j < s.

    "exhaustive" (the default) reports the first violated (i, j, r, s) in
    scan order, "adjacent" the first violated (i, j, i+1, j+1) in row-major
    order.  The verdicts agree, as adjacent inequalities sum to arbitrary
    ones, and both modes take O(mn) time and O(n) extra memory.

    The matrix is scaled to integers by the least common multiple of its
    denominators, which keeps every inequality.  (i, t, r, t+1) is violated
    exactly when row i's column step cost[i][t] - cost[i][t+1] exceeds row
    r's, so one bottom-up pass that compares each row's steps with the next
    row's (adjacent) or with their least value below (exhaustive) finds the
    first row i of a violation.  For that row, the exhaustive witness fixes
    r > i and lets g = row_i - row_r: the excess of (i, j, r, s) is
    g[j] - g[s], so some s > j violates exactly when g[j] > min(g[j+1:]),
    which a right-to-left running minimum decides for every j.  The witness
    takes the smallest such j over all r, then the smallest r with that j,
    then the first s > j with g[s] < g[j].  The reported sums come from the
    unscaled matrix.
    """
    if mode not in ("adjacent", "exhaustive"):
        raise ValueError(f"mode must be 'adjacent' or 'exhaustive', got {mode!r}")
    matrix = as_matrix(cost)
    _, rows = _scaled_to_integers(matrix)
    witness = _first_violation(rows, mode == "exhaustive")
    if witness is None:
        return MongeReport(True)
    i, j, r, s = witness
    return MongeReport(
        False, witness, matrix[i][j] + matrix[r][s], matrix[r][j] + matrix[i][s]
    )


def _first_violation(
    rows: list[list[int]], exhaustive: bool
) -> tuple[int, int, int, int] | None:
    """First violated (i, j, i + 1, j + 1) in row-major order, or with
    `exhaustive` first violated (i, j, r, s) in scan order; see check_monge."""
    first = below = None  # below: the next row's steps, or their column minima
    for i in range(len(rows) - 1, -1, -1):
        steps = list(map(sub, rows[i], rows[i][1:]))
        if below is not None and any(map(gt, steps, below)):
            first = i
        below = list(map(min, steps, below)) if exhaustive and below else steps
    if first is None:
        return None
    i, top, n = first, rows[first], len(rows[0])
    if not exhaustive:
        bottom = rows[i + 1]
        j = next(j for j in range(n - 1)
                 if top[j] + bottom[j + 1] > bottom[j] + top[j + 1])
        return i, j, i + 1, j + 1
    best: tuple[int, int, list[int]] = (n, i, [])  # (j, r, g)
    for r in range(i + 1, len(rows)):
        g = [a - b for a, b in zip(top, rows[r])]
        low = g[-1]
        for j in range(n - 2, -1, -1):
            if g[j] <= low:
                low = g[j]
            elif j < best[0]:
                best = (j, r, g)
    j, r, g = best
    s = next(s for s in range(j + 1, n) if g[s] < g[j])
    return i, j, r, s


def _is_nonincreasing(v: Sequence[Fraction]) -> bool:
    return all(v[k] >= v[k + 1] for k in range(len(v) - 1))


def _is_nondecreasing(v: Sequence[Fraction]) -> bool:
    return all(v[k] <= v[k + 1] for k in range(len(v) - 1))


def factored_cost(
    x: Iterable[Numberish], y: Iterable[Numberish]
) -> tuple[tuple[Fraction, ...], ...]:
    """Cost matrix c[i][j] = x[i] * y[j].

    The NW-optimality guarantee needs x nonincreasing and y nondecreasing,
    both nonnegative; rows and columns can always be reordered to achieve
    that, so violations only warn and the matrix is still built.
    """
    xs = as_vector(x)
    ys = as_vector(y)
    problems = []
    if not _is_nonincreasing(xs):
        problems.append("x is not nonincreasing")
    if not _is_nondecreasing(ys):
        problems.append("y is not nondecreasing")
    if any(v < 0 for v in xs) or any(v < 0 for v in ys):
        problems.append("entries are not all nonnegative")
    if problems:
        warnings.warn(
            "factored cost without greedy-optimality guarantee: "
            + "; ".join(problems),
            MongeOrderWarning,
            stacklevel=2,
        )
    return tuple(tuple(a * b for b in ys) for a in xs)


def sum_cost(
    x: Iterable[Numberish], y: Iterable[Numberish]
) -> tuple[tuple[Fraction, ...], ...]:
    """Cost matrix c[i][j] = x[i] + y[j]; every feasible plan costs the same."""
    xs = as_vector(x)
    ys = as_vector(y)
    return tuple(tuple(a + b for b in ys) for a in xs)


def convex_diff_cost(
    x: Iterable[Numberish],
    y: Iterable[Numberish],
    f: Callable[[Fraction], Numberish],
    spot_check_convexity: bool = False,
) -> tuple[tuple[Fraction, ...], ...]:
    """Cost matrix c[i][j] = f(x[i] - y[j]) for nondecreasing x and y.

    Convexity of f is the caller's contract (it cannot be proven for a black
    box); with spot_check_convexity, midpoint convexity is sampled on the
    difference grid and a counterexample raises.
    """
    xs = as_vector(x)
    ys = as_vector(y)
    if not _is_nondecreasing(xs):
        raise ValueError("x must be nondecreasing")
    if not _is_nondecreasing(ys):
        raise ValueError("y must be nondecreasing")
    if spot_check_convexity:
        points = sorted({a - b for a in xs for b in ys})
        for t1, t3 in zip(points, points[2:]):
            t2 = (t1 + t3) / 2
            mid = as_fraction(f(t2))
            chord = (as_fraction(f(t1)) + as_fraction(f(t3))) / 2
            if mid > chord:
                raise ValueError(
                    f"convexity spot check failed: f({t2}) = {mid} exceeds the "
                    f"chord midpoint {chord} between {t1} and {t3}"
                )
    return tuple(tuple(as_fraction(f(a - b)) for b in ys) for a in xs)


@_value_type
class ProblemPSpec:
    """A coupling problem: choose joint probabilities with fixed marginals
    minimizing the expected convex cost f(x_i - y_j).

    x and y are the (sorted, nondecreasing) values of the two variables;
    p_row and p_col their marginal distributions; f the convex cost shape.
    """

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    p_row: tuple[Fraction, ...]
    p_col: tuple[Fraction, ...]
    f: Callable[[Fraction], Numberish]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_vector(self.x))
        object.__setattr__(self, "y", as_vector(self.y))
        object.__setattr__(self, "p_row", as_vector(self.p_row))
        object.__setattr__(self, "p_col", as_vector(self.p_col))


def problem_p_instance(spec: ProblemPSpec) -> TransportInstance:
    """Build the transportation instance of a coupling problem.

    Supplies are the row marginals, demands the column marginals, and the cost
    is f(x_i - y_j); the total shipped mass is 1.
    """
    if len(spec.x) != len(spec.p_row):
        raise ValueError(
            f"x has {len(spec.x)} values but p_row has {len(spec.p_row)}"
        )
    if len(spec.y) != len(spec.p_col):
        raise ValueError(
            f"y has {len(spec.y)} values but p_col has {len(spec.p_col)}"
        )
    if any(p < 0 for p in spec.p_row) or any(p < 0 for p in spec.p_col):
        raise ValueError("marginal probabilities must be nonnegative")
    row_total = sum(spec.p_row, Fraction(0))
    col_total = sum(spec.p_col, Fraction(0))
    if row_total != col_total or row_total != 1:
        raise ValueError(
            f"marginals must each sum to 1: row total {row_total}, "
            f"column total {col_total}"
        )
    cost = convex_diff_cost(spec.x, spec.y, spec.f)
    return new_instance(cost, spec.p_row, spec.p_col)
