"""Weighted Hungarian method for balanced transportation problems.

The loop alternates two steps: cover all zeros of the reduced cost matrix
with rows and columns of minimum total weight (row i weighs supply[i], column
j weighs demand[j]), then, while the cover weight is below the balanced
total, take the minimum uncovered entry delta, subtract it from uncovered
cells and add it to doubly-covered ones.  The min-weight cover is computed as
a minimum cut of a flow network whose arcs are the zero cells, which also
hands us a maximum flow; when that flow saturates every marginal it *is* a
feasible plan supported on zeros, and the duals are a certificate.

The loop's only state is those duals, alpha and beta: the reduced matrix is
by definition cost[i][j] - alpha[i] - beta[j] (the primal-dual method of
Ford and Fulkerson), and so are its zero cells.  A delta step raises alpha
on uncovered rows and lowers beta on covered columns, and the solver hands the
network the new reduced matrix with `ZeroFlowNetwork.update_zeros`.  One
network serves a solve, so each max flow resumes from the previous one
instead of starting from zero.

Extraction always uses the max flow.  The textbook alternative (repeatedly
picking rows/columns with a single zero) is not used: it can deadlock on ties,
while the flow is guaranteed whenever the cover weight equals the total.

Assignment problems are the unit-marginal special case, and any transportation
problem expands to one by replicating row i supply[i] times and column j
demand[j] times; both directions are provided for cross-validation.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    Cell,
    DualCertificate,
    Numberish,
    TransportInstance,
    TransportPlan,
    _as_index,
    _dual_objective,
    _nonnegative_marginals,
    _scaled_to_integers,
    _value_type,
    as_matrix,
    as_vector,
    is_feasible,
    new_instance,
    plan_cost,
    verify_optimal,
)

__all__ = [
    "HungarianIteration",
    "LineCover",
    "SolveTrace",
    "ZeroFlowNetwork",
    "aggregate_assignment_solution",
    "delta_adjust",
    "expand_to_assignment",
    "extract_plan_from_zeros",
    "line_cover",
    "min_weight_zero_cover",
    "reduce_matrix",
    "solve_assignment",
    "solve_weighted_hungarian",
]

# Public steps return Fractions; the solver's loop runs on ints.
Number = int | Fraction
Matrix = tuple[tuple[Number, ...], ...]

# Most rows plus columns a zero network takes: its residual is a dense
# (m + n + 2)^2 matrix, about 32 MiB of list slots at this limit.
MAX_NETWORK_LINES = 2000


@_value_type
class LineCover:
    """A weighted set of covering lines: row indices, column indices, and
    their total weight (sum of covered supplies plus covered demands)."""

    rows: frozenset[int]
    cols: frozenset[int]
    weight: Fraction


def line_cover(
    rows: Iterable[int],
    cols: Iterable[int],
    supply: Iterable[Numberish],
    demand: Iterable[Numberish],
) -> LineCover:
    supply, demand = as_vector(supply), as_vector(demand)
    row_set, col_set = _covered_lines(rows, cols, len(supply), len(demand))
    weight = sum((supply[i] for i in row_set), Fraction(0)) + sum(
        (demand[j] for j in col_set), Fraction(0)
    )
    return LineCover(row_set, col_set, weight)


def _covered_lines(
    rows: Iterable[int], cols: Iterable[int], m: int, n: int
) -> tuple[frozenset[int], frozenset[int]]:
    """The covered rows and columns as index sets; IndexError unless each
    is an integer in range(m) or range(n)."""
    lines = []
    for name, indices, count in (("row", rows, m), ("column", cols, n)):
        found = frozenset(_as_index(k, IndexError, f"covered {name}") for k in indices)
        for k in found:
            if not 0 <= k < count:
                raise IndexError(f"covered {name} {k} out of range")
        lines.append(found)
    return tuple(lines)


@_value_type
class HungarianIteration:
    """One pass of the cover step: the matrix it saw, the cover found, the
    max-flow value on the zero network, and the delta applied (None on the
    terminal pass).  Matrix entries and delta are ints in scaled units.

    An iteration the solver records stores the scaled cost, which all its
    iterations share, and its own duals instead of a matrix: O(m + n) values.
    Its `matrix` is derived from them on every read.
    """

    matrix: Matrix
    cover: LineCover
    flow_value: Fraction
    delta: Number | None

    def __getattr__(self, name: str):
        # only reached for attributes the instance lacks, such as the matrix
        # of an iteration made by `_recorded`
        if name == "matrix" and "_duals" in self.__dict__:
            return _reduced(*self._duals)
        raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")


def _recorded(
    duals: tuple[Sequence[Sequence[int]], tuple[int, ...], tuple[int, ...]],
    cover: LineCover,
    flow_value: Fraction,
    delta: int | None,
) -> HungarianIteration:
    """The iteration whose matrix is `_reduced(*duals)`, derived on read."""
    iteration = object.__new__(HungarianIteration)
    for name, value in (
        ("_duals", duals), ("cover", cover), ("flow_value", flow_value), ("delta", delta)
    ):
        object.__setattr__(iteration, name, value)
    return iteration


@_value_type
class SolveTrace:
    """Full record of a solve: every iteration plus the extracted solution.

    `scale` is the factor that made the cost matrix integer before the loop;
    iteration matrices and deltas are ints in scaled units (scale is 1 for
    integer costs), while `plan` and `certificate` are Fractions in original
    units.
    """

    scale: int
    iterations: tuple[HungarianIteration, ...]
    plan: TransportPlan
    certificate: DualCertificate


class ZeroFlowNetwork:
    """Flow network over the zero cells of a reduced matrix.

    The network reads its numbers as `new_instance` does: the marginals
    always, and the matrix whenever an entry is not already an `int` or a
    `Fraction`, so `"0"` is a zero and a malformed or non-finite entry
    raises the reader's ValueError.  The solver's scaled-int matrices pass
    unread.

    Source feeds each row with capacity supply[i]; each column drains to the
    sink with capacity demand[j]; every zero cell (i, j) carries an arc from
    row i to column j with capacity one more than the balanced total, which no
    flow can saturate, so a zero arc never crosses the canonical minimum cut.

    Max flow is computed with shortest augmenting paths (Edmonds and Karp),
    neighbors scanned in ascending node order, so flows and cuts are
    deterministic.  Each search stops as soon as it labels the sink: the
    path is read back from the sink's ancestors, which were all labelled
    before it, so the nodes the search would have scanned after that point
    change nothing.

    `update_zeros` moves the network to the next reduced matrix of a solve and
    keeps the flow, so the next `max_flow` augments from it instead of from
    zero (the primal-dual scheme of Ford and Fulkerson).  The source side of
    the canonical cut is the same for every maximum flow, so covers and flow
    values match a fresh network's; only the flow on the zero cells may
    differ where several maximum flows exist.

    Tests reach the network through its public queries and one private
    seam, `_clear_flow`, which a network calls once while it is built and
    again only when `update_zeros` restarts its flow.
    """

    def __init__(
        self,
        reduced: Sequence[Sequence[Numberish]],
        supply: Iterable[Numberish],
        demand: Iterable[Numberish],
    ) -> None:
        self.supply, self.demand = as_vector(supply), as_vector(demand)
        self.m, self.n = len(self.supply), len(self.demand)
        if self.m + self.n > MAX_NETWORK_LINES:
            raise ValueError(
                f"zero network of a {self.m} x {self.n} instance has {self.m + self.n} "
                f"lines, over the limit of {MAX_NETWORK_LINES}"
            )
        _nonnegative_marginals(self.supply, self.demand)
        self.source = 0
        self.sink = self.m + self.n + 1
        self._unbounded = sum(self.supply, Fraction(0)) + 1
        self.zero_cells: list[Cell] = []
        self._clear_flow()
        self.update_zeros(reduced)

    def _clear_flow(self) -> None:
        """Residual graph of the zero flow with marginal arcs only."""
        size = self.sink + 1
        # _residual[u][v] = remaining capacity of arc u -> v
        self._residual = [[Fraction(0)] * size for _ in range(size)]
        for i in range(self.m):
            self._residual[self.source][1 + i] = self.supply[i]
        for j in range(self.n):
            self._residual[1 + self.m + j][self.sink] = self.demand[j]

    def _arc_flow(self, cell: Cell) -> Fraction:
        # flow on a zero arc equals the reverse residual it created
        i, j = cell
        return self._residual[1 + self.m + j][1 + i]

    def update_zeros(self, reduced: Sequence[Sequence[Numberish]]) -> None:
        """Make the zero arcs those of `reduced`, keeping the current flow.

        A matrix of the wrong shape raises ValueError; one holding any entry
        that is not an `int` or a `Fraction` is read with `as_matrix` first.

        Arcs of cells that are no longer zero are dropped and every new zero
        gets an arc.  A delta step only turns doubly-covered zeros nonzero,
        and a cut's cover never doubly covers a flow-carrying arc, so the flow
        survives; if a dropped arc does carry flow (an arbitrary new matrix),
        the flow restarts from zero.
        """
        if len(reduced) != self.m or any(len(row) != self.n for row in reduced):
            raise ValueError("matrix shape does not match supply/demand lengths")
        if not {type(value) for row in reduced for value in row} <= {int, Fraction}:
            reduced = as_matrix(reduced)
        zero_cells = [
            (i, j) for i, row in enumerate(reduced) for j, value in enumerate(row) if value == 0
        ]
        dropped = set(self.zero_cells).difference(zero_cells)
        if any(self._arc_flow(cell) > 0 for cell in dropped):
            self._clear_flow()
        for i, j in dropped:
            self._residual[1 + i][1 + self.m + j] = Fraction(0)
        # no flow reaches a zero arc's capacity, so a kept arc's forward
        # residual may be reset to it; its flow stays in the reverse residual
        for i, j in zero_cells:
            self._residual[1 + i][1 + self.m + j] = self._unbounded
        self.zero_cells = zero_cells
        self._flow_value: Fraction | None = None
        self._reached: frozenset[int] = frozenset()

    def _search(self) -> list[int]:
        """Breadth-first search of the residual graph from the source; returns
        each node's BFS parent (-1 where unlabelled).

        The search returns the moment it labels the sink, so nodes still
        queued then stay unscanned.  A search that never labels the sink
        labels everything the source reaches.
        """
        sink = self.sink
        parent = [-1] * len(self._residual)
        parent[self.source] = self.source
        queue = deque([self.source])
        while queue:
            u = queue.popleft()
            for v, cap in enumerate(self._residual[u]):
                if cap > 0 and parent[v] < 0:
                    parent[v] = u
                    if v == sink:
                        return parent
                    queue.append(v)
        return parent

    def max_flow(self) -> Fraction:
        """Augment the current flow to a maximum one and return its value;
        idempotent until the next `update_zeros`.

        The last search finds no path, so it reaches everything the source
        can; that set is kept as the source side of the canonical min cut.
        """
        if self._flow_value is not None:
            return self._flow_value
        while True:
            parent = self._search()
            if parent[self.sink] < 0:
                break
            path = []
            v = self.sink
            while v != self.source:
                path.append((parent[v], v))
                v = parent[v]
            bottleneck = min(self._residual[u][v] for u, v in path)
            for u, v in path:
                self._residual[u][v] -= bottleneck
                self._residual[v][u] += bottleneck
        self._reached = frozenset(v for v, p in enumerate(parent) if p >= 0)
        self._flow_value = sum(
            (cap - left for cap, left in zip(self.supply, self._residual[self.source][1:])),
            Fraction(0),
        )
        return self._flow_value

    def zero_cell_flow(self) -> dict[Cell, Fraction]:
        """Flow routed through each zero cell, zero flows included."""
        self.max_flow()
        return {cell: self._arc_flow(cell) for cell in self.zero_cells}

    def source_side(self) -> set[int]:
        """Nodes reachable from the source in the final residual graph."""
        self.max_flow()
        return set(self._reached)

    def min_cut_cover(self) -> LineCover:
        """Canonical minimum cut read as covering lines: rows the source can
        no longer reach, columns it still can.  RuntimeError (an internal
        fault) unless it weighs the max flow and covers every zero cell."""
        reachable, flow = self.source_side(), self.max_flow()
        rows = [i for i in range(self.m) if 1 + i not in reachable]
        cols = [j for j in range(self.n) if 1 + self.m + j in reachable]
        cover = line_cover(rows, cols, self.supply, self.demand)
        if cover.weight != flow:
            raise RuntimeError(f"min-cut weight {cover.weight} differs from max-flow {flow}")
        for i, j in self.zero_cells:
            if i not in cover.rows and j not in cover.cols:
                raise RuntimeError(f"derived cover misses the zero at {(i, j)}")
        return cover


def reduce_matrix(
    cost: Sequence[Sequence[Numberish]],
) -> tuple[Matrix, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Subtract each row's minimum, then each column's minimum.

    Returns the reduced matrix (nonnegative, a zero in every row and column)
    together with the row and column offsets, which already form a dual-
    feasible starting certificate.
    """
    matrix = as_matrix(cost)
    alpha, beta = _start_duals(matrix)
    return _reduced(matrix, alpha, beta), alpha, beta


def _start_duals(
    cost: Sequence[Sequence[Number]],
) -> tuple[tuple[Number, ...], tuple[Number, ...]]:
    """The row minima alpha, then the column minima beta of cost - alpha,
    in the cost's own number type."""
    alpha = tuple(min(row) for row in cost)
    beta = tuple(min(c - a for c, a in zip(col, alpha)) for col in zip(*cost))
    return alpha, beta


def _reduced(
    cost: Sequence[Sequence[Number]], alpha: Sequence[Number], beta: Sequence[Number]
) -> Matrix:
    """The reduced matrix cost[i][j] - alpha[i] - beta[j]."""
    return tuple(
        tuple(c - a - b for c, b in zip(row, beta)) for row, a in zip(cost, alpha)
    )


def min_weight_zero_cover(
    reduced: Sequence[Sequence[Numberish]],
    supply: Iterable[Numberish],
    demand: Iterable[Numberish],
) -> tuple[LineCover, Fraction, dict[Cell, Fraction]]:
    """Minimum-weight line cover of the zeros, via max-flow/min-cut.

    Returns the cover, the max-flow value (equal to the cover weight), and the
    flow routed through each zero cell, which the extraction step reuses.
    The matrix and marginals go to `ZeroFlowNetwork` as given; it reads them.
    """
    network = ZeroFlowNetwork(reduced, supply, demand)
    return network.min_cut_cover(), network.max_flow(), network.zero_cell_flow()


def delta_adjust(
    reduced: Sequence[Sequence[Numberish]], cover: LineCover
) -> tuple[Matrix, Fraction]:
    """Subtract the minimum uncovered entry from all uncovered cells and add
    it to all doubly-covered cells; singly-covered cells are unchanged."""
    matrix = as_matrix(reduced)
    alpha, beta = [0] * len(matrix), [0] * len(matrix[0])
    _covered_lines(cover.rows, cover.cols, len(alpha), len(beta))
    delta = _delta_step(matrix, alpha, beta, cover)
    return _reduced(matrix, alpha, beta), delta


def _delta_step(
    cost: Sequence[Sequence[Number]],
    alpha: list[Number],
    beta: list[Number],
    cover: LineCover,
) -> Number:
    """One delta step on the duals, in place; returns delta.

    delta is the least reduced cost cost[i][j] - alpha[i] - beta[j] over
    uncovered rows x uncovered columns.  alpha rises by it on uncovered rows
    and beta falls by it on covered columns, so uncovered cells drop by delta
    and doubly-covered cells rise by it.  The caller reads the new zero
    cells off the duals, with `_reduced`.
    """
    rows = [i for i in range(len(alpha)) if i not in cover.rows]
    cols = [j for j in range(len(beta)) if j not in cover.cols]
    if not rows or not cols:
        raise ValueError("every cell is covered; nothing to adjust")
    col_beta = [(j, beta[j]) for j in cols]
    delta = min(min([cost[i][j] - b for j, b in col_beta]) - alpha[i] for i in rows)
    if delta <= 0:
        leak = next(
            ((i, j) for i in rows for j, b in col_beta if cost[i][j] - alpha[i] - b == 0),
            None,
        )
        if leak is not None:
            raise ValueError(f"cover leaves the zero at {leak} uncovered")
        raise ValueError(f"uncovered entry {delta} is negative")
    for i in rows:
        alpha[i] += delta
    for j in cover.cols:
        beta[j] -= delta
    return delta


def extract_plan_from_zeros(
    reduced: Sequence[Sequence[Numberish]],
    supply: Iterable[Numberish],
    demand: Iterable[Numberish],
    zero_flow: dict[Cell, Fraction],
) -> TransportPlan:
    """Turn a saturating zero-network flow into a plan.

    Requires the flow to meet every marginal on zero cells (the cover step
    guarantees that exactly when the final cover weight reaches the total).
    """
    instance = new_instance(reduced, supply, demand)
    plan = TransportPlan(zero_flow)
    feasible = is_feasible(instance, plan)
    if not feasible:
        kind, index, residual = feasible.first_violation
        raise ValueError(
            f"zero flow does not ship the balanced total {instance.total} "
            f"({kind} {index} has residual {residual})"
        )
    for (i, j), q in plan.entries.items():
        if instance.cost[i][j] != 0:
            raise ValueError(f"flow of {q} on nonzero cell ({i}, {j})")
    return plan


def _check_step(
    step: int,
    gain: int,
    expected: Fraction,
    flow: Fraction,
    side: set[int],
    network: ZeroFlowNetwork,
) -> None:
    """Raise unless the delta step of iteration `step` raised the scaled dual
    objective by exactly delta * (total - cover weight), all in scaled units,
    and then raised the max flow from `flow` or kept it and strictly grew the
    min cut's source side from `side`; the second rule bounds the loop."""
    if gain != expected:
        raise RuntimeError(
            f"internal error: iteration {step}: the delta step raised the dual "
            f"objective by {gain}, not delta * (total - cover weight) = {expected}"
        )
    after, reached = network.max_flow(), network.source_side()
    if after < flow or (after == flow and not side < reached):
        raise RuntimeError(
            f"internal error: iteration {step}: the delta step took the max flow "
            f"from {flow} to {after} and the min cut's source side from "
            f"{len(side)} to {len(reached)} nodes, without growing either"
        )


def solve_weighted_hungarian(
    instance: TransportInstance,
) -> tuple[TransportPlan, DualCertificate, SolveTrace]:
    """Solve a balanced transportation problem with rational marginals.

    Reduces the cost matrix, then repeats cover / delta step until the cover
    weight reaches the balanced total; the final flow is the plan and the
    duals are the certificate (checked before returning).  Every delta step
    is checked too, by `_check_step`, and a failed check raises RuntimeError.
    Costs are scaled to integers first (`trace.scale`) and the loop runs on
    plain ints, so the trace's matrices and deltas are `int`s.  Marginals
    are scaled alike, but only for the dual objective and the iteration
    bound: the network keeps them as given, so flows, covers, the plan and
    the certificate are Fractions in original units.

    One zero network serves the whole solve, its flow carried across delta
    steps.  Covers, flow values, deltas and matrices are those of a fresh
    network per iteration.  Tie policy: the plan is the zero-cell flow of
    this warm-started max flow, which is deterministic; where several optimal
    plans exist it may differ from the plan of a cold-start flow on the final
    matrix (`min_weight_zero_cover`), at equal cost.
    """
    supply, demand = instance.supply, instance.demand
    unit, (supplies, demands) = _scaled_to_integers((supply, demand), "supplies and demands")

    scale, scaled_cost = _scaled_to_integers(instance.cost)
    alpha, beta = map(list, _start_duals(scaled_cost))

    # Each delta step raises the flow by a multiple of 1 / unit, or keeps it
    # while the min cut's source side strictly grows, at most m + n times in
    # a row; so a correct loop ends within this many iterations.  Since
    # `_check_step` holds every step to that, the bound is a second guard.
    bound = (sum(supplies) + 1) * (instance.m + instance.n + 1)
    network = ZeroFlowNetwork(_reduced(scaled_cost, alpha, beta), supply, demand)
    objective = _dual_objective(alpha, beta, supplies, demands)
    iterations: list[HungarianIteration] = []
    while True:
        if len(iterations) == bound:
            raise RuntimeError(
                f"internal error: no optimum after {bound} iterations, the bound "
                "(total + 1)(m + n + 1) in scaled units"
            )
        cover, flow_value = network.min_cut_cover(), network.max_flow()
        duals = (scaled_cost, tuple(alpha), tuple(beta))
        if flow_value == instance.total:
            iterations.append(_recorded(duals, cover, flow_value, None))
            break
        side = network.source_side()
        step = len(iterations) + 1
        try:
            delta = _delta_step(scaled_cost, alpha, beta, cover)
        except ValueError as exc:
            raise RuntimeError(f"internal error: iteration {step}: {exc}") from exc
        iterations.append(_recorded(duals, cover, flow_value, delta))
        network.update_zeros(_reduced(scaled_cost, alpha, beta))
        before, objective = objective, _dual_objective(alpha, beta, supplies, demands)
        _check_step(
            step, objective - before, delta * (instance.total - cover.weight) * unit,
            flow_value, side, network,
        )

    # verify_optimal checks that the plan is feasible and, by its slack
    # check, that it ships only on zeros of the final matrix
    plan = TransportPlan(network.zero_cell_flow())
    certificate = DualCertificate(
        tuple(Fraction(a, scale) for a in alpha),
        tuple(Fraction(b, scale) for b in beta),
    )
    try:
        report = verify_optimal(instance, plan, certificate)
    except ValueError as exc:  # an infeasible plan is a fault of the solver, not the input
        raise RuntimeError(f"internal error: {exc}") from exc
    if not report:
        raise RuntimeError(f"internal error: certificate check failed: {report.violation}")
    trace = SolveTrace(scale, tuple(iterations), plan, certificate)
    return plan, certificate, trace


def expand_to_assignment(
    instance: TransportInstance, max_total: int = 64
) -> tuple[Matrix, tuple[int, ...], tuple[int, ...]]:
    """Blow a transportation instance up to an equivalent square assignment
    problem by replicating row i supply[i] times and column j demand[j] times,
    so the supplies and demands must be integers.

    Returns the expanded matrix plus the maps from expanded row/column index
    back to the original row/column.  This is a cross-validation device, so
    the order is capped (default 64) against accidental quadratic blowup.
    """
    unit, (supply, demand) = _scaled_to_integers(
        (instance.supply, instance.demand), "supplies and demands"
    )
    if unit != 1:
        raise ValueError(f"integer supplies and demands required, not units of 1/{unit}")
    order = sum(supply)
    if order > max_total:
        raise ValueError(f"expansion cap exceeded: balanced total {order} > {max_total}")
    row_map = tuple(i for i in range(instance.m) for _ in range(supply[i]))
    col_map = tuple(j for j in range(instance.n) for _ in range(demand[j]))
    expanded = tuple(
        tuple(instance.cost[i][j] for j in col_map) for i in row_map
    )
    return expanded, row_map, col_map


def solve_assignment(
    cost: Sequence[Sequence[Numberish]],
) -> tuple[tuple[int, ...], Fraction]:
    """Minimum-cost assignment on a square matrix: the unit-marginal case.

    Returns the permutation (row i is assigned column perm[i]) and its exact
    total cost.
    """
    matrix = as_matrix(cost)
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("assignment cost matrix must be square")
    unit = [1] * n
    instance = new_instance(matrix, unit, unit)
    plan, _, _ = solve_weighted_hungarian(instance)
    cells = plan.cells()
    if [i for i, _ in cells] != list(range(n)):
        raise RuntimeError(f"internal error: the plan is not a permutation: {plan!r}")
    return tuple(j for _, j in cells), plan_cost(instance, plan)


def aggregate_assignment_solution(
    permutation: Sequence[int],
    row_map: Sequence[int],
    col_map: Sequence[int],
) -> TransportPlan:
    """Collapse a solution of the expanded assignment problem back to a plan:
    quantity (i, j) counts the expanded rows of i assigned into columns of j."""
    if len(permutation) != len(row_map) or len(permutation) != len(col_map):
        raise ValueError("permutation and block maps must all have the expanded order")
    if set(permutation) != set(range(len(permutation))):
        raise ValueError(f"permutation is not a permutation of range({len(permutation)})")
    return TransportPlan(Counter((row_map[p], col_map[q]) for p, q in enumerate(permutation)))
