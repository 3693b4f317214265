"""Domain model for balanced transportation problems.

Every cost, supply, demand and flow quantity is a `fractions.Fraction`, so
feasibility and optimality checks are equality-exact: integer data stays
integer-valued through every operation and no tolerance ever enters a
comparison.  Floats are converted to their exact binary rational value on
input.

All types are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import chain, product
from operator import index, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Sized

Cell = tuple[int, int]
Numberish = int | float | str | Fraction

__all__ = [
    "BalanceError",
    "CyclicBasisError",
    "DegenerateBasisError",
    "DualCertificate",
    "FeasibilityReport",
    "OptimalityReport",
    "TransportInstance",
    "TransportPlan",
    "as_fraction",
    "compute_duals_from_plan",
    "dual_objective",
    "is_feasible",
    "new_instance",
    "plan_cost",
    "verify_optimal",
]


class BalanceError(ValueError):
    """Total supply differs from total demand."""

    def __init__(self, supply_total: Fraction, demand_total: Fraction) -> None:
        super().__init__(
            "unbalanced instance: total supply %s != total demand %s"
            % (supply_total, demand_total)
        )
        self.supply_total = supply_total
        self.demand_total = demand_total


class CyclicBasisError(ValueError):
    """The given basis cells contain a cycle, so they are not a basic solution."""


class DegenerateBasisError(ValueError):
    """The basis graph is disconnected; hint cells are needed to span it."""


def _value_type(cls: type) -> type:
    """Make `cls` an immutable record of the fields its class body annotates.

    Adds `__init__` (positional or keyword arguments, class-level values as
    defaults, then `__post_init__` where the class defines one), `__eq__` and
    `__hash__` over the tuple of fields (equal only to the same class),
    `Name(field=value, ...)` as `__repr__`, and `__setattr__`/`__delattr__`
    that raise AttributeError; a method the class body defines itself is
    kept instead of the generated one.  This stands in for
    `dataclass(frozen=True)`, whose import and generated code cost every CLI
    command several milliseconds.
    """
    fields = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    name = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, {len(args)} given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        for field in fields:
            if field in values:
                object.__setattr__(self, field, values[field])
            elif field in defaults:
                object.__setattr__(self, field, defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        if post_init is not None:
            self.__post_init__()

    def astuple(self):
        return tuple(getattr(self, field) for field in fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return astuple(self) == astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(astuple(self))

    def __repr__(self):
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls


class _Report:
    """Base of the `_value_type` reports, whose first field holds what a
    check found wrong (None or empty when nothing): a report is truthy
    exactly when that field is empty.  The verdict is derived, not given,
    so a bool in that field raises TypeError."""

    def __post_init__(self) -> None:
        if isinstance(getattr(self, self.__match_args__[0]), bool):
            raise TypeError(f"{type(self).__name__}() takes no verdict; pass what it found")

    def __bool__(self) -> bool:
        return not getattr(self, self.__match_args__[0])


# The exponent that ends a number as `Fraction` reads it: its sign and digits.
# Compiled on first use, since plain digit tokens never need it.
_EXPONENT = r"[eE]([-+]?)(\d[\d_]*)\s*\Z"

# A run of digits with single underscores between them, as `int` reads one.
_DIGIT_RUN = r"\d(?:_?\d)*"

# Longest token an error message quotes whole; a longer one is cut to this.
_QUOTED = 24


def _quoted(token: str) -> str:
    """`repr(token)`, or for a token longer than `_QUOTED` characters the repr
    of its start and its length, so an error message stays short."""
    if len(token) <= _QUOTED:
        return repr(token)
    return f"{token[:_QUOTED]!r}... ({len(token)} characters)"


def _digit_limit() -> int:
    """The most digits `str` prints of an int: `sys.get_int_max_str_digits()`,
    or its default where that is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _fits(n: int, limit: int) -> bool:
    """Whether abs(n) has at most `limit` decimal digits (8**limit < 10**limit)."""
    return n.bit_length() <= 3 * limit or abs(n) < 10**limit


def _read_number(token: str, limit: int) -> Fraction | None:
    """`Fraction(token)`, or None when the token has a run of more than
    `limit` digits or its reduced numerator or denominator would have more
    than `limit` digits.

    `int`, which `Fraction` reads each run with, refuses a longer run where
    the interpreter's limit is on and takes quadratic time over it where the
    limit is off, so such a run is refused before `Fraction` sees it, the
    same way under either setting.  Only an exponent can make `Fraction`
    compute a number with many more digits than the token has, so a large
    one is refused before `Fraction` reads the token too.
    """
    if len(token) > limit and any(
        len(run) - run.count("_") > limit for run in re.findall(_DIGIT_RUN, token)
    ):
        return None
    exponent = re.search(_EXPONENT, token)
    if exponent is not None:
        sign, digits = exponent.groups()
        start, end = exponent.span(2)
        # zeroing the exponent's digits keeps the token's form, so `Fraction`
        # reads the zeroed token exactly when it reads this one
        base = Fraction(token[:start] + re.sub(r"\d", "0", digits) + token[end:])
        if not base:
            return base
        # past this, 10**|power| alone gives the numerator (power > 0) or the
        # denominator (power < 0) more than `limit` digits, whatever the base
        bits = max(base.numerator.bit_length(), base.denominator.bit_length())
        if abs(int(sign + digits)) > limit + bits:
            return None
    number = Fraction(token)
    if _fits(number.numerator, limit) and _fits(number.denominator, limit):
        return number
    return None


def as_fraction(value: Numberish) -> Fraction:
    """Convert a number to an exact Fraction.

    Accepts ints, Fractions, finite floats (their exact binary value) and
    strings `Fraction` reads ("3", "-5/7", "1.5e3"); a string is refused with
    a ValueError quoting it (only its start, if it is long) when `Fraction`
    refuses it, or when a run of its digits, or its reduced numerator or
    denominator, would have more digits than `str` prints of an int
    (`sys.get_int_max_str_digits()`, or its default where that is off).
    """
    if type(value) is Fraction:  # the common case, before isinstance's ABCMeta check
        return value
    if isinstance(value, str):
        try:
            limit = _digit_limit()
            if value.isascii() and value.isdigit() and len(value) <= limit:
                return Fraction(int(value))
            number = _read_number(value, limit)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed number {_quoted(value)}") from None
        if number is None:
            raise ValueError(f"number {_quoted(value)} exceeds the limit of {limit} digits")
        return number
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"entries must be finite, got {value!r}")
        return Fraction(value)
    return Fraction(value)


def _as_index(value: object, error: type[Exception], what: str) -> int:
    """`value` as an int index.  A number is read by operator.index, which
    refuses 0.5 where int() would truncate it to 0; a string by int(), which
    truncates nothing.  A value that is not an integer raises `error`."""
    try:
        return int(value) if isinstance(value, str) else index(value)
    except (TypeError, ValueError):
        raise error(f"{what} {value!r} is not an integer") from None


def as_vector(values: Iterable[Numberish]) -> tuple[Fraction, ...]:
    return tuple(map(as_fraction, values))


def _check_shape(rows: Sequence[Sized], m: int | None = None, n: int | None = None) -> None:
    """The shape rule for every matrix, read from lengths only: a row and a
    column at least, rows of equal length and, given the marginals' lengths
    m and n, a row per supply and a column per demand (ValueError if not)."""
    if len(rows) == 0:
        raise ValueError("matrix must have at least one row")
    width = len(rows[0])
    if width == 0:
        raise ValueError("matrix must have at least one column")
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {k} has {len(row)} entries, expected {width}")
    if m is not None and len(rows) != m:
        raise ValueError(f"cost matrix has {len(rows)} rows but there are {m} supplies")
    if n is not None and width != n:
        raise ValueError(f"cost matrix has {width} columns but there are {n} demands")


def as_matrix(rows: Sequence[Sequence[Numberish]]) -> tuple[tuple[Fraction, ...], ...]:
    """Read a matrix into a tuple-of-tuples of Fractions and check its shape."""
    out = tuple(as_vector(row) for row in rows)
    _check_shape(out)
    return out


@_value_type
class TransportInstance:
    """A balanced transportation problem: cost matrix, supplies, demands.

    Reads its numbers with `as_matrix` and `as_vector` and checks them: the
    cost matrix has a row per supply and a column per demand, no marginal is
    negative, and total supply equals total demand (BalanceError
    otherwise).  `total`, that common value, is derived on construction; it
    is not a field, so it takes no part in equality, hash or repr.
    """

    cost: tuple[tuple[Fraction, ...], ...]
    supply: tuple[Fraction, ...]
    demand: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cost = as_matrix(self.cost)
        supply, demand = as_vector(self.supply), as_vector(self.demand)
        _check_shape(cost, len(supply), len(demand))
        _nonnegative_marginals(supply, demand)
        total = sum(supply, Fraction(0))
        total_demand = sum(demand, Fraction(0))
        if total != total_demand:
            raise BalanceError(total, total_demand)
        read = {"cost": cost, "supply": supply, "demand": demand, "total": total}
        for name, value in read.items():
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self.supply)

    @property
    def n(self) -> int:
        return len(self.demand)


@_value_type
class TransportPlan:
    """A sparse flow assignment; only strictly positive quantities are stored.
    Each cell may be given once: a repeated cell raises ValueError.

    `entries` is given as a mapping or as (cell, quantity) pairs and kept as
    a read-only mapping of cell to Fraction.
    """

    entries: Mapping[Cell, Fraction] = ()

    def __post_init__(self) -> None:
        entries = self.entries
        items = entries.items() if isinstance(entries, Mapping) else entries
        given: dict[Cell, Fraction] = {}
        for (i, j), quantity in items:
            q = as_fraction(quantity)
            if q < 0:
                raise ValueError(f"negative quantity {q} at cell ({i}, {j})")
            cell = (_as_index(i, ValueError, "cell index"),
                    _as_index(j, ValueError, "cell index"))
            if cell in given:
                raise ValueError(f"cell {cell} is given twice")
            given[cell] = q
        positive = {cell: q for cell, q in given.items() if q}
        object.__setattr__(self, "entries", MappingProxyType(positive))

    def quantity(self, i: int, j: int) -> Fraction:
        """The quantity shipped on cell (i, j): 0 off the support."""
        return self.entries.get((i, j), Fraction(0))

    def cells(self) -> list[Cell]:
        """Support cells in row-major order."""
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.entries.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"({i}, {j}): {q}" for (i, j), q in sorted(self.entries.items()))
        return f"TransportPlan({{{body}}})"

    def __reduce__(self) -> tuple:
        # a mappingproxy cannot be pickled or deep-copied: rebuild from a dict
        return type(self), (dict(self.entries),)


@_value_type
class DualCertificate:
    """Row potentials alpha and column potentials beta.

    Certifies optimality of a feasible plan when alpha[i] + beta[j] <= cost[i][j]
    holds everywhere, with equality on every cell carrying positive flow.
    """

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_vector(self.alpha))
        object.__setattr__(self, "beta", as_vector(self.beta))


@_value_type
class FeasibilityReport(_Report):
    """Outcome of a feasibility check: its violations, none for a feasible
    plan.  The report is truthy, and `feasible` is True, iff there are none.

    Violations are ("row"|"column", index, residual) triples, rows first,
    where residual = required total - shipped total.
    """

    violations: tuple[tuple[str, int, Fraction], ...] = ()
    feasible = property(_Report.__bool__)

    @property
    def first_violation(self) -> tuple[str, int, Fraction] | None:
        return self.violations[0] if self.violations else None


@_value_type
class OptimalityReport(_Report):
    """Outcome of a certificate check: the first violation, None when the
    certificate verifies.  The report is truthy, and `optimal` is True, iff
    there is none.

    A violation is ("dual"|"slack", i, j, alpha_i + beta_j, cost_ij): "dual"
    means the potentials exceed the cost at (i, j); "slack" means a cell with
    positive flow is not tight.
    """

    violation: tuple[str, int, int, Fraction, Fraction] | None = None
    optimal = property(_Report.__bool__)


def new_instance(
    cost: Sequence[Sequence[Numberish]],
    supply: Iterable[Numberish],
    demand: Iterable[Numberish],
) -> TransportInstance:
    """Validate and build a balanced transportation instance: the instance
    `TransportInstance(cost, supply, demand)`, which reads and checks."""
    return TransportInstance(cost, supply, demand)


def _check_plan_indices(instance: TransportInstance, plan: TransportPlan) -> None:
    for i, j in plan.entries:
        if not (0 <= i < instance.m and 0 <= j < instance.n):
            raise IndexError(
                f"plan cell ({i}, {j}) out of range for a "
                f"{instance.m}x{instance.n} instance"
            )


def _nonnegative_marginals(
    supply: Sequence[Fraction], demand: Sequence[Fraction]
) -> None:
    """Raise ValueError naming the first negative supply, else demand."""
    for label, values in (("supply", supply), ("demand", demand)):
        for k, v in enumerate(values):
            if v < 0:
                raise ValueError(f"{label} {k} is negative: {v}")


def _scaled_to_integers(
    matrix: Sequence[Sequence[Fraction]], what: str = "costs"
) -> tuple[int, list[list[int]]]:
    """Scale rational rows by the least common multiple of their
    denominators: (scale, the scaled rows as ints).

    The multiple is taken over the distinct denominators, and a ValueError
    naming `what` and the limit is raised as soon as it has more digits than
    `as_fraction` allows a number, so rows of many large coprime
    denominators are refused before their scale grows without bound.
    """
    limit = _digit_limit()
    scale = 1
    for denominator in {v.denominator for row in matrix for v in row}:
        scale = math.lcm(scale, denominator)
        if not _fits(scale, limit):
            raise ValueError(
                f"the common denominator of the {what} exceeds the limit of {limit} digits"
            )
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]


def _spanning_forest(
    m: int, n: int, cells: Iterable[Cell]
) -> tuple[list[Cell], Cell | None]:
    """The cells, taken in order, that join two components of the bipartite
    graph on m row and n column nodes (a spanning forest), and the first cell
    that closes a cycle, or None.  Once the forest spans, the next cell, if
    any, closes a cycle, so the scan reads no further."""
    parent = list(range(m + n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: list[Cell] = []
    closing: Cell | None = None
    cells = iter(cells)
    for i, j in cells:
        ri, cj = find(i), find(m + j)
        if ri != cj:
            parent[ri] = cj
            tree.append((i, j))
            if len(tree) == m + n - 1:
                return tree, closing or next(cells, None)
        elif closing is None:
            closing = (i, j)
    return tree, closing


def plan_cost(instance: TransportInstance, plan: TransportPlan) -> Fraction:
    """Total shipping cost of a plan: sum of cost[i][j] * quantity over its support."""
    _check_plan_indices(instance, plan)
    return sum(
        (instance.cost[i][j] * q for (i, j), q in plan.entries.items()), Fraction(0)
    )


def is_feasible(instance: TransportInstance, plan: TransportPlan) -> FeasibilityReport:
    """Check that row sums equal supplies and column sums equal demands exactly."""
    _check_plan_indices(instance, plan)
    row_sums = [Fraction(0)] * instance.m
    col_sums = [Fraction(0)] * instance.n
    for (i, j), q in plan.entries.items():
        row_sums[i] += q
        col_sums[j] += q
    violations: list[tuple[str, int, Fraction]] = []
    for i in range(instance.m):
        if row_sums[i] != instance.supply[i]:
            violations.append(("row", i, instance.supply[i] - row_sums[i]))
    for j in range(instance.n):
        if col_sums[j] != instance.demand[j]:
            violations.append(("column", j, instance.demand[j] - col_sums[j]))
    return FeasibilityReport(tuple(violations))


def verify_optimal(
    instance: TransportInstance, plan: TransportPlan, cert: DualCertificate
) -> OptimalityReport:
    """Check a dual certificate against a feasible plan.

    Returns a truthy report iff alpha[i] + beta[j] <= cost[i][j] holds on every
    cell with equality on the plan's support.  The first violated cell in
    row-major order is reported.  An infeasible plan is rejected outright.
    """
    if len(cert.alpha) != instance.m or len(cert.beta) != instance.n:
        raise ValueError(
            f"certificate shape ({len(cert.alpha)}, {len(cert.beta)}) does not "
            f"match instance ({instance.m}, {instance.n})"
        )
    feas = is_feasible(instance, plan)
    if not feas:
        kind, index, residual = feas.first_violation
        raise ValueError(
            f"plan is infeasible ({kind} {index} has residual {residual}); "
            "cannot certify optimality"
        )
    support = plan.entries
    for i in range(instance.m):
        for j in range(instance.n):
            lhs = cert.alpha[i] + cert.beta[j]
            cij = instance.cost[i][j]
            if lhs > cij:
                return OptimalityReport(("dual", i, j, lhs, cij))
            if lhs != cij and (i, j) in support:
                return OptimalityReport(("slack", i, j, lhs, cij))
    return OptimalityReport()


def dual_objective(instance: TransportInstance, cert: DualCertificate) -> Fraction:
    """Value of the dual objective: sum alpha_i * supply_i + sum beta_j * demand_j."""
    return _dual_objective(cert.alpha, cert.beta, instance.supply, instance.demand)


def _dual_objective(
    alpha: Sequence[int | Fraction], beta: Sequence[int | Fraction],
    supply: Sequence[int | Fraction], demand: Sequence[int | Fraction],
) -> int | Fraction:
    """sum alpha * supply + sum beta * demand, in the inputs' own number type
    (Fractions, or the Hungarian loop's scaled ints)."""
    return sum(map(mul, alpha, supply)) + sum(map(mul, beta, demand))


def compute_duals_from_plan(
    instance: TransportInstance,
    plan: TransportPlan,
    basis_hint: Iterable[Cell] | None = None,
) -> DualCertificate:
    """Solve the tight-cell equations alpha_i + beta_j = cost[i][j] along the basis.

    The basis is the plan's support plus any `basis_hint` cells (zero-flow basic
    cells for degenerate plans).  It must form a spanning tree of the bipartite
    row/column graph: a cycle raises CyclicBasisError, a disconnected graph
    raises DegenerateBasisError.  alpha[0] = 0 normalizes the one-dimensional
    null space.
    """
    _check_plan_indices(instance, plan)
    m, n = instance.m, instance.n
    cells = set(plan.entries)
    for hint in basis_hint or ():
        i, j = (_as_index(k, IndexError, "hint cell index") for k in hint)
        if not (0 <= i < m and 0 <= j < n):
            raise IndexError(f"hint cell ({i}, {j}) out of range")
        cells.add((i, j))

    tree, closing = _spanning_forest(m, n, sorted(cells))
    if closing is not None:
        i, j = closing
        raise CyclicBasisError(
            f"basis cells contain a cycle (closed at cell ({i}, {j})); "
            "not a basic solution"
        )
    components = m + n - len(tree)
    if components > 1:
        raise DegenerateBasisError(
            f"basis graph has {components} components; the plan is degenerate, "
            "pass basis_hint cells to connect all rows and columns"
        )

    adjacency: dict[int, list[tuple[int, Cell]]] = {x: [] for x in range(m + n)}
    for i, j in tree:
        adjacency[i].append((m + j, (i, j)))
        adjacency[m + j].append((i, (i, j)))

    potential: list[Fraction | None] = [None] * (m + n)
    potential[0] = Fraction(0)
    stack = [0]
    while stack:
        node = stack.pop()
        for neighbor, (i, j) in adjacency[node]:
            if potential[neighbor] is None:
                potential[neighbor] = instance.cost[i][j] - potential[node]
                stack.append(neighbor)

    alpha = tuple(potential[:m])
    beta = tuple(potential[m:])
    return DualCertificate(alpha, beta)


def _basis_duals(
    instance: TransportInstance, plan: TransportPlan
) -> tuple[DualCertificate, list[Cell]]:
    """Duals for a plan that came without any, and the zero-flow cells that
    complete its support to a basis: the lexicographically first cells that
    connect it, taken after the plan's own.  NW corner plans are basic; a
    plan whose support has a cycle raises CyclicBasisError."""
    m, n = instance.m, instance.n
    tree, _ = _spanning_forest(m, n, chain(plan.cells(), product(range(m), range(n))))
    hints = [cell for cell in tree if cell not in plan.entries]
    return compute_duals_from_plan(instance, plan, hints), hints
