"""Command-line front end: instance files in, plans / traces / JSON out.

Instance file format (UTF-8, whitespace-separated, '#' comment lines
allowed anywhere, numbers as `core.as_fraction` reads them, e.g. 5/2):

    m n
    <m rows of n costs>
    <m supplies>
    <n demands>

Exit codes: 0 success (for check-monge: condition holds), 1 check-monge
violation, 2 input error (unreadable file, parse error, invalid data, or a
result with a number of more digits than `str` prints), 3 method
precondition failure (e.g. the weighted Hungarian method on
non-integer marginals, or an oracle size guard).

All human-facing indices are 1-based.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    DualCertificate,
    OptimalityReport,
    TransportInstance,
    TransportPlan,
    _basis_duals,
    _digit_limit,
    _quoted,
    as_fraction,
    new_instance,
    plan_cost,
    verify_optimal,
)
from .hungarian import SolveTrace, solve_weighted_hungarian
from .nwcorner import (
    check_monge,
    convex_diff_cost,
    factored_cost,
    north_west_corner,
    problem_p_instance,
    ProblemPSpec,
    sum_cost,
)
from .oracle import enumerate_optimum

__all__ = [
    "ParseError",
    "format_rational",
    "main",
    "parse_instance",
    "serialize_instance",
]

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3

# Largest cost matrix `generate` builds or `parse_instance` reads, checked
# before any matrix is built or any line after the header is split: the
# matrix is dense, so m * n bounds its memory.
MAX_CELLS = 1_000_000

_TOKEN = re.compile(r"\S+")

COST_SHAPES: dict[str, Callable[[Fraction], Fraction]] = {
    "square": lambda t: t * t,
    "abs": lambda t: abs(t),
    "relu": lambda t: max(Fraction(0), t),
}


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based line and column."""

    def __init__(self, line: int, column: int, reason: str) -> None:
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class CommandError(Exception):
    """Abort the current command with a message and exit status."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def format_rational(value: Fraction) -> str:
    """Render exactly: integers without denominator, otherwise p/q."""
    return str(value)


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Non-comment, non-blank lines as (lineno, line), numbered as by
    `str.splitlines` and found as they are read; `_parse_row` splits each."""
    pieces = re.finditer(r".*\n?", text)  # each ends at a "\n", so "\r\n" stays whole
    lines = (raw for piece in pieces for raw in piece[0].splitlines())
    for lineno, raw in enumerate(lines, start=1):
        if raw.lstrip()[:1] not in ("", "#"):
            yield lineno, raw


def _columns(raw: str) -> list[int]:
    """1-based column of each token of a line; computed only to report an error."""
    return [match.start() + 1 for match in _TOKEN.finditer(raw)]


def _parse_row(
    line: tuple[int, str], expected: int, label: str
) -> list[Fraction]:
    lineno, raw = line
    tokens = raw.split()
    if len(tokens) != expected:
        columns = _columns(raw)
        column = columns[expected] if len(tokens) > expected else (
            columns[-1] + len(tokens[-1])
        )
        raise ParseError(
            lineno, column, f"{label} has {len(tokens)} fields, expected {expected}"
        )
    values = []
    try:
        for token in tokens:
            values.append(as_fraction(token))
    except ValueError as exc:
        raise ParseError(lineno, _columns(raw)[len(values)], str(exc)) from None
    return values


def parse_instance(text: str) -> TransportInstance:
    """Parse instance text; raises ParseError naming line and column, or a
    ValueError (e.g. imbalance with both totals) from validation."""
    lines = _data_lines(text)
    lineno, raw = first = next(lines, (1, ""))  # a data line is never blank
    if not raw:
        raise ParseError(1, 1, "empty instance: expected an 'm n' header line")
    header = _parse_row(first, 2, "header line")
    for k, value in enumerate(header):
        if value.denominator != 1 or value < 1:
            reason = f"dimension must be a positive integer, got {_quoted(raw.split()[k])}"
            raise ParseError(lineno, _columns(raw)[k], reason)
    m, n = int(header[0]), int(header[1])
    # the m cost rows, the supply line and the demand line; over the cap they
    # are only counted, so that the count's messages come first
    keep = m * n <= MAX_CELLS
    rows = []
    count, last = 0, lineno
    for line in lines:
        if count == m + 2:
            raise ParseError(line[0], 1, "unexpected extra data after the demand line")
        count, last = count + 1, line[0]
        if keep:
            rows.append(line)
    if count < m + 2:
        raise ParseError(
            last,
            1,
            f"incomplete instance: expected {m} cost rows, a supply line and a "
            f"demand line after the header",
        )
    if not keep:
        raise ParseError(
            lineno, 1, f"instance {m} x {n} has {m * n} cells, over the limit of {MAX_CELLS}"
        )
    cost = [_parse_row(rows[k], n, f"cost row {k + 1}") for k in range(m)]
    supply = _parse_row(rows[m], m, "supply line")
    demand = _parse_row(rows[m + 1], n, "demand line")
    return new_instance(cost, supply, demand)


def serialize_instance(instance: TransportInstance) -> str:
    """Canonical instance text: single spaces, no comments, trailing newline."""
    lines = [f"{instance.m} {instance.n}"]
    for row in instance.cost:
        lines.append(" ".join(map(str, row)))
    lines.append(" ".join(map(str, instance.supply)))
    lines.append(" ".join(map(str, instance.demand)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- output


def _certificate_json(
    instance: TransportInstance, plan: TransportPlan, cert: DualCertificate | None
) -> dict:
    """The certificate block: the solver's duals, which
    `solve_weighted_hungarian` verified before returning, or, for a plan that
    came without any, duals from its basis (`core._basis_duals`), checked here.
    """
    hints: list[tuple[int, int]] = []
    report = OptimalityReport(True)
    if cert is None:
        cert, hints = _basis_duals(instance, plan)
        report = verify_optimal(instance, plan, cert)
    doc = {
        "available": True,
        "alpha": [str(v) for v in cert.alpha],
        "beta": [str(v) for v in cert.beta],
        "verified_optimal": report.optimal,
    }
    if hints:
        doc["basis_hints"] = [[i + 1, j + 1] for i, j in hints]
    if not report.optimal:
        kind, i, j, lhs, cij = report.violation
        doc["first_violation"] = {
            "kind": kind,
            "row": i + 1,
            "col": j + 1,
            "alpha_plus_beta": str(lhs),
            "cost": str(cij),
        }
    return doc


def _solve_document(
    args: argparse.Namespace,
    instance: TransportInstance,
    plan: TransportPlan,
    trace: SolveTrace | None,
    cert: DualCertificate | None,
) -> dict:
    """The result of `solve` as `--json` prints it (docs/result_schema.json):
    rationals are strings and indices 1-based.  The instance block is built
    for `--json` only; the text report does not show it."""
    doc = {
        "method": args.method,
        "plan": [
            {"row": i + 1, "col": j + 1, "quantity": str(plan.quantity(i, j))}
            for i, j in plan.cells()
        ],
        "cost": str(plan_cost(instance, plan)),
    }
    if args.json:
        doc["instance"] = {
            "m": instance.m,
            "n": instance.n,
            "total": str(instance.total),
            "cost": [[str(v) for v in row] for row in instance.cost],
            "supply": [str(v) for v in instance.supply],
            "demand": [str(v) for v in instance.demand],
        }
    if args.trace and trace is not None:
        doc["scale"] = trace.scale
        doc["trace"] = [
            {
                "matrix": [[str(v) for v in row] for row in it.matrix],
                "cover": {
                    "rows": [i + 1 for i in sorted(it.cover.rows)],
                    "cols": [j + 1 for j in sorted(it.cover.cols)],
                    "weight": str(it.cover.weight),
                },
                "flow": str(it.flow_value),
                "delta": None if it.delta is None else str(it.delta),
            }
            for it in trace.iterations
        ]
    if args.certificate:
        doc["certificate"] = _certificate_json(instance, plan, cert)
    return doc


def _text(doc: dict) -> str:
    """The text report of `solve`, rendered from its result document."""
    lines = [f"method: {doc['method']}"]
    if "trace" in doc:
        lines.append("trace:")
        if doc["scale"] != 1:
            lines.append(f"  scale: {doc['scale']}")
        for k, it in enumerate(doc["trace"], start=1):
            width = max(len(v) for row in it["matrix"] for v in row)
            lines.append(f"  iteration {k}:")
            lines.append("    reduced matrix:")
            lines.extend(
                "      " + " ".join(v.rjust(width) for v in row) for row in it["matrix"]
            )
            rows, cols = (
                "{" + ", ".join(map(str, it["cover"][key])) + "}" for key in ("rows", "cols")
            )
            lines.append(f"    cover: rows {rows} cols {cols} weight {it['cover']['weight']}")
            lines.append(f"    delta: {it['delta'] or 'none'}")
    lines.append("plan:")
    if not doc["plan"]:
        lines.append("  (empty)")
    lines.extend(f"  ({e['row']}, {e['col']}) = {e['quantity']}" for e in doc["plan"])
    lines.append(f"total cost = {doc['cost']}")
    cert = doc.get("certificate")
    if cert is not None:
        lines.append("certificate:")
        lines.append("  alpha: " + " ".join(cert["alpha"]))
        lines.append("  beta: " + " ".join(cert["beta"]))
        if "basis_hints" in cert:
            cells = (f"({i}, {j})" for i, j in cert["basis_hints"])
            lines.append("  basis hints: " + " ".join(cells))
        lines.append(f"  verified optimal: {'yes' if cert['verified_optimal'] else 'no'}")
        if "first_violation" in cert:
            v = cert["first_violation"]
            relation = ">" if v["kind"] == "dual" else "!="
            lines.append(
                f"  first violation: {v['kind']} at ({v['row']}, {v['col']}): "
                f"alpha + beta = {v['alpha_plus_beta']} {relation} cost = {v['cost']}"
            )
            lines.append("  note: plan is not certified optimal")
    return "\n".join(lines)


# ---------------------------------------------------------------- commands


def _load_instance(path: str) -> TransportInstance:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise CommandError(EXIT_INPUT_ERROR, f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CommandError(EXIT_INPUT_ERROR, f"cannot read {path}: {exc}") from exc
    try:
        return parse_instance(text)
    except ValueError as exc:  # ParseError, BalanceError, validation errors
        raise CommandError(EXIT_INPUT_ERROR, f"{path}: {exc}") from exc


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.file)
    trace: SolveTrace | None = None
    cert: DualCertificate | None = None
    try:
        if args.method == "hungarian":
            plan, cert, trace = solve_weighted_hungarian(instance)
        elif args.method == "nw":
            plan = north_west_corner(instance)
        else:  # oracle
            plan = enumerate_optimum(instance).plan
    except ValueError as exc:  # size guards and method preconditions
        raise CommandError(EXIT_PRECONDITION, f"method {args.method}: {exc}") from exc
    doc = _solve_document(args, instance, plan, trace, cert)
    if args.json:
        import json  # imported here so that the other commands do not pay for it

        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(_text(doc))
    return EXIT_OK


def _cmd_check_monge(args: argparse.Namespace) -> int:
    instance = _load_instance(args.file)
    try:
        result = check_monge(instance.cost, mode=args.mode)
    except ValueError as exc:  # a common denominator over the digit limit
        raise CommandError(EXIT_INPUT_ERROR, f"{args.file}: {exc}") from exc
    if result.holds:
        print("MONGE: HOLDS")
        return EXIT_OK
    i, j, r, s = result.witness
    print(
        f"MONGE: VIOLATED at ({i + 1}, {j + 1}, {r + 1}, {s + 1}): "
        f"cost[{i + 1}][{j + 1}] + cost[{r + 1}][{s + 1}] = "
        f"{result.direct_sum!s} > {result.cross_sum!s} = "
        f"cost[{r + 1}][{j + 1}] + cost[{i + 1}][{s + 1}]"
    )
    return EXIT_VIOLATED


def _rationals(values: Iterable[str], label: str) -> list[Fraction]:
    try:
        return [as_fraction(token) for token in values]
    except ValueError as exc:
        raise CommandError(EXIT_INPUT_ERROR, f"{exc} in {label}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CommandError(EXIT_INPUT_ERROR, message)


def _survey_size(token: str) -> int:
    try:
        size = int(token)
    except ValueError:
        size = 0
    _require(size >= 1, f"survey sizes must be positive integers, got {_quoted(token)}")
    return size


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = args.kind
    x = _rationals(args.x or [], "--x")
    y = _rationals(args.y or [], "--y")
    supply = _rationals(args.supply or [], "--supply")
    demand = _rationals(args.demand or [], "--demand")

    if kind == "survey":
        _require(len(args.params) == 2, "survey takes exactly two sizes: m n")
        m, n = (_survey_size(p) for p in args.params)
    else:
        _require(not args.params, f"{kind} takes no positional parameters")
        _require(bool(x) and bool(y), f"{kind} requires --x and --y")
        m, n = len(x), len(y)
    _require(
        m * n <= MAX_CELLS, f"{kind} {m} x {n} has {m * n} cells, over the limit of {MAX_CELLS}"
    )
    try:
        if kind == "survey":
            cost = [[abs(i - j) for j in range(n)] for i in range(m)]
            supply = supply or [Fraction(1)] * m
            demand = demand or [Fraction(1)] * n
            instance = new_instance(cost, supply, demand)
        elif kind == "problemp":
            p_row = _rationals(args.p_row or [], "--p-row")
            p_col = _rationals(args.p_col or [], "--p-col")
            _require(bool(p_row) and bool(p_col), "problemp requires --p-row and --p-col")
            spec = ProblemPSpec(
                tuple(x), tuple(y), tuple(p_row), tuple(p_col), COST_SHAPES[args.f]
            )
            instance = problem_p_instance(spec)
        else:
            _require(bool(supply) and bool(demand), f"{kind} requires --supply and --demand")
            if kind == "factored":
                # one stable line per warning, without Python's source location
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    cost = factored_cost(x, y)
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
            elif kind == "sum":
                cost = sum_cost(x, y)
            else:
                cost = convex_diff_cost(x, y, COST_SHAPES[args.f])
            instance = new_instance(cost, supply, demand)
    except ValueError as exc:
        raise CommandError(EXIT_INPUT_ERROR, str(exc)) from exc

    sys.stdout.write(serialize_instance(instance))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transopt",
        description="Exact solver for balanced transportation and assignment problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("file", help="instance file path")
    solve.add_argument(
        "--method",
        required=True,
        choices=("nw", "hungarian", "oracle"),
        help="nw: North West corner rule; hungarian: weighted Hungarian method; "
        "oracle: brute-force enumeration (tiny instances only)",
    )
    solve.add_argument(
        "--trace", action="store_true", help="show each iteration (--method hungarian only)"
    )
    solve.add_argument("--json", action="store_true", help="machine-readable output")
    solve.add_argument(
        "--certificate", action="store_true", help="show duals and verification verdict"
    )
    solve.set_defaults(handler=_cmd_solve)

    monge = sub.add_parser("check-monge", help="test the Monge condition of a cost matrix")
    monge.add_argument("file", help="instance file path")
    monge.add_argument(
        "--mode",
        choices=("adjacent", "exhaustive"),
        default="exhaustive",
        help="exhaustive (default): report the first violated quadruple "
        "(i, j, r, s) in scan order; adjacent: test consecutive rows and "
        "columns only; both give the same verdict in O(mn)",
    )
    monge.set_defaults(handler=_cmd_check_monge)

    generate = sub.add_parser("generate", help="emit a structured instance file")
    # argparse takes a token for a negative number, not an option, only in the
    # forms -5 and -0.5; a dash before a digit or a point and a digit starts
    # every negative number `as_fraction` reads (-1/2, -1e1) and no option
    generate._negative_number_matcher = re.compile(r"-\.?\d")
    generate.add_argument(
        "kind", choices=("survey", "factored", "sum", "convexdiff", "problemp")
    )
    generate.add_argument("params", nargs="*", help="survey: m n")
    generate.add_argument("--x", nargs="+", metavar="V")
    generate.add_argument("--y", nargs="+", metavar="V")
    generate.add_argument("--supply", nargs="+", metavar="V")
    generate.add_argument("--demand", nargs="+", metavar="V")
    generate.add_argument("--p-row", dest="p_row", nargs="+", metavar="P")
    generate.add_argument("--p-col", dest="p_col", nargs="+", metavar="P")
    generate.add_argument("--f", choices=sorted(COST_SHAPES), default="square")
    generate.set_defaults(handler=_cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a result (a sum, a product, a dual) is held to the bound of its inputs,
    # even where the interpreter's limit is off; each command builds its whole
    # output before writing any, so nothing is printed when str() refuses one
    saved, limit = sys.get_int_max_str_digits(), _digit_limit()
    sys.set_int_max_str_digits(limit)
    try:
        return args.handler(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        where = f"{args.file}: " if "file" in args else ""
        print(
            f"error: {where}a number in the result exceeds the limit of {limit} digits",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    finally:
        sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
