"""Independent references and exact checks of transopt CLI output.

References are computed without transopt: optimal values with
`networkx.network_simplex` (exact on integer data), the North West corner
plan by its definition, and the first Monge witness in exhaustive scan order
with numpy on int64.  Each CLI output is parsed (text or JSON) and re-checked
with `fractions.Fraction`: plan feasibility, plan cost, and the printed dual
certificate.  Any mismatch is a failure; nothing is filtered.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import numpy as np

from workloads import Instance


class CheckError(Exception):
    """The CLI output is wrong or cannot be read."""


@dataclass(frozen=True)
class Reference:
    optimum: int
    # First violated quadruple (i, j, r, s) in exhaustive order with its
    # direct and cross sums, or None when the Monge condition holds.
    monge_witness: tuple[int, int, int, int, int, int] | None
    nw_plan: dict[tuple[int, int], int]


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one command.

    `certified` is None when the command prints no certificate, else the
    CLI's own verdict; `false_uncertified` marks an optimal plan whose
    certificate the CLI reports as not verified.
    """

    ok: bool
    reason: str | None = None
    certified: bool | None = None
    false_uncertified: bool = False


def optimal_value(inst: Instance) -> int:
    graph = nx.DiGraph()
    for i, a in enumerate(inst.supply):
        graph.add_node(("r", i), demand=-a)
    for j, b in enumerate(inst.demand):
        graph.add_node(("c", j), demand=b)
    for i, row in enumerate(inst.cost):
        for j, c in enumerate(row):
            graph.add_edge(("r", i), ("c", j), weight=c)
    value, _ = nx.network_simplex(graph)
    return value


def first_monge_witness(cost) -> tuple[int, int, int, int, int, int] | None:
    """First (i, j, r, s), i < r and j < s, in i, j, r, s order with
    cost[i][j] + cost[r][s] > cost[r][j] + cost[i][s]."""
    c = np.asarray(cost, dtype=np.int64)
    m, n = c.shape
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)  # [j, s] with s > j
    for i in range(m - 1):
        below = c[i + 1 :]  # rows r > i
        # excess[j, r, s] = c[i, j] + c[r, s] - c[r, j] - c[i, s]
        excess = (
            c[i][:, None, None]
            + below[None, :, :]
            - below.T[:, :, None]
            - c[i][None, None, :]
        )
        hits = np.argwhere((excess > 0) & upper[:, None, :])
        if len(hits):
            j, k, s = (int(v) for v in hits[0])  # argwhere is row-major
            r = i + 1 + k
            direct = int(c[i, j] + c[r, s])
            return i, j, r, s, direct, int(c[r, j] + c[i, s])
    return None


def north_west_plan(inst: Instance) -> dict[tuple[int, int], int]:
    supply, demand = list(inst.supply), list(inst.demand)
    plan: dict[tuple[int, int], int] = {}
    i = j = 0
    while i < inst.m and j < inst.n:
        q = min(supply[i], demand[j])
        if q:
            plan[(i, j)] = q
        supply[i] -= q
        demand[j] -= q
        if demand[j] == 0:
            j += 1
        else:
            i += 1
    return plan


def reference(inst: Instance) -> Reference:
    kinds = {kind for kind, _ in inst.commands}
    monge = "check_monge" in kinds
    return Reference(
        optimal_value(inst),
        first_monge_witness(inst.cost) if monge else None,
        north_west_plan(inst) if "nw_text" in kinds else {},
    )


# ---------------------------------------------------------------- exact re-checks


def _check_feasible(inst: Instance, plan: dict[tuple[int, int], Fraction]) -> None:
    rows = [Fraction(0)] * inst.m
    cols = [Fraction(0)] * inst.n
    for (i, j), q in plan.items():
        if not (0 <= i < inst.m and 0 <= j < inst.n):
            raise CheckError(f"plan cell ({i}, {j}) out of range")
        if q <= 0:
            raise CheckError(f"nonpositive quantity {q} at ({i}, {j})")
        rows[i] += q
        cols[j] += q
    for i, (got, want) in enumerate(zip(rows, inst.supply)):
        if got != want:
            raise CheckError(f"row {i} ships {got}, supply is {want}")
    for j, (got, want) in enumerate(zip(cols, inst.demand)):
        if got != want:
            raise CheckError(f"column {j} receives {got}, demand is {want}")


def plan_cost(inst: Instance, plan: dict[tuple[int, int], Fraction]) -> Fraction:
    return sum((inst.cost[i][j] * q for (i, j), q in plan.items()), Fraction(0))


def certificate_holds(
    inst: Instance,
    plan: dict[tuple[int, int], Fraction],
    alpha: list[Fraction],
    beta: list[Fraction],
) -> bool:
    """alpha_i + beta_j <= cost_ij everywhere, with equality on the support."""
    if len(alpha) != inst.m or len(beta) != inst.n:
        raise CheckError("certificate has the wrong shape")
    for i, row in enumerate(inst.cost):
        for j, c in enumerate(row):
            lhs = alpha[i] + beta[j]
            if lhs > c or (lhs != c and (i, j) in plan):
                return False
    return True


@dataclass(frozen=True)
class SolveOutput:
    plan: dict[tuple[int, int], Fraction]
    cost: Fraction
    alpha: list[Fraction] | None
    beta: list[Fraction] | None
    verified: bool | None


def _check_solve(
    inst: Instance, ref: Reference, out: SolveOutput, must_be_optimal: bool
) -> Verdict:
    _check_feasible(inst, out.plan)
    exact = plan_cost(inst, out.plan)
    if out.cost != exact:
        raise CheckError(f"printed cost {out.cost} but the plan costs {exact}")
    if must_be_optimal and exact != ref.optimum:
        raise CheckError(f"cost {exact} is not the optimum {ref.optimum}")
    if out.verified is None:
        return Verdict(True)
    holds = certificate_holds(inst, out.plan, out.alpha, out.beta)
    if holds != out.verified:
        raise CheckError(
            f"CLI says verified={out.verified} but the exact re-check gives {holds}"
        )
    return Verdict(
        True,
        certified=out.verified,
        false_uncertified=not out.verified and exact == ref.optimum,
    )


# ---------------------------------------------------------------- output parsers

_PLAN_LINE = re.compile(r"^  \((\d+), (\d+)\) = (\S+)$")


def _fraction(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"malformed number {token!r}") from None


def parse_solve_text(text: str) -> SolveOutput:
    lines = text.splitlines()
    try:
        start = lines.index("plan:")
    except ValueError:
        raise CheckError("no 'plan:' section") from None
    plan: dict[tuple[int, int], Fraction] = {}
    k = start + 1
    while k < len(lines) and (match := _PLAN_LINE.match(lines[k])):
        cell = (int(match[1]) - 1, int(match[2]) - 1)
        if cell in plan:
            raise CheckError(f"cell {cell} listed twice")
        plan[cell] = _fraction(match[3])
        k += 1
    if k >= len(lines) or not lines[k].startswith("total cost = "):
        raise CheckError("no 'total cost' line after the plan")
    cost = _fraction(lines[k].removeprefix("total cost = "))
    fields = {}
    for line in lines[k + 1 :]:
        key, sep, value = line.strip().partition(": ")
        if sep:
            fields[key] = value
    if "certificate" in fields:
        raise CheckError(f"certificate unavailable: {fields['certificate']}")
    if "verified optimal" not in fields:
        return SolveOutput(plan, cost, None, None, None)
    verdict = fields["verified optimal"]
    if verdict not in ("yes", "no") or "alpha" not in fields or "beta" not in fields:
        raise CheckError("malformed certificate section")
    alpha = [_fraction(t) for t in fields["alpha"].split()]
    beta = [_fraction(t) for t in fields["beta"].split()]
    return SolveOutput(plan, cost, alpha, beta, verdict == "yes")


def _check_trace(inst: Instance, doc: dict, out: SolveOutput) -> None:
    """The final reduced matrix is cost - alpha - beta, nonnegative and zero
    on the plan; flows never fall and end at the total; deltas are positive."""
    trace = doc["trace"]
    if not trace or doc["scale"] != 1:
        raise CheckError("missing trace or unexpected scale for integer costs")
    flows = [_fraction(it["flow"]) for it in trace]
    if trace[-1]["delta"] is not None or flows[-1] != sum(inst.supply):
        raise CheckError("the last trace iteration does not saturate the total")
    if flows != sorted(flows) or any(_fraction(it["delta"]) <= 0 for it in trace[:-1]):
        raise CheckError("trace flows fall or a delta is not positive")
    matrix = trace[-1]["matrix"]
    for i, row in enumerate(inst.cost):
        for j, c in enumerate(row):
            value = _fraction(matrix[i][j])
            if value != c - out.alpha[i] - out.beta[j]:
                raise CheckError(f"final reduced matrix disagrees with the duals at ({i}, {j})")
            if value < 0 or (value != 0 and (i, j) in out.plan):
                raise CheckError(f"final reduced matrix is wrong at ({i}, {j})")


def _check_solve_json(inst: Instance, ref: Reference, text: str) -> Verdict:
    try:
        doc = json.loads(text)
        plan = {
            (e["row"] - 1, e["col"] - 1): _fraction(e["quantity"]) for e in doc["plan"]
        }
        if len(plan) != len(doc["plan"]):
            raise CheckError("a plan cell is listed twice")
        echoed = doc["instance"]
        if (
            [[_fraction(v) for v in row] for row in echoed["cost"]] != [list(r) for r in inst.cost]
            or [_fraction(v) for v in echoed["supply"]] != list(inst.supply)
            or [_fraction(v) for v in echoed["demand"]] != list(inst.demand)
        ):
            raise CheckError("echoed instance differs from the input file")
        cert = doc["certificate"]
        if not cert["available"]:
            raise CheckError(f"certificate unavailable: {cert.get('reason')}")
        out = SolveOutput(
            plan,
            _fraction(doc["cost"]),
            [_fraction(a) for a in cert["alpha"]],
            [_fraction(b) for b in cert["beta"]],
            cert["verified_optimal"] is True,
        )
        verdict = _check_solve(inst, ref, out, True)
        _check_trace(inst, doc, out)
        return verdict
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"malformed JSON output: {exc!r}") from None


_MONGE_VIOLATED = re.compile(
    r"^MONGE: VIOLATED at \((\d+), (\d+), (\d+), (\d+)\): "
    r"cost\[\1\]\[\2\] \+ cost\[\3\]\[\4\] = (\S+) > (\S+) = "
    r"cost\[\3\]\[\2\] \+ cost\[\1\]\[\4\]$"
)


def _check_monge_output(ref: Reference, code: int, text: str) -> Verdict:
    lines = text.splitlines()
    if ref.monge_witness is None:
        if code != 0 or lines != ["MONGE: HOLDS"]:
            raise CheckError(f"expected MONGE: HOLDS with exit 0, got exit {code}")
        return Verdict(True)
    match = _MONGE_VIOLATED.match(lines[0]) if len(lines) == 1 else None
    if code != 1 or match is None:
        raise CheckError(f"expected one MONGE: VIOLATED line with exit 1, got exit {code}")
    i, j, r, s = (int(match[k]) - 1 for k in range(1, 5))
    got = (i, j, r, s, _fraction(match[5]), _fraction(match[6]))
    if got != ref.monge_witness:
        raise CheckError(f"witness {got} differs from the reference {ref.monge_witness}")
    return Verdict(True)


def check_output(inst: Instance, ref: Reference, kind: str, code: int, text: str) -> Verdict:
    """Check one command's exit code and standard output."""
    try:
        if kind == "check_monge":
            return _check_monge_output(ref, code, text)
        if code != 0:
            raise CheckError(f"exit code {code}")
        if kind == "hungarian_text":
            return _check_solve(inst, ref, parse_solve_text(text), True)
        if kind == "hungarian_json":
            return _check_solve_json(inst, ref, text)
        if kind == "nw_text":
            out = parse_solve_text(text)
            if out.plan != ref.nw_plan:
                raise CheckError("plan is not the North West corner plan")
            return _check_solve(inst, ref, out, ref.monge_witness is None)
        raise CheckError(f"unknown command kind {kind!r}")
    except CheckError as exc:
        return Verdict(False, str(exc))
