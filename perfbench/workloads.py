"""Seeded instance pools for the transopt benchmark workloads.

Every instance is plain integer data (cost rows, supplies, demands) built
from `random.Random(seed)`, so the same seed gives byte-identical instance
files.  Nothing here imports transopt: the program under test only ever sees
the generated files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seed kept out of tuning runs; a performance claim must also hold on it.
HELD_OUT_SEED = 9001

# Instances per pool.  The run cycles through the pool, so a faster program
# repeats instances instead of running out of them.
POOL_SIZE = 24

# Sizes repeat in this order.  One size holds most instances, so the median
# time of each command kind falls inside one size's cluster, not between two.
MONGE_SIZES = (30, 40, 40)
MONGE_SHAPES = ("square", "abs")
# Every fourth Monge instance gets one perturbed cell that breaks the condition.
MONGE_PERTURB_EVERY = 4


@dataclass(frozen=True)
class Instance:
    """One transportation instance plus the CLI commands run on it.

    `commands` are (kind, argv-after-the-file) pairs; `kind` selects the
    output checker.
    """

    cost: tuple[tuple[int, ...], ...]
    supply: tuple[int, ...]
    demand: tuple[int, ...]
    commands: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def m(self) -> int:
        return len(self.supply)

    @property
    def n(self) -> int:
        return len(self.demand)

    def text(self) -> str:
        """The instance in the CLI's file format."""
        lines = [f"{self.m} {self.n}"]
        lines.extend(" ".join(map(str, row)) for row in self.cost)
        lines.append(" ".join(map(str, self.supply)))
        lines.append(" ".join(map(str, self.demand)))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    """A workload's `why` holds its generator parameters and the reason it
    was chosen, as BENCHMARK.json records it.  `block` instances run as a
    unit: a run ends only at a block boundary, so every run holds the same
    mix of instance sizes."""

    name: str
    why: str
    block: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hungarian_wide",
            "m=n=20, costs 0..1000, marginals cut 10m; solve --method hungarian "
            "--certificate: many delta iterations, each rebuilding the flow network "
            "and re-validating the matrix",
        ),
        Workload(
            "hungarian_narrow",
            "m=n=40, costs 0..9, marginals cut 10m; solve --method hungarian --trace "
            "--json --certificate: 1-5 iterations, cost in one big max flow; trace "
            "read, ~130 KB JSON rendered",
        ),
        Workload(
            "monge_nw",
            "m=n cycling 30,40,40, f(x-y), f square/abs, marginals cut 10m, every 4th "
            "Monge-broken; check-monge, solve --method nw --certificate: bypasses "
            "hungarian, exhaustive Monge scan",
            block=len(MONGE_SIZES),
        ),
    )
}


def random_cuts(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """A random composition of `total` into `parts` positive integers."""
    points = sorted(rng.sample(range(1, total), parts - 1))
    return tuple(b - a for a, b in zip([0, *points], [*points, total]))


def _marginals(rng: random.Random, m: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Supplies and demands: random positive cuts of a total of 10*m."""
    total = 10 * m
    return random_cuts(rng, total, m), random_cuts(rng, total, n)


def _hungarian_instance(
    rng: random.Random, size: int, max_cost: int, flags: tuple[str, ...], kind: str
) -> Instance:
    cost = tuple(tuple(rng.randint(0, max_cost) for _ in range(size)) for _ in range(size))
    supply, demand = _marginals(rng, size, size)
    argv = ("solve", "--method", "hungarian", *flags)
    return Instance(cost, supply, demand, ((kind, argv),))


def _shape(name: str, t: int) -> int:
    return t * t if name == "square" else abs(t)


def _monge_slack(cost, i: int, j: int, r: int, s: int) -> int:
    return cost[r][j] + cost[i][s] - cost[i][j] - cost[r][s]


def _monge_instance(rng: random.Random, index: int) -> Instance:
    size = MONGE_SIZES[index % len(MONGE_SIZES)]
    shape = MONGE_SHAPES[(index // len(MONGE_SIZES)) % len(MONGE_SHAPES)]
    x = sorted(rng.randint(0, 100) for _ in range(size))
    y = sorted(rng.randint(0, 100) for _ in range(size))
    rows = [[_shape(shape, a - b) for b in y] for a in x]
    if index % MONGE_PERTURB_EVERY == MONGE_PERTURB_EVERY - 1:
        # Lowering a last-column cell (p, n-1) can only raise a cross sum
        # cost[r][j] + cost[p][n-1] with i = p, so every violated quadruple
        # has i = p and the exhaustive scan reaches it near its end.  The
        # amount breaks at least the adjacent quadruple (p, n-2, p+1, n-1).
        p = size - 2 - rng.randrange(3)
        q = size - 1
        rows[p][q] -= _monge_slack(rows, p, q - 1, p + 1, q) + 1 + rng.randrange(5)
    supply, demand = _marginals(rng, size, size)
    commands = (
        ("check_monge", ("check-monge",)),
        ("nw_text", ("solve", "--method", "nw", "--certificate")),
    )
    return Instance(tuple(map(tuple, rows)), supply, demand, commands)


def make_pool(workload: str, seed: int, size: int = POOL_SIZE) -> list[Instance]:
    """The seeded instance pool of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hungarian_wide":
        return [
            _hungarian_instance(rng, 20, 1000, ("--certificate",), "hungarian_text")
            for _ in range(size)
        ]
    if workload == "hungarian_narrow":
        return [
            _hungarian_instance(
                rng, 40, 9, ("--trace", "--json", "--certificate"), "hungarian_json"
            )
            for _ in range(size)
        ]
    if workload == "monge_nw":
        return [_monge_instance(rng, k) for k in range(size)]
    raise ValueError(f"unknown workload {workload!r}")
