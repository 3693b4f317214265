"""The weighted König–Egerváry step against code transopt does not own.

`ZeroFlowNetwork` finds each cover step's max flow and reads the cover off
its canonical min cut, and the solver's own check compares two numbers from
that one flow.  Here each network is also built in networkx, on seeded zero
patterns with m, n <= 7 and integer marginals, and then moved through a
warm `_set_zeros` sequence.  After every step:

- `max_flow()` equals `networkx.maximum_flow_value`;
- `source_side()` equals the set of nodes that networkx's own residual graph
  reaches from the source (the source side of the canonical cut is the
  same for every maximum flow, so the sets must match, not just weigh the
  same);
- for m + n <= 12, the min-cut cover covers every zero and weighs the least
  of all row and column subsets that do, found by brute force: the weighted
  König–Egerváry equality itself.
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import composition
from transopt import ZeroFlowNetwork

nx = pytest.importorskip("networkx")


def zero_matrix(m, n, zeros):
    return tuple(
        tuple(Fraction(0 if (i, j) in zeros else 1) for j in range(n)) for i in range(m)
    )


def networkx_reference(m, n, zeros, supply, demand):
    """Max-flow value and the nodes reachable from the source in the
    residual graph of networkx's own maximum flow; node numbers as in
    ZeroFlowNetwork (source 0, rows 1..m, columns m+1..m+n, sink m+n+1)."""
    source, sink = 0, m + n + 1
    graph = nx.DiGraph()
    graph.add_nodes_from(range(m + n + 2))
    graph.add_edges_from((source, 1 + i, {"capacity": s}) for i, s in enumerate(supply))
    graph.add_edges_from((1 + m + j, sink, {"capacity": d}) for j, d in enumerate(demand))
    unbounded = sum(supply) + 1
    graph.add_edges_from((1 + i, 1 + m + j, {"capacity": unbounded}) for i, j in zeros)
    value = nx.maximum_flow_value(graph, source, sink)
    residual = nx.algorithms.flow.edmonds_karp(graph, source, sink)
    assert residual.graph["flow_value"] == value
    open_arcs = nx.DiGraph()
    open_arcs.add_nodes_from(residual)
    open_arcs.add_edges_from(
        (u, v) for u, v, arc in residual.edges(data=True) if arc["capacity"] > arc["flow"]
    )
    return value, {source} | nx.descendants(open_arcs, source)


def brute_force_cover_weight(m, n, zeros, supply, demand):
    """Least supply + demand weight over every (rows, columns) pair of
    subsets that leaves no zero uncovered."""
    best = None
    for rows in itertools.product((False, True), repeat=m):
        for cols in itertools.product((False, True), repeat=n):
            if all(rows[i] or cols[j] for i, j in zeros):
                weight = sum(s for s, r in zip(supply, rows) if r) + sum(
                    d for d, c in zip(demand, cols) if c
                )
                best = weight if best is None else min(best, weight)
    return best


def check(network, m, n, zeros, supply, demand):
    value, reached = networkx_reference(m, n, zeros, supply, demand)
    assert network.max_flow() == value
    assert network.source_side() == reached
    if m + n <= 12:
        cover = network.min_cut_cover()
        assert all(i in cover.rows or j in cover.cols for i, j in zeros)
        assert cover.weight == brute_force_cover_weight(m, n, zeros, supply, demand)


def test_flow_and_cut_match_networkx_and_brute_force():
    rng = random.Random(9)
    brute_forced = set()
    for _ in range(80):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        total = rng.randint(1, 12)
        supply, demand = composition(rng, total, m), composition(rng, total, n)
        density = rng.choice((0.2, 0.4, 0.7))
        cells = list(itertools.product(range(m), range(n)))
        zeros = {cell for cell in cells if rng.random() < density}
        network = ZeroFlowNetwork(
            zero_matrix(m, n, zeros), list(map(Fraction, supply)), list(map(Fraction, demand))
        )
        check(network, m, n, zeros, supply, demand)
        for _ in range(3):
            # a warm step: some zeros stop being zero, some cells become zero
            zeros = {cell for cell in cells if (cell in zeros) != (rng.random() < 0.25)}
            network._set_zeros(sorted(zeros))
            check(network, m, n, zeros, supply, demand)
        brute_forced.add(m + n <= 12)
    assert brute_forced == {False, True}
