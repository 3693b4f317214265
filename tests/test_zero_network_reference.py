"""The weighted König–Egerváry step against code transopt does not own.

`ZeroFlowNetwork` finds each cover step's max flow and reads the cover off
its canonical min cut, and the solver's own check compares two numbers from
that one flow.  Here each network is also built in networkx, on zero
patterns with m, n <= 7 and integer marginals (seeded, and drawn by
hypothesis), and then moved through a warm `update_zeros` sequence.  After
every step:

- `max_flow()` equals `networkx.maximum_flow_value`;
- `source_side()` equals the set of nodes that networkx's own residual graph
  reaches from the source (the source side of the canonical cut is the
  same for every maximum flow, so the sets must match, not just weigh the
  same);
- the min-cut cover covers every zero and weighs exactly the max flow, and
  for m + n <= 12 no row and column subset that covers every zero weighs
  less, found by brute force: the weighted König–Egerváry equality itself.

Every seeded network takes at least one step that only adds zeros, as a
delta step does, so its flow is carried over rather than restarted.

Every cover step of a solve is checked as well, on the instances of the
benchmark's Hungarian workloads: each iteration's flow value equals the
networkx max flow on that iteration's zeros and the cover's weight, and the
cover covers every zero.  Each of those solves clears its network's flow
only once, when the network is built, so the warm start never restarts; and
the plans and duals of the whole pool hash to a pinned digest, so a change
that keeps every cover but moves a plan or a dual shows.
"""

import hashlib
import itertools
import random
import runpy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from helpers import composition, zero_network_steps
from transopt import ZeroFlowNetwork, new_instance, solve_weighted_hungarian

nx = pytest.importorskip("networkx")

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def zero_matrix(m, n, zeros):
    return tuple(
        tuple(Fraction(0 if (i, j) in zeros else 1) for j in range(n)) for i in range(m)
    )


def zero_graph(m, n, zeros, supply, demand):
    """The zero network as a networkx graph; node numbers as in
    ZeroFlowNetwork (source 0, rows 1..m, columns m+1..m+n, sink m+n+1)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(m + n + 2))
    graph.add_edges_from((0, 1 + i, {"capacity": s}) for i, s in enumerate(supply))
    graph.add_edges_from((1 + m + j, m + n + 1, {"capacity": d}) for j, d in enumerate(demand))
    unbounded = sum(supply) + 1
    graph.add_edges_from((1 + i, 1 + m + j, {"capacity": unbounded}) for i, j in zeros)
    return graph


def networkx_reference(m, n, zeros, supply, demand):
    """Max-flow value and the nodes reachable from the source in the
    residual graph of networkx's own maximum flow."""
    source, sink = 0, m + n + 1
    graph = zero_graph(m, n, zeros, supply, demand)
    value = nx.maximum_flow_value(graph, source, sink)
    flows = nx.algorithms.flow.edmonds_karp(graph, source, sink)
    assert flows.graph["flow_value"] == value
    open_arcs = nx.DiGraph()
    open_arcs.add_nodes_from(flows)
    open_arcs.add_edges_from(
        (u, v) for u, v, arc in flows.edges(data=True) if arc["capacity"] > arc["flow"]
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
    cover = network.min_cut_cover()
    assert cover.weight == value
    assert all(i in cover.rows or j in cover.cols for i, j in zeros)
    if m + n <= 12:
        assert cover.weight == brute_force_cover_weight(m, n, zeros, supply, demand)


def check_steps(m, n, supply, demand, patterns):
    """Build the network on the first zero pattern, move it to each later
    one by a warm `update_zeros` step, and check it after every step."""
    network = ZeroFlowNetwork(
        zero_matrix(m, n, patterns[0]), list(map(Fraction, supply)), list(map(Fraction, demand))
    )
    check(network, m, n, patterns[0], supply, demand)
    for zeros in patterns[1:]:
        network.update_zeros(zero_matrix(m, n, zeros))
        check(network, m, n, zeros, supply, demand)


def test_flow_and_cut_match_networkx_and_brute_force():
    rng = random.Random(9)
    brute_forced = set()
    for _ in range(80):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        total = rng.randint(1, 12)
        supply, demand = composition(rng, total, m), composition(rng, total, n)
        density = rng.choice((0.2, 0.4, 0.7))
        cells = list(itertools.product(range(m), range(n)))
        patterns = [{cell for cell in cells if rng.random() < density}]
        # a delta step: the zeros stay and some cells become zero
        patterns.append(patterns[-1] | {cell for cell in cells if rng.random() < 0.25})
        for _ in range(2):
            # any step: some zeros stop being zero, some cells become zero
            patterns.append(
                {cell for cell in cells if (cell in patterns[-1]) != (rng.random() < 0.25)}
            )
        check_steps(m, n, supply, demand, patterns)
        brute_forced.add(m + n <= 12)
    assert brute_forced == {False, True}


@given(zero_network_steps())
@settings(max_examples=60, deadline=None)
def test_drawn_networks_match_networkx_and_brute_force(drawn):
    check_steps(*drawn)


# sha256 of the plans' sorted entries and the duals, solve by solve
POOL_DIGESTS = {
    "hungarian_wide": "1cf6fec6610baaf8cc7a90d40e9cb2f5ad4ebd7f10777c61bcfc72345cc5973f",
    "hungarian_narrow": "827daa60e698145c450a6b15098be221d28b229cc3aafe91c0bbd465b95fbc30",
}


@pytest.mark.parametrize("workload, count", [("hungarian_wide", None), ("hungarian_narrow", 3)])
def test_every_cover_step_of_the_benchmark_pools(workload, count, monkeypatch):
    clears = []
    clear_flow = ZeroFlowNetwork._clear_flow

    def counting_clear_flow(network):
        clears.append(network)
        clear_flow(network)

    monkeypatch.setattr(ZeroFlowNetwork, "_clear_flow", counting_clear_flow)
    digest = hashlib.sha256()
    # the pool generator is run from its source file, which leaves no
    # bytecode in the benchmark's directory
    pools = runpy.run_path(str(WORKLOADS))
    for pooled in pools["make_pool"](workload, pools["HELD_OUT_SEED"])[:count]:
        m, n, supply, demand = pooled.m, pooled.n, pooled.supply, pooled.demand
        clears.clear()
        instance = new_instance(pooled.cost, supply, demand)
        plan, certificate, trace = solve_weighted_hungarian(instance)
        assert len(clears) == 1
        digest.update(
            repr((sorted(plan.entries.items()), certificate.alpha, certificate.beta)).encode()
        )
        previous = None
        for it in trace.iterations:
            zeros = [(i, j) for i, row in enumerate(it.matrix) for j, v in enumerate(row) if v == 0]
            graph = zero_graph(m, n, zeros, supply, demand)
            value = nx.maximum_flow_value(
                graph, 0, m + n + 1, flow_func=nx.algorithms.flow.boykov_kolmogorov
            )
            assert it.flow_value == value == it.cover.weight
            assert all(i in it.cover.rows or j in it.cover.cols for i, j in zeros)
            if previous is not None:
                # the delta step's zero diff: new zeros only on cells the
                # earlier cover leaves uncovered, dropped ones only on cells
                # it covers twice
                cover, before = previous
                new, dropped = set(zeros) - before, before - set(zeros)
                assert all(i not in cover.rows and j not in cover.cols for i, j in new)
                assert all(i in cover.rows and j in cover.cols for i, j in dropped)
            previous = it.cover, set(zeros)
    assert digest.hexdigest() == POOL_DIGESTS[workload]
