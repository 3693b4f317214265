"""The warm-started Hungarian loop against its cold-start reference.

`solve_weighted_hungarian` keeps one `ZeroFlowNetwork` per solve and carries
its flow across delta steps.  Its scale, every iteration (cost, duals, cover,
whose weight is the flow value, and delta), and its certificate must equal
those of `helpers.cold_start_solve`, which builds a fresh network at every
cover step; only the plan may differ, at equal cost.  `update_zeros` must leave a network
in the state of a fresh one on the new matrix, up to the choice among maximum
flows.
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import balanced_instances, cold_start_solve, composition
from transopt import (
    ZeroFlowNetwork,
    delta_adjust,
    new_instance,
    plan_cost,
    reduce_matrix,
    solve_weighted_hungarian,
    verify_optimal,
)
from transopt.core import as_matrix, as_vector


def seeded_instance(rng, m, n, total, cost_high, fractional=False):
    supply = composition(rng, total, m)
    demand = composition(rng, total, n)
    cost = [
        [
            Fraction(rng.randint(0, cost_high), rng.choice((1, 2, 3, 4)) if fractional else 1)
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    return new_instance(cost, supply, demand)


# (m, n, total, cost_high, fractional), largest 25x25
SEEDED_SHAPES = [
    (1, 6, 9, 50, False),
    (7, 1, 12, 50, True),
    (6, 9, 30, 1000, False),
    (12, 10, 50, 100, True),
    (16, 16, 160, 1000, False),
    (25, 25, 250, 9, False),
    (25, 25, 100, 40, True),
]


@st.composite
def mixed_instances(draw):
    """Balanced instances whose costs are integers or small fractions."""
    inst = draw(balanced_instances(max_dim=6, max_total=20, cost_low=-9, cost_high=30))
    cost = [[c / draw(st.sampled_from((1, 1, 2, 3, 4))) for c in row] for row in inst.cost]
    return new_instance(cost, inst.supply, inst.demand)


def side(iteration, m):
    """Source side of the iteration's cut: uncovered rows, covered columns."""
    return frozenset(range(m)) - iteration.cover.rows, iteration.cover.cols


def assert_matches_cold_start(instance):
    plan, certificate, trace = solve_weighted_hungarian(instance)
    reference_plan, reference_certificate, reference = cold_start_solve(instance)
    assert trace.scale == reference.scale
    assert trace.iterations == reference.iterations
    assert certificate == reference_certificate
    assert plan_cost(instance, plan) == plan_cost(instance, reference_plan)
    assert verify_optimal(instance, plan, certificate)
    return trace


def assert_termination_invariant(trace, m):
    """Each delta step raises the flow, or keeps it and strictly grows the
    source side, so the loop cannot cycle."""
    for before, after in zip(trace.iterations, trace.iterations[1:]):
        assert after.flow_value >= before.flow_value
        if after.flow_value == before.flow_value:
            (rows0, cols0), (rows1, cols1) = side(before, m), side(after, m)
            assert rows0 <= rows1 and cols0 <= cols1
            assert (rows0, cols0) != (rows1, cols1)


class TestAgainstColdStart:
    @given(mixed_instances())
    @settings(max_examples=80, deadline=None)
    def test_property(self, instance):
        trace = assert_matches_cold_start(instance)
        assert_termination_invariant(trace, instance.m)

    def test_seeded_up_to_25x25(self):
        rng = random.Random(4004)
        for shape in SEEDED_SHAPES:
            instance = seeded_instance(rng, *shape)
            trace = assert_matches_cold_start(instance)
            assert_termination_invariant(trace, instance.m)


def assert_same_as_fresh(network, matrix, supply, demand):
    fresh = ZeroFlowNetwork(matrix, supply, demand)
    flow_value = network.max_flow()
    assert flow_value == fresh.max_flow()
    assert network.source_side() == fresh.source_side()
    assert network.min_cut_cover() == fresh.min_cut_cover()
    flow = network.zero_cell_flow()
    assert set(flow) == {(i, j) for i, row in enumerate(matrix) for j, c in enumerate(row) if c == 0}
    assert all(q >= 0 for q in flow.values())
    for i, s in enumerate(supply):
        assert sum(q for (r, _), q in flow.items() if r == i) <= s
    for j, d in enumerate(demand):
        assert sum(q for (_, c), q in flow.items() if c == j) <= d
    assert sum(flow.values()) == flow_value
    # idempotent until the next update
    assert network.max_flow() == flow_value
    assert network.zero_cell_flow() == flow


class TestUpdateZeros:
    def test_along_delta_steps(self):
        rng = random.Random(2024)
        for _ in range(30):
            instance = seeded_instance(rng, rng.randint(1, 9), rng.randint(1, 9), 30, 60)
            supply, demand = instance.supply, instance.demand
            matrix, _, _ = reduce_matrix(instance.cost)
            network = ZeroFlowNetwork(matrix, supply, demand)
            while network.max_flow() < instance.total:
                matrix, _ = delta_adjust(matrix, network.min_cut_cover())
                network.update_zeros(matrix)
                assert_same_as_fresh(network, matrix, supply, demand)

    def test_arbitrary_zero_patterns(self, monkeypatch):
        # unrelated matrices drop loaded arcs too, which restarts the flow; a
        # network calls _clear_flow once while it is built, so each further
        # call is a restart.  The counter's keys keep every network alive, so
        # no two of them share an id.
        clears = Counter()
        clear = ZeroFlowNetwork._clear_flow

        def counting_clear(network):
            clears[network] += 1
            clear(network)

        monkeypatch.setattr(ZeroFlowNetwork, "_clear_flow", counting_clear)
        rng = random.Random(99)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            supply = as_vector(composition(rng, 12, m))
            demand = as_vector(composition(rng, 12, n))

            def pattern():
                return as_matrix([[rng.choice((0, 0, 1)) for _ in range(n)] for _ in range(m)])

            network = ZeroFlowNetwork(pattern(), supply, demand)
            for _ in range(4):
                if rng.random() < 0.7:
                    network.max_flow()
                matrix = pattern()
                network.update_zeros(matrix)
                assert_same_as_fresh(network, matrix, supply, demand)
        restarts = sum(clears.values()) - len(clears)
        assert restarts  # 104 of these 160 updates restart

