"""Flood/echo aggregation: the engine execution and the analytic cost
model must agree (DESIGN.md substitution 1)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.net.flood import flood_echo_analytic, flood_echo_engine
from repro.net.metrics import CostLedger
from repro.net.topology import DynamicMultigraph
from tests.test_net.test_topology_caches import _apply_random_ops, _connect


def random_connected_graph(n: int, extra: int, seed: int) -> DynamicMultigraph:
    rng = random.Random(seed)
    g = DynamicMultigraph()
    for u in range(n):
        g.add_node(u)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[i], order[rng.randrange(i)])
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if g.multiplicity(u, v) == 0:
            g.add_edge(u, v)
    return g


class TestAgreement:
    @given(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_engine_matches_analytic(self, n, extra, seed, ops):
        g = random_connected_graph(n, extra, seed)
        value_of = lambda u: u + 1  # noqa: E731
        rng = random.Random(seed)
        # a flood on the freshly built graph, then one after churn: joins,
        # departures, multi-edges and self-loops have left stale rows
        for churned in (0, ops):
            _apply_random_ops(g, rng, churned)
            _connect(g, rng)
            origin = rng.choice(sorted(g.nodes()))
            ledger_engine = CostLedger()
            result_engine = flood_echo_engine(g, origin, value_of, ledger_engine)
            ledger_analytic = CostLedger()
            result_analytic = flood_echo_analytic(g, origin, value_of, ledger_analytic)

            assert result_engine == result_analytic == sum(u + 1 for u in g.nodes())
            assert ledger_engine.messages == ledger_analytic.messages
            assert ledger_engine.floods == ledger_analytic.floods == 1
            # rounds agree up to the +2 handshake slack of the closed form
            assert abs(ledger_engine.rounds - ledger_analytic.rounds) <= 3
            # the sum handed over instead of the per-node values: same costs
            ledger_sum = CostLedger()
            assert flood_echo_analytic(g, origin, result_engine, ledger_sum) == result_engine
            assert ledger_sum == ledger_analytic


class TestFloodBasics:
    def test_single_node(self):
        g = DynamicMultigraph()
        g.add_node(0)
        assert flood_echo_engine(g, 0, lambda u: 7) == 7
        assert flood_echo_analytic(g, 0, lambda u: 7) == 7

    def test_disconnected_graph_is_one_typed_error(self):
        g = random_connected_graph(6, 0, 2)
        g.add_node(99)
        ledger = CostLedger()
        with pytest.raises(TopologyError):
            flood_echo_analytic(g, 0, lambda u: 1, ledger)
        with pytest.raises(TopologyError):
            g.eccentricity(0)
        assert ledger == CostLedger()  # nothing charged for a flood that failed

    def test_counts_predicate_membership(self):
        g = random_connected_graph(10, 5, 3)
        member = {2, 4, 6}
        count = flood_echo_engine(g, 0, lambda u: 1 if u in member else 0)
        assert count == 3

    def test_messages_scale_with_edges(self):
        sparse = random_connected_graph(20, 0, 1)
        dense = random_connected_graph(20, 60, 1)
        l1, l2 = CostLedger(), CostLedger()
        flood_echo_analytic(sparse, 0, lambda u: 1, l1)
        flood_echo_analytic(dense, 0, lambda u: 1, l2)
        assert l2.messages > l1.messages
