"""Overlay edge synchronization: the real multigraph must equal the image
of the live virtual edges at all times (invariants I3/I4)."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import LayerMapping
from repro.core.overlay import Overlay
from repro.errors import MappingError
from repro.net.topology import DynamicMultigraph
from repro.types import Layer
from repro.virtual.pcycle import PCycle


def build_overlay(p: int = 23, m: int = 6) -> Overlay:
    graph = DynamicMultigraph()
    for u in range(m):
        graph.add_node(u)
    overlay = Overlay(graph, LayerMapping(PCycle(p), low_threshold=16, own=graph.own))
    for z in range(p):
        overlay.activate(Layer.OLD, z, min(z * m // p, m - 1))
    return overlay


def assert_faithful(overlay: Overlay) -> None:
    expected = overlay.rebuild_expected_graph()
    seen = set()
    for u in overlay.graph.nodes():
        for v, mult in overlay.graph.neighbor_multiplicities(u):
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            assert expected.get(key, 0) == mult, key
    for key, mult in expected.items():
        assert key in seen or mult == 0, key
    for u in overlay.graph.nodes():
        assert overlay.graph.degree(u) == overlay.expected_degree(u)


class TestSteadyState:
    def test_full_activation_faithful(self):
        overlay = build_overlay()
        assert_faithful(overlay)
        # degree = 3 * load in steady state
        for u in overlay.graph.nodes():
            assert overlay.graph.degree(u) == 3 * overlay.old.load(u)

    def test_move_keeps_faithfulness(self):
        overlay = build_overlay()
        rng = random.Random(0)
        for _ in range(60):
            z = rng.randrange(23)
            target = rng.randrange(6)
            overlay.move(Layer.OLD, z, target)
        # some node may have lost everything: only edge bookkeeping checked
        assert_faithful(overlay)

    def test_move_returns_previous_host(self):
        overlay = build_overlay()
        prev = overlay.old.host_of(0)
        assert overlay.move(Layer.OLD, 0, 5) == prev
        assert overlay.old.host_of(0) == 5

    def test_deactivate_clears_edges(self):
        overlay = build_overlay()
        node = overlay.old.host_of(7)
        overlay.deactivate(Layer.OLD, 7)
        assert not overlay.old.is_active(7)
        assert_faithful(overlay)

    def test_total_load(self):
        overlay = build_overlay()
        assert sum(overlay.total_load(u) for u in overlay.graph.nodes()) == 23


class TestStaggeredLayers:
    def test_two_layers_with_intermediates(self):
        overlay = build_overlay()
        new = overlay.open_new_layer(PCycle(97))
        overlay.activate(Layer.NEW, 0, 0)
        overlay.activate(Layer.NEW, 1, 1)
        overlay.add_intermediate(0, 10)
        overlay.add_intermediate(1, 10)
        assert overlay.intermediate_count() == 2
        assert_faithful(overlay)
        # moving the anchor old vertex carries the intermediate edges
        overlay.move(Layer.OLD, 10, 4)
        assert_faithful(overlay)
        overlay.move(Layer.NEW, 0, 3)
        assert_faithful(overlay)
        overlay.remove_intermediate(0, 10)
        overlay.remove_intermediate(1, 10)
        assert overlay.intermediate_count() == 0
        assert_faithful(overlay)

    def test_deactivate_with_intermediates_rejected(self):
        overlay = build_overlay()
        overlay.open_new_layer(PCycle(97))
        overlay.activate(Layer.NEW, 5, 0)
        overlay.add_intermediate(5, 3)
        with pytest.raises(MappingError):
            overlay.deactivate(Layer.OLD, 3)
        with pytest.raises(MappingError):
            overlay.deactivate(Layer.NEW, 5)

    def test_remove_missing_intermediate_rejected(self):
        overlay = build_overlay()
        overlay.open_new_layer(PCycle(97))
        overlay.activate(Layer.NEW, 5, 0)
        with pytest.raises(MappingError):
            overlay.remove_intermediate(5, 3)

    def test_promotion_requires_empty_old_layer(self):
        overlay = build_overlay()
        overlay.open_new_layer(PCycle(97))
        with pytest.raises(MappingError):
            overlay.promote_new_layer()

    def test_double_open_rejected(self):
        overlay = build_overlay()
        overlay.open_new_layer(PCycle(97))
        with pytest.raises(MappingError):
            overlay.open_new_layer(PCycle(97))


class TestReplacePrimary:
    def test_replace_rebuilds_exactly(self):
        overlay = build_overlay()
        target = PCycle(97)
        overlay.replace_primary(target, array("q", [y % 6 for y in range(97)]))
        assert overlay.old.p == 97
        assert_faithful(overlay)
        for u in overlay.graph.nodes():
            assert overlay.graph.degree(u) == 3 * overlay.old.load(u)

    def test_replace_requires_surjective(self):
        overlay = build_overlay()
        hosts = array("q", [0]) * 97  # node 1..5 left empty
        with pytest.raises(MappingError):
            overlay.replace_primary(PCycle(97), hosts)

    def test_replace_requires_complete(self):
        overlay = build_overlay()
        for hosts in (
            array("q", [y % 6 for y in range(96)]),  # vertex 96 missing
            array("q", [y % 6 for y in range(96)] + [-1]),  # vertex 96 inactive
        ):
            with pytest.raises(MappingError):
                overlay.replace_primary(PCycle(97), hosts)
        assert_faithful(overlay)

    def test_replace_rejects_a_vertex_outside_the_cycle(self):
        overlay = build_overlay()
        hosts = array("q", [y % 6 for y in range(98)])  # one entry past p
        with pytest.raises(MappingError):
            overlay.replace_primary(PCycle(97), hosts)
        assert_faithful(overlay)  # rejected before anything was torn down
        assert overlay.old.p == 23

    def test_replace_rejects_an_owner_that_is_not_live(self):
        overlay = build_overlay()
        hosts = array("q", [y % 7 for y in range(97)])  # node 6 does not exist
        with pytest.raises(MappingError):
            overlay.replace_primary(PCycle(97), hosts)
        assert_faithful(overlay)

    @given(seed=st.integers(0, 10**6), p=st.sampled_from([29, 97, 131]))
    @settings(max_examples=40, deadline=None)
    def test_replace_equals_the_per_edge_rebuild(self, seed, p):
        """On an overlay whose rows also carry pending inserts'
        attachment edges (which must survive in place), against the
        per-edge body ``replace_primary`` had before the array pass."""
        rng = random.Random(seed)
        pending = [(6 + i, rng.randrange(6)) for i in range(rng.randrange(3))]
        owners = list(range(6)) + [u for u, _attach in pending]
        hosts = {y: rng.choice(owners) for y in range(p)}
        hosts.update(zip(rng.sample(range(p), len(owners)), owners))  # surjective
        twins = build_overlay(), build_overlay()
        for overlay in twins:
            moves = random.Random(seed)
            for _ in range(10):
                overlay.move(Layer.OLD, moves.randrange(23), moves.randrange(6))
            for u, attach in pending:
                overlay.graph.add_node(u)
                overlay.graph.add_edge(u, attach)
        _replace_primary_per_edge(twins[0], PCycle(p), dict(hosts))
        twins[1].replace_primary(PCycle(p), array("q", [hosts[y] for y in range(p)]))
        graphs = [overlay.graph for overlay in twins]
        rows = [[(u, list(row.items())) for u, row in g._adj.items()] for g in graphs]
        assert rows[0] == rows[1]
        for name in ("_degree", "_nodes", "num_edge_units", "num_connections", "topology_changes"):
            assert getattr(graphs[0], name) == getattr(graphs[1], name), name
        layers = [overlay.old for overlay in twins]
        assert layers[0].host == layers[1].host
        for name in ("sim", "spare", "low"):
            assert getattr(layers[0], name) == getattr(layers[1], name), name
        graphs[1].verify_caches()
        layers[1].verify()


def _replace_primary_per_edge(overlay: Overlay, pcycle: PCycle, hosts: dict[int, int]) -> None:
    """``Overlay.replace_primary`` as it was when it made one scalar
    call per virtual edge: the oracle for the array pass."""
    graph, old = overlay.graph, overlay.old
    for a, b in old.pcycle.edges():
        if a == b:
            graph.remove_edge(old.host[a], old.host[a], mult=1)
        else:
            overlay._pair_remove(old.host[a], old.host[b])
    new_layer = LayerMapping(pcycle, old.low_threshold, graph.own)
    for z, node in hosts.items():
        new_layer.assign(z, node)
    old.on_counts_delta = None
    overlay.old = new_layer
    overlay._wire_primary()
    for a, b in pcycle.edges():
        if a == b:
            graph.add_edge(hosts[a], hosts[a], mult=1)
        else:
            overlay._pair_add(hosts[a], hosts[b])
    overlay._emit_primary_replaced()


class TestPropertyFaithfulness:
    @given(st.lists(st.tuples(st.integers(0, 22), st.integers(0, 5)), max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_random_moves_stay_faithful(self, moves):
        overlay = build_overlay()
        for z, target in moves:
            overlay.move(Layer.OLD, z, target)
        assert_faithful(overlay)
