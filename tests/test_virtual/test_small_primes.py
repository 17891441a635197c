"""Degenerate small p-cycles: p = 5 and p = 7 have overlapping chord and
ring edges (multi-edges), the hardest cases for the edge bookkeeping."""

from repro.core.mapping import LayerMapping
from repro.core.overlay import Overlay
from repro.net.topology import DynamicMultigraph
from repro.types import Layer
from repro.virtual.pcycle import PCycle


class TestPCycle5:
    """Z(5): inverses are 1->1, 2->3, 3->2, 4->4; the chord (2,3)
    coincides with a ring edge, giving a genuine double edge."""

    def test_multi_edge_between_2_and_3(self):
        z = PCycle(5)
        assert z.neighbor_multiset(2).count(3) == 2
        assert z.neighbor_multiset(3).count(2) == 2

    def test_rows_still_sum_to_three(self):
        import numpy as np

        A = PCycle(5).adjacency_matrix()
        assert np.all(np.asarray(A.sum(axis=1)).ravel() == 3)
        assert A[2, 3] == 2

    def test_edges_listed_with_multiplicity(self):
        edges = list(PCycle(5).edges())
        assert edges.count((2, 3)) == 2

    def test_overlay_handles_double_edges(self):
        graph = DynamicMultigraph()
        for u in range(2):
            graph.add_node(u)
        overlay = Overlay(graph, LayerMapping(PCycle(5), low_threshold=16, own=graph.own))
        for z in range(5):
            overlay.activate(Layer.OLD, z, z % 2)
        for u in range(2):
            assert graph.degree(u) == overlay.expected_degree(u)
        # move the double-edge endpoint around
        overlay.move(Layer.OLD, 2, 1)
        overlay.move(Layer.OLD, 3, 0)
        expected = overlay.rebuild_expected_graph()
        for (a, b), mult in expected.items():
            assert graph.multiplicity(a, b) == mult


class TestPCycle7:
    def test_inverse_map(self):
        z = PCycle(7)
        assert z.inverse(2) == 4
        assert z.inverse(3) == 5
        assert z.inverse(6) == 6  # self-inverse -> self-loop

    def test_three_self_loops(self):
        z = PCycle(7)
        loops = [x for x in z.vertices() if z.has_self_loop(x)]
        assert loops == [0, 1, 6]

    def test_distance_bounds(self):
        z = PCycle(7)
        for a in z.vertices():
            for b in z.vertices():
                assert z.distance(a, b) <= 3
