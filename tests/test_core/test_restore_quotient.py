"""Differential test for ``core.multi._restore_for_connectivity``.

The shipped function runs its restore sweeps on the component quotient
of the survivor graph (labels from the array traversal, Python work
proportional to the batch); the oracle below is the implementation it
replaced, a union-find over every live node.  The *set and order* of
re-admitted victims must be identical: the gateway turns each one into a
per-request rejection, in that order.
"""

from __future__ import annotations

import random
from typing import Sequence

import pytest

from repro import DexConfig, DexNetwork
from repro.core.multi import _restore_for_connectivity, partition_delete_batch
from repro.net.topology import DynamicMultigraph


def _restore_oracle(graph: DynamicMultigraph, legal: Sequence[int]) -> list[int]:
    """The pre-quotient implementation, kept verbatim as the oracle: a
    Python union-find over *every* live node, then the same latest-first
    restore sweeps and forced-restore fallback."""
    victim_set = set(legal)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    components = 0
    for u in graph.nodes():
        if u not in victim_set:
            parent[u] = u
            components += 1
    for u in list(parent):
        for w in graph.distinct_neighbors(u):
            if w in parent:
                ru, rw = find(u), find(w)
                if ru != rw:
                    parent[rw] = ru
                    components -= 1

    def restore(u: int) -> None:
        nonlocal components
        parent[u] = u
        components += 1
        for w in graph.distinct_neighbors(u):
            if w in parent:
                ru, rw = find(u), find(w)
                if ru != rw:
                    parent[rw] = ru
                    components -= 1

    restored: list[int] = []
    remaining = list(legal)
    while components > 1 and remaining:
        progressed = False
        keep: list[int] = []
        for u in reversed(remaining):
            if components > 1:
                roots = {
                    find(w)
                    for w in graph.distinct_neighbors(u)
                    if w in parent
                }
                if len(roots) >= 2:
                    restore(u)
                    restored.append(u)
                    progressed = True
                    continue
            keep.append(u)
        keep.reverse()
        remaining = keep
        if components > 1 and not progressed and remaining:
            u = remaining.pop()
            restore(u)
            restored.append(u)
    return restored


def _graph(edges: Sequence[tuple[int, int]]) -> DynamicMultigraph:
    graph = DynamicMultigraph()
    for u in sorted({x for e in edges for x in e}):
        graph.add_node(u)
    for a, b in edges:
        graph.add_edge(a, b)
    return graph


def _agree(graph: DynamicMultigraph, legal: list[int]) -> list[int]:
    got = _restore_for_connectivity(graph, legal)
    assert got == _restore_oracle(graph, legal), legal
    return got


class TestShapes:
    def test_bridge_victim_is_the_only_one_restored(self):
        # triangles 0-1-2 and 4-5-6 joined through 3 alone; victim 1 is harmless
        graph = _graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)])
        assert _agree(graph, [1, 3]) == [3]
        assert _agree(graph, [3, 1]) == [3]

    def test_parallel_bridges_restore_the_latest(self):
        # two victims each bridge the same two triangles: one suffices,
        # and the sweep is latest-first
        graph = _graph(
            [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4), (0, 7), (7, 4), (1, 8), (8, 5)]
        )
        assert _agree(graph, [7, 8]) == [8]
        assert _agree(graph, [8, 7]) == [7]

    def test_victim_chain_needs_the_forced_restore(self):
        # 0-1-2 ... 10-11-12 joined only through the victim chain 3-4-5:
        # no single victim touches two live components, so the latest is
        # force-restored until the chain closes
        graph = _graph(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 10), (10, 11), (11, 12), (12, 10)]
        )
        assert _agree(graph, [3, 4, 5]) == [5, 4, 3]
        assert _agree(graph, [5, 3, 4]) == [4, 3, 5]

    def test_pendant_node_stranded_by_its_only_neighbour(self):
        graph = _graph([(0, 1), (1, 2), (2, 3), (3, 0), (2, 9)])
        assert _agree(graph, [0, 2]) == [2]

    def test_connected_remainder_restores_nothing(self):
        graph = _graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert _agree(graph, [1]) == []


@pytest.mark.parametrize("seed", range(60))
def test_random_graphs_agree_with_the_oracle(seed: int):
    """Sparse random graphs (trees plus a few chords, so bridges, chains
    of victims and pendant nodes are all common) with up to half the
    nodes deleted."""
    rng = random.Random(seed)
    n = rng.randrange(8, 60)
    edges = [(u, rng.randrange(u)) for u in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, n // 3 + 1))]
    graph = _graph([(a, b) for a, b in edges if a != b])
    if seed % 3 == 0:
        graph.survivors_connected(set())  # restore on a synced, then dirtied, store
        graph.add_node(n)
        graph.add_edge(n, rng.randrange(n))
        graph.drop_node_with_edges(rng.randrange(n))
    live = sorted(graph.nodes())
    legal = rng.sample(live, rng.randrange(1, max(2, len(live) // 2)))
    restored = _agree(graph, legal)
    remaining = set(legal) - set(restored)
    if graph.is_connected():
        assert graph.survivors_connected(remaining)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_partition_on_a_live_overlay_matches_the_oracle(seed: int):
    """End to end on a DEX overlay: every batch whose remainder would be
    disconnected is repaired with exactly the oracle's rejections."""
    config = DexConfig(seed=seed, type2_mode="simplified", validate_every_step=False)
    net = DexNetwork.bootstrap(600, config, seed=seed)
    rng = random.Random(seed)
    repaired = 0
    for _ in range(12):
        victims = rng.sample(sorted(net.nodes()), 60)
        legal, _rej, _adopter = partition_delete_batch(net, victims, check_connectivity=False)
        if not net.graph.survivors_connected(set(legal)):
            repaired += 1
            assert _restore_for_connectivity(net.graph, legal) == _restore_oracle(
                net.graph, legal
            )
        net.delete_batch_partial(victims)
        net.insert_batch_partial(
            [(net._next_id + i, a) for i, a in enumerate(rng.sample(sorted(net.nodes()), 50))]
        )
    assert repaired, "no batch exercised the restore path; pick denser victim sets"
