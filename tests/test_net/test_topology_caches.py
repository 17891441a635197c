"""Property tests for the incremental aggregates of DynamicMultigraph:
whatever sequence of node/edge mutations runs, every cached quantity
(degrees, live-node array, edge units, connections, neighbor CDFs) must
match a from-scratch recomputation, and the O(1) sampler must stay
uniform over the live nodes."""

from __future__ import annotations

import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.net import topology
from repro.net.topology import DynamicMultigraph


def _apply_random_ops(graph: DynamicMultigraph, rng: random.Random, ops: int) -> None:
    """Drive a random mutation sequence using only legal operations."""
    next_id = max(graph.nodes(), default=-1) + 1
    for _ in range(ops):
        live = list(graph.nodes())
        choice = rng.random()
        if not live or choice < 0.25:
            graph.add_node(next_id)
            next_id += 1
        elif choice < 0.55 and len(live) >= 1:
            u = rng.choice(live)
            v = rng.choice(live)
            graph.add_edge(u, v, mult=rng.randrange(1, 4))
        elif choice < 0.8:
            edges = [
                (u, v, m)
                for u in live
                for v, m in graph.neighbor_multiplicities(u)
                if v >= u
            ]
            if edges:
                u, v, m = rng.choice(edges)
                graph.remove_edge(u, v, mult=rng.randrange(1, m + 1))
        elif choice < 0.9:
            u = rng.choice(live)
            if graph.degree(u) == 0:
                graph.remove_node(u)
            else:
                graph.drop_node_with_edges(u)
        else:
            u = rng.choice(live)
            # exercise the CDF cache between mutations
            graph.neighbor_cdf(u)


class TestCachedAggregates:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), ops=st.integers(1, 120))
    def test_caches_match_recomputation(self, seed: int, ops: int):
        graph = DynamicMultigraph()
        _apply_random_ops(graph, random.Random(seed), ops)
        graph.verify_caches()  # raises TopologyError on any drift

    def test_cdf_cache_invalidated_by_mutation(self):
        graph = DynamicMultigraph()
        for u in range(3):
            graph.add_node(u)
        graph.add_edge(0, 1, mult=2)
        neighbors, cumulative, total = graph.neighbor_cdf(0)
        assert (neighbors, cumulative, total) == ([1], [2], 2)
        graph.add_edge(0, 2)
        neighbors, cumulative, total = graph.neighbor_cdf(0)
        assert (neighbors, cumulative, total) == ([1, 2], [2, 3], 3)
        graph.remove_edge(0, 1, mult=2)
        neighbors, cumulative, total = graph.neighbor_cdf(0)
        assert (neighbors, cumulative, total) == ([2], [1], 1)

    def test_cdf_includes_self_loop_weight(self):
        graph = DynamicMultigraph()
        graph.add_node(7)
        graph.add_edge(7, 7, mult=3)
        neighbors, cumulative, total = graph.neighbor_cdf(7)
        assert (neighbors, cumulative, total) == ([7], [3], 3)

    def test_degree_and_totals_are_o1_views(self):
        graph = DynamicMultigraph()
        for u in range(4):
            graph.add_node(u)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2, mult=2)
        graph.add_edge(3, 3, mult=2)
        assert graph.degree(1) == 3
        assert graph.num_edge_units == 5
        assert graph.num_connections == 2
        graph.remove_edge(1, 2, mult=2)
        assert graph.degree(1) == 1
        assert graph.num_edge_units == 3
        assert graph.num_connections == 1


class TestRandomNodeSampler:
    def test_empty_graph_raises(self):
        with pytest.raises(TopologyError):
            DynamicMultigraph().random_node(random.Random(0))

    def test_samples_only_live_nodes(self):
        graph = DynamicMultigraph()
        for u in range(10):
            graph.add_node(u)
        for u in range(0, 10, 2):
            graph.remove_node(u)
        rng = random.Random(3)
        assert {graph.random_node(rng) for _ in range(200)} == {1, 3, 5, 7, 9}

    def test_roughly_uniform(self):
        graph = DynamicMultigraph()
        for u in range(8):
            graph.add_node(u)
        rng = random.Random(42)
        counts = {u: 0 for u in range(8)}
        draws = 8000
        for _ in range(draws):
            counts[graph.random_node(rng)] += 1
        for u, c in counts.items():
            assert abs(c - draws / 8) < 0.25 * draws / 8, (u, c)

    def test_deterministic_for_fixed_seed(self):
        def sequence(seed: int) -> list[int]:
            graph = DynamicMultigraph()
            for u in range(32):
                graph.add_node(u)
            rng = random.Random(seed)
            out = []
            for i in range(50):
                out.append(graph.random_node(rng))
                if i == 25:
                    graph.remove_node(31)  # swap-remove mid-sequence
            return out

        assert sequence(9) == sequence(9)
        assert sequence(9) != sequence(10)


class TestIncrementalCSR:
    """The id-sorted scipy CSR: assembled on demand from the array
    adjacency a sync keeps current, audited against a from-scratch
    build."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), ops=st.integers(1, 60))
    def test_patch_matches_rebuild(self, seed: int, ops: int):
        graph = DynamicMultigraph()
        rng = random.Random(seed)
        _apply_random_ops(graph, rng, ops)
        graph.to_sparse_adjacency()  # build + cache
        _apply_random_ops(graph, rng, ops)  # dirty it
        order, patched = graph.to_sparse_adjacency()
        graph.verify_sparse_cache()  # oracle: raises on drift
        order2, rebuilt = graph.to_sparse_adjacency(force_rebuild=True)
        assert order == order2
        assert (abs(patched - rebuilt)).nnz == 0

    def test_node_join_and_leave_are_patched(self):
        graph = DynamicMultigraph()
        for u in range(6):
            graph.add_node(u)
        for u in range(5):
            graph.add_edge(u, u + 1)
        order, A = graph.to_sparse_adjacency()
        assert order == list(range(6))
        graph.drop_node_with_edges(2)
        graph.add_node(9)
        graph.add_edge(9, 0, mult=3)
        order, A = graph.to_sparse_adjacency()
        assert order == [0, 1, 3, 4, 5, 9]
        assert A[order.index(0), order.index(9)] == 3.0
        assert A[order.index(1), :].sum() == 1.0  # lost its edge to 2
        graph.verify_sparse_cache()

    def test_force_rebuild_resets_cache(self):
        graph = DynamicMultigraph()
        graph.add_node(0)
        graph.add_node(1)
        graph.add_edge(0, 1, mult=2)
        _, a = graph.to_sparse_adjacency()
        _, b = graph.to_sparse_adjacency(force_rebuild=True)
        assert (abs(a - b)).nnz == 0
        graph.verify_sparse_cache()

    def test_nearly_sorted_order_merge_matches_rebuild(self):
        """Rows live at slots in join order, not id order; interleaved
        joins and departures -- including ids that sort between, before,
        and after the retained ones -- must still assemble into exactly
        the ordering ``force_rebuild=True`` computes."""
        graph = DynamicMultigraph()
        for u in range(0, 100, 4):  # sparse id space: 0, 4, 8, ...
            graph.add_node(u)
        ids = list(range(0, 100, 4))
        for a, b in zip(ids, ids[1:]):
            graph.add_edge(a, b)
        graph.to_sparse_adjacency()  # prime the cache
        # joins that interleave (2, 18), prepend (-1 not allowed: ids are
        # nonnegative -- use 1) and append (99); one departure mid-range
        for new in (2, 18, 1, 99):
            graph.add_node(new)
            graph.add_edge(new, 0)
        graph.drop_node_with_edges(8)
        emitted = graph.sync_stats["sync_rows"]
        order, patched = graph.to_sparse_adjacency()
        assert 0 < graph.sync_stats["sync_rows"] - emitted < graph.num_nodes // 2, (
            "test must exercise an incremental refresh, not a first build"
        )
        assert order == sorted(graph.nodes())
        order2, rebuilt = graph.to_sparse_adjacency(force_rebuild=True)
        assert order == order2
        assert (abs(patched - rebuilt)).nnz == 0
        graph.verify_sparse_cache()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), ops=st.integers(1, 40))
    def test_order_merge_under_random_churn(self, seed: int, ops: int):
        graph = DynamicMultigraph()
        rng = random.Random(seed)
        _apply_random_ops(graph, rng, 30)
        graph.to_sparse_adjacency()
        _apply_random_ops(graph, rng, ops)
        order, _ = graph.to_sparse_adjacency()
        assert order == sorted(graph.nodes())
        graph.verify_sparse_cache()


class TestSurvivorsConnected:
    """Remainder-connectivity on the array adjacency (batch deletion
    validator)."""

    def _oracle(self, graph: DynamicMultigraph, victims: set[int]) -> bool:
        survivors = [u for u in graph.nodes() if u not in victims]
        if not survivors:
            return False
        seen = {survivors[0]}
        stack = [survivors[0]]
        while stack:
            u = stack.pop()
            for w in graph.distinct_neighbors(u):
                if w not in victims and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(survivors)

    def test_bridge_node_disconnects(self):
        graph = DynamicMultigraph()
        for u in range(7):
            graph.add_node(u)
        for a, b in [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)]:
            graph.add_edge(a, b)
        graph.add_edge(0, 3)
        graph.add_edge(3, 4)  # 3 bridges the two triangles
        assert graph.survivors_connected(set()) is True
        assert graph.survivors_connected({3}) is False
        assert graph.survivors_connected({3, 4, 5, 6}) is True
        assert graph.survivors_connected(set(range(7))) is False

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_python_bfs(self, seed: int):
        rng = random.Random(seed)
        graph = DynamicMultigraph()
        n = rng.randrange(4, 24)
        for u in range(n):
            graph.add_node(u)
        for _ in range(rng.randrange(n, 3 * n)):
            graph.add_edge(rng.randrange(n), rng.randrange(n))
        victims = {u for u in range(n) if rng.random() < 0.3}
        assert graph.survivors_connected(victims) == self._oracle(graph, victims)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_delta_bfs_on_dirty_cache_matches_oracle(self, seed: int):
        """Sync-then-BFS on a stale array adjacency: after joins,
        departures (whose slots later joiners reuse) and edge churn, the
        answer must agree with the pure-Python oracle for victim sets
        that contain dirty and just-joined nodes -- round after round on
        the same graph, so every sync starts from the previous one."""
        rng = random.Random(seed)
        graph = DynamicMultigraph()
        n = rng.randrange(6, 24)
        for u in range(n):
            graph.add_node(u)
        for _ in range(rng.randrange(n, 3 * n)):
            graph.add_edge(rng.randrange(n), rng.randrange(n))
        graph.to_sparse_adjacency()  # first sync: every row
        nid = n
        for _round in range(4):
            touched: set[int] = set()
            for _ in range(rng.randrange(1, 6)):
                c = rng.random()
                live = list(graph.nodes())
                if c < 0.35:
                    anchor = rng.choice(live)
                    graph.add_node(nid)
                    graph.add_edge(nid, anchor)
                    touched |= {nid, anchor}
                    nid += 1
                elif c < 0.55 and len(live) > 4:
                    gone = rng.choice(live)
                    touched |= set(graph.distinct_neighbors(gone))
                    graph.drop_node_with_edges(gone)
                else:
                    a, b = rng.choice(live), rng.choice(live)
                    graph.add_edge(a, b)
                    touched |= {a, b}
            touched = {u for u in touched if graph.has_node(u)}
            victims = {u for u in graph.nodes() if rng.random() < 0.3}
            victims |= set(rng.sample(sorted(touched), min(2, len(touched))))
            assert graph.survivors_connected(victims) == self._oracle(graph, victims)
            graph.verify_sparse_cache()

    def test_departed_slot_is_reused_by_a_later_joiner(self):
        graph = DynamicMultigraph()
        for u in range(5):
            graph.add_node(u)
        for u in range(4):
            graph.add_edge(u, u + 1)
        assert graph.survivors_connected(set())
        slot = graph.csr_wave_view().slot_of[2]
        graph.drop_node_with_edges(2)
        assert not graph.survivors_connected(set())  # 0-1 | 3-4
        graph.add_node(9)
        graph.add_edge(9, 1)
        graph.add_edge(9, 3)
        assert graph.survivors_connected(set())
        rows = graph.csr_wave_view()
        assert rows.slot_of[9] == slot and 2 not in rows.slot_of
        assert not graph.survivors_connected({9})
        graph.verify_sparse_cache()

    def test_component_labels(self):
        graph = DynamicMultigraph()
        for u in range(8):
            graph.add_node(u)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7)]:
            graph.add_edge(a, b)
        count, label = graph.survivor_components({2, 6}, probe=[0, 1, 3, 5, 7])
        assert count == 3
        assert label[0] == label[1] and label[3] == label[5]
        assert len({label[0], label[3], label[7]}) == 3


def _ring(n: int) -> DynamicMultigraph:
    graph = DynamicMultigraph()
    for u in range(n):
        graph.add_node(u)
    for u in range(n):
        graph.add_edge(u, (u + 1) % n)
        graph.add_edge(u, (u + 7) % n)
    return graph


def _connect(graph: DynamicMultigraph, rng: random.Random) -> None:
    """Link every component to the first node's (more churn: the linked
    rows go stale)."""
    if not graph.num_nodes:
        graph.add_node(0)
    src = next(iter(graph.nodes()))
    reached = graph.bfs_distances(src)
    while len(reached) < graph.num_nodes:
        outside = next(u for u in graph.nodes() if u not in reached)
        graph.add_edge(rng.choice(sorted(reached)), outside)
        reached = graph.bfs_distances(src)


class TestEccentricity:
    """The flood's level-counting BFS over the array adjacency against
    the dict BFS."""

    @staticmethod
    def _agrees(graph: DynamicMultigraph, src: int) -> None:
        assert graph.eccentricity(src) == max(graph.bfs_distances(src).values())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), ops=st.integers(1, 80))
    def test_matches_dict_bfs_under_churn(self, seed: int, ops: int):
        """Joins, departures (slots reused by later joiners), self-loops
        and multi-edges, round after round on one graph: the answer from
        dirty, just-joined and long-clean sources, with the rows half
        refreshed by a wave in between."""
        rng = random.Random(seed)
        graph = DynamicMultigraph()
        _apply_random_ops(graph, rng, ops)
        _connect(graph, rng)
        self._agrees(graph, rng.choice(list(graph.nodes())))  # first sync: every row
        for _round in range(3):
            stamp = {u: graph.node_version(u) for u in graph.nodes()}
            _apply_random_ops(graph, rng, rng.randrange(1, 12))
            _connect(graph, rng)
            live = list(graph.nodes())
            joined = [u for u in live if u not in stamp]
            dirty = [u for u in live if stamp.get(u, -1) not in (-1, graph.node_version(u))]
            clean = [u for u in live if stamp.get(u) == graph.node_version(u)]
            sources = [rng.choice(group) for group in (joined, dirty, clean) if group]
            self._agrees(graph, sources[0])
            _apply_random_ops(graph, rng, 3)
            _connect(graph, rng)
            rows = graph.csr_wave_view()  # a wave refreshes only what it visits
            rows.refresh(np.asarray([rows.slot_of[u] for u in list(graph.nodes())[::2]]))
            for src in sources:
                if graph.has_node(src):
                    self._agrees(graph, src)
            for u in graph.nodes():
                assert graph.connection_count(u) == len(graph.distinct_neighbors(u))
            assert sum(map(graph.connection_count, graph.nodes())) == 2 * graph.num_connections
            graph.verify_sparse_cache()
            graph.verify_caches()

    def test_single_node(self):
        graph = DynamicMultigraph()
        graph.add_node(4)
        graph.add_edge(4, 4, mult=2)
        assert graph.eccentricity(4) == 0

    def test_cut_node_removed_raises(self):
        graph = DynamicMultigraph()
        for u in range(5):
            graph.add_node(u)
        for u in range(4):
            graph.add_edge(u, u + 1)
        assert graph.eccentricity(0) == 4 and graph.eccentricity(2) == 2
        graph.drop_node_with_edges(2)
        with pytest.raises(TopologyError):
            graph.eccentricity(0)
        with pytest.raises(TopologyError):
            graph.eccentricity(2)  # departed source

    def test_second_call_on_untouched_graph_emits_nothing(self):
        graph = _ring(60)
        assert graph.eccentricity(0) == graph.eccentricity(30)
        before = graph.sync_stats
        assert before["sync_rows"] == 60
        graph.eccentricity(17)
        assert graph.sync_stats == before
        graph.add_edge(3, 40)
        graph.eccentricity(17)
        assert graph.sync_stats["sync_rows"] - before["sync_rows"] == 2


class TestSyncProportionality:
    """A sync costs what was touched, not what exists (counted, not
    timed), and one wide row never widens the others."""

    def test_sync_reemits_exactly_the_touched_rows(self):
        graph = _ring(400)
        graph.to_sparse_adjacency()
        rows = graph.csr_wave_view()
        before = graph.sync_stats
        assert before["sync_rows"] == 400 and before["pool_compactions"] == 0
        arrays = [getattr(rows, name) for name in ("ids", "start", "len", "cap", "nbr", "cum")]
        touched = [10, 11, 200, 201, 333, 20]
        graph.remove_edge(10, 11)  # rows shrink: rewritten in place
        graph.add_edge(200, 201, mult=3)  # same length: rewritten in place
        graph.add_edge(333, 20)  # rows grow within their slack
        entries = sum(len(graph.neighbor_multiplicities(u)) for u in touched)
        assert graph.survivors_connected({0})
        after = graph.sync_stats
        assert after["sync_rows"] - before["sync_rows"] == len(touched)
        assert after["sync_entries"] - before["sync_entries"] == entries
        # nothing nnz- or n-sized was allocated, repacked or appended to
        assert after["pool_compactions"] == 0
        assert after["pool_used"] == before["pool_used"]
        for name, arr in zip(("ids", "start", "len", "cap", "nbr", "cum"), arrays):
            assert getattr(rows, name) is arr, name
        graph.verify_sparse_cache()

    def test_wave_reemits_only_the_stale_rows_it_visits(self):
        from repro.net.walks import run_wave

        graph = _ring(400)
        graph.to_sparse_adjacency()
        for u in range(0, 400, 4):  # 100 touched pairs -> 200 stale rows
            graph.add_edge(u, u + 1)
        before = graph.sync_stats["sync_rows"]
        starts = list(range(30))  # rows 0..29 and whatever they walk onto
        ends, _founds, hops, _rounds = run_wave(
            graph, starts, 2, frozenset(), random.Random(3), engine="vector"
        )
        emitted = graph.sync_stats["sync_rows"] - before
        assert hops == 60 and 15 <= emitted <= 30 + hops
        assert graph.survivors_connected({0})  # ... which emits the rest
        assert graph.sync_stats["sync_rows"] - before == 200
        graph.verify_sparse_cache()

    def test_clean_graph_syncs_nothing(self):
        graph = _ring(50)
        graph.survivors_connected({3})
        before = graph.sync_stats
        graph.survivors_connected({4})
        graph.csr_wave_view()
        graph.to_sparse_adjacency()
        assert graph.sync_stats == before

    def test_fat_row_does_not_widen_the_others(self):
        n = 400
        graph = _ring(n)
        graph.to_sparse_adjacency()
        rows = graph.csr_wave_view()
        caps = {u: int(rows.cap[rows.slot_of[u]]) for u in range(n)}
        for v in range(50, 350):  # node 0 adopts 300 distinct neighbours
            graph.add_edge(0, v)
        assert graph.survivors_connected({1})
        rows = graph.csr_wave_view()
        assert int(rows.len[rows.slot_of[0]]) >= 300
        for u in range(n):
            if u == 0 or 50 <= u < 350:
                continue  # node 0's own row, and the rows that gained it
            assert int(rows.cap[rows.slot_of[u]]) == caps[u], u
        for u in range(50, 350):
            assert int(rows.cap[rows.slot_of[u]]) <= caps[u] + 1 + 2  # + one entry (+ slack)
        nnz = sum(len(graph.neighbor_multiplicities(u)) for u in range(n))
        assert graph.sync_stats["pool_used"] <= 3 * nnz
        graph.verify_sparse_cache()
        # ... and when the fat row thins out again the storage follows
        for v in range(50, 350):
            graph.remove_edge(0, v)
        graph.survivors_connected(set())
        assert int(rows.cap[rows.slot_of[0]]) <= 8
        graph.verify_sparse_cache()

    def test_pool_is_compacted_when_half_garbage(self):
        graph = _ring(64)
        graph.to_sparse_adjacency()
        rng = random.Random(4)
        for _ in range(60):  # rows keep outgrowing their extents
            u = rng.randrange(64)
            for _ in range(4):
                graph.add_edge(u, rng.randrange(64))
            graph.to_sparse_adjacency()
            nnz = sum(len(graph.neighbor_multiplicities(w)) for w in range(64))
            assert graph.sync_stats["pool_used"] <= 3 * nnz
        assert graph.sync_stats["pool_compactions"] >= 1
        graph.verify_sparse_cache()
        assert graph.survivors_connected({5}) is True


class TestAuditCatchesDrift:
    """``verify_sparse_cache`` is only worth wiring into the invariant
    suite if it notices a corrupted array adjacency."""

    def _primed(self) -> DynamicMultigraph:
        graph = _ring(30)
        graph.to_sparse_adjacency()
        graph.drop_node_with_edges(7)  # leaves a free slot behind
        graph.verify_sparse_cache()
        return graph

    def test_stale_clean_row(self):
        graph = self._primed()
        graph.add_edge(1, 2, mult=2)
        graph._dirty.discard(1)  # row 1 now wrongly counts as clean
        with pytest.raises(TopologyError, match="row stale at node 1"):
            graph.verify_sparse_cache()

    def test_free_slot_still_marked_live(self):
        graph = self._primed()
        rows = graph.csr_wave_view()
        rows.dead[rows.free[0]] = False
        with pytest.raises(TopologyError, match="partition"):
            graph.verify_sparse_cache()

    def test_row_referencing_a_free_slot(self):
        graph = self._primed()
        rows = graph.csr_wave_view()
        rows.nbr[int(rows.start[rows.slot_of[3]])] = rows.free[0]
        with pytest.raises(TopologyError, match="row stale at node 3"):
            graph.verify_sparse_cache()

    def test_garbage_miscount(self):
        graph = self._primed()
        graph.csr_wave_view().garbage += 1
        with pytest.raises(TopologyError, match="garbage"):
            graph.verify_sparse_cache()


def _reference_rows(rows: topology._RowStore, slots: np.ndarray) -> tuple[list, list, list]:
    """The per-row emission loop ``_RowStore.refresh`` ran before it became
    array passes -- per row its keys sorted, each turned into its slot by
    ``slot_of``, and their running multiplicity sums: lengths, slots,
    cumulative sums."""
    lens: list[int] = []
    nbr: list[int] = []
    cum: list[int] = []
    slot = rows.slot_of.__getitem__
    for u in rows.ids[slots].tolist():
        nbrs = rows.adj[u]
        keys = sorted(nbrs)
        lens.append(len(keys))
        nbr.extend(map(slot, keys))
        cum.extend(accumulate(map(nbrs.__getitem__, keys)))
    return lens, nbr, cum


def _assert_rows_match_reference(rows: topology._RowStore) -> None:
    """Every live row that is not stale holds what the reference loop
    emits for it: ``len``, ``nbr``, ``cum`` and ``tot``."""
    slots = np.flatnonzero(~rows.dead & ~rows.stale)
    lens, nbr, cum = _reference_rows(rows, slots)
    at = rows.span(slots)
    assert rows.len[slots].tolist() == lens
    assert rows.nbr[at].tolist() == nbr
    assert rows.cum[at].tolist() == cum
    ends = list(accumulate(lens))
    assert rows.tot[slots].tolist() == [cum[e - 1] if n else 0 for e, n in zip(ends, lens)]


class _CountingSlots(dict):
    """``slot_of`` that counts its lookups."""

    lookups = 0

    def __getitem__(self, u: int) -> int:
        self.lookups += 1
        return super().__getitem__(u)


def _reused(monkeypatch: pytest.MonkeyPatch, refresh) -> bool:
    """Run ``refresh``; did it take ids from the rows' previous emission?"""
    calls = []
    known = topology._RowStore._known_slots
    monkeypatch.setattr(
        topology._RowStore, "_known_slots", lambda *args: calls.append(1) or known(*args)
    )
    refresh()
    return bool(calls)


class TestRefreshMatchesReferenceEmission:
    """``_RowStore.refresh`` -- array passes that reuse the slots a row's
    previous emission knows -- against the per-row loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), ids=st.sampled_from(["dense", "base", "spread"]))
    @example(seed=43, ids="dense")  # compaction once overran the pool: empty rows got slack
    def test_every_sync_matches_the_per_row_loop(self, seed: int, ids: str):
        """Churn with departures, rejoins under an old id, empty rows,
        full and partial (a wave's) refreshes; ids from 0, from 2^40, or
        spread so far that the combined (row, id) key would overflow."""
        rng = random.Random(seed)
        graph = DynamicMultigraph()
        first = {"dense": 0, "base": 2**40, "spread": 2**62}[ids]
        graph.add_nodes(range(first, first + 40))  # later ids lie above them
        if ids == "spread":
            graph.add_node(0)
            graph.add_edge(0, first)
        known: dict[int, list[int]] = {}  # each id's neighbours when last seen
        for _round in range(6):
            known.update((u, graph.distinct_neighbors(u)) for u in graph.nodes())
            _apply_random_ops(graph, rng, rng.randrange(1, 30))
            gone = sorted(u for u in known if not graph.has_node(u))
            if gone and rng.random() < 0.7:  # an id that left rejoins its old neighbours
                u = rng.choice(gone)
                graph.add_node(u)
                for v in known[u]:
                    if graph.has_node(v):
                        graph.add_edge(u, v, mult=rng.randrange(1, 3))
            rows = graph.csr_wave_view()
            if rng.random() < 0.5:
                rows.refresh()
            else:
                live = list(graph.nodes())
                some = rng.sample(live, len(live) // 2)
                rows.refresh(np.asarray([rows.slot_of[u] for u in some], dtype=np.int64))
            _assert_rows_match_reference(rows)
        graph.to_sparse_adjacency()
        _assert_rows_match_reference(graph.csr_wave_view())
        graph.verify_sparse_cache()

    def test_a_row_reuses_the_slots_it_knows(self):
        graph = _ring(400)
        rows = graph.csr_wave_view()
        rows.slot_of = _CountingSlots(rows.slot_of)
        rows.refresh()  # a first emission: ids to slots by one table
        assert rows.slot_of.lookups == 0
        _assert_rows_match_reference(rows)
        graph.add_edge(10, 200)
        graph.add_edge(11, 12, mult=2)
        graph.remove_edge(20, 27)
        rows = graph.csr_wave_view()
        rows.slot_of.lookups = 0
        rows.refresh()
        # six rows: only key 200 in row 10 and key 10 in row 200 are new
        assert graph.sync_stats["sync_rows"] == 406
        assert rows.slot_of.lookups == 2
        _assert_rows_match_reference(rows)
        graph.verify_sparse_cache()

    # n = 12: the refresh has an entry per id -> slot table cell; n = 64:
    # fewer, so the ids come from the rows' previous emission
    @pytest.mark.parametrize("n", [12, 64])
    def test_a_slot_taken_by_another_node(self, n: int, monkeypatch):
        """A row's old extent names a slot whose node left and whose slot a
        joiner took: the slot now answers for the joiner."""
        graph = _ring(n)
        rows = graph.csr_wave_view()
        rows.refresh()
        slot = rows.slot_of[5]
        graph.drop_node_with_edges(5)
        graph.csr_wave_view()  # 5's slot is freed; its neighbours' rows stay stale
        graph.add_node(n)
        graph.add_edge(n, 4)
        graph.add_edge(n, 6, mult=3)
        rows = graph.csr_wave_view()
        assert rows.slot_of[n] == slot and not rows.dead[slot]
        old = rows.nbr[rows.span(np.asarray([rows.slot_of[4]]))]
        assert slot in old.tolist()  # row 4's previous emission names it
        assert _reused(monkeypatch, rows.refresh) == (n == 64)
        _assert_rows_match_reference(rows)
        graph.verify_sparse_cache()

    @pytest.mark.parametrize("n", [12, 64])
    def test_an_id_that_left_and_rejoined_elsewhere(self, n: int, monkeypatch):
        """The old extent names a dead slot whose stale id is a live node's
        again -- at another slot: the dead slot must not be used."""
        graph = _ring(n)
        rows = graph.csr_wave_view()
        rows.refresh()
        slot = rows.slot_of[5]
        for u in (5, 7):  # two free slots (7 is not 4's neighbour): 5 takes 7's
            graph.drop_node_with_edges(u)
        rows = graph.csr_wave_view()
        if rows.free[-1] == slot:
            rows.free[-2:] = rows.free[-2:][::-1]
        graph.add_node(5)
        graph.add_edge(5, 4)
        rows = graph.csr_wave_view()
        assert rows.slot_of[5] != slot and rows.dead[slot] and rows.ids[slot] == 5
        old = rows.nbr[rows.span(np.asarray([rows.slot_of[4]]))]
        assert slot in old.tolist()
        assert _reused(monkeypatch, rows.refresh) == (n == 64)
        _assert_rows_match_reference(rows)
        graph.verify_sparse_cache()

    def test_ids_too_far_apart_for_one_key(self):
        graph = DynamicMultigraph()
        ids = [0, 1, 2**62, 2**62 + 1, 2**62 + 2]
        graph.add_nodes(ids)
        for a, b in zip(ids, ids[1:] + ids[:1]):
            graph.add_edge(a, b)
        graph.add_edge(1, 1, mult=2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topology._RowStore, "_known_slots", None)  # unreachable
            rows = graph.csr_wave_view()
            rows.refresh()
            _assert_rows_match_reference(rows)
            graph.add_edge(0, 2**62 + 1, mult=2)
            graph.survivors_connected(set())
        _assert_rows_match_reference(graph.csr_wave_view())
        graph.verify_sparse_cache()

    def test_empty_rows(self):
        graph = DynamicMultigraph()
        graph.add_nodes(range(5))
        rows = graph.csr_wave_view()
        rows.refresh()  # nothing but empty rows
        assert rows.len[rows.slot_of[3]] == 0 and graph.sync_stats["sync_entries"] == 0
        graph.add_edge(1, 2)
        graph.add_edge(3, 3)
        rows = graph.csr_wave_view()
        rows.refresh()
        graph.remove_edge(1, 2)  # a row with a previous emission empties
        rows = graph.csr_wave_view()
        rows.refresh()
        _assert_rows_match_reference(rows)
        assert rows.tot[rows.slot_of[1]] == 0 and rows.tot[rows.slot_of[3]] == 1
        graph.verify_sparse_cache()


Triple = tuple[int, int, int]


def _state(graph: DynamicMultigraph) -> tuple:
    """Everything the bulk contract covers, row key order included."""
    return (
        [(u, list(row.items())) for u, row in graph._adj.items()],
        graph._degree,
        graph.num_edge_units,
        graph.num_connections,
        graph.topology_changes,
        graph._nodes,
    )


def _arrays(triples: list[Triple]) -> list[np.ndarray]:
    return [np.array(column, dtype=np.int64) for column in zip(*triples)] or [np.empty(0)] * 3


def _both(scalar: DynamicMultigraph, bulk: DynamicMultigraph, op: str, triples: list[Triple]):
    """``op`` per triple on ``scalar`` -- the oracle -- and in bulk on
    its twin: the same state and the same error, or none."""
    errors = []
    for run in (
        lambda: [getattr(scalar, op)(u, v, m) for u, v, m in triples],
        lambda: getattr(bulk, op + "s")(*_arrays(triples)),
    ):
        try:
            run()
            errors.append(None)
        except TopologyError as exc:
            errors.append(str(exc))
    assert errors[0] == errors[1]
    assert _state(scalar) == _state(bulk), (op, triples)
    return errors[0]


class TestBulkEdges:
    """``add_edges`` / ``remove_edges`` against the scalar call per
    triple, in order, on a twin graph."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6), base=st.sampled_from([0, 2**40]))
    def test_same_rows_aggregates_and_errors_as_the_scalar_loop(self, seed, base):
        rng = random.Random(seed)
        n = rng.randrange(1, 8)
        twins = DynamicMultigraph(), DynamicMultigraph()
        for graph in twins:
            for u in range(n):
                graph.add_node(base + u)

        def pair() -> tuple[int, int]:
            u = rng.randrange(n)
            return base + u, base + (u if rng.random() < 0.25 else rng.randrange(n))

        clean = True
        for _round in range(3):  # later rounds meet rows that hold entries
            adds = [(*pair(), rng.randrange(1, 3)) for _ in range(rng.randrange(22))]
            if adds and rng.random() < 0.15:
                bad = (base + n + 2, base, 1) if rng.random() < 0.5 else (*pair(), 0)
                adds[rng.randrange(len(adds))] = bad
            clean &= _both(*twins, "add_edge", adds) is None
            removals: list[Triple] = []
            for u, row in twins[0]._adj.items():
                for v, m in row.items():
                    fate = rng.random()
                    if v < u or fate < 0.4:
                        continue
                    if fate < 0.7:  # to zero, in one call or two
                        removals += [(u, v, m)] if m == 1 else [(u, v, 1), (v, u, m - 1)]
                    elif fate < 0.9 and m > 1:
                        removals.append((v, u, m - 1))  # partial: the key keeps its place
                    elif fate > 0.97:
                        removals.append((u, v, m + 1))  # more than is there
            rng.shuffle(removals)
            clean &= _both(*twins, "remove_edge", removals) is None
            # pairs taken to zero come back at the end of their rows
            again = [(u, v, 1) for u, v, _m in removals[::2] if rng.random() < 0.5]
            clean &= _both(*twins, "add_edge", again) is None
        bulk = twins[1]
        bulk.verify_caches()
        bulk.to_sparse_adjacency()
        bulk.verify_sparse_cache()
        if clean:  # the rows hold the graph's own id objects, not copies
            own = {id(u) for u in bulk._nodes}
            assert all(id(k) in own for row in bulk._adj.values() for k in row)

    def test_first_touch_fixes_the_key_order(self):
        scalar, bulk = DynamicMultigraph(), DynamicMultigraph()
        for graph in (scalar, bulk):
            for u in range(4):
                graph.add_node(u)
            graph.add_edge(0, 3)  # an entry the bulk pass must leave in place
        triples = [(2, 0, 1), (0, 1, 1), (0, 0, 2), (1, 0, 1), (0, 3, 1), (2, 2, 1)]
        assert _both(scalar, bulk, "add_edge", triples) is None
        assert list(bulk._adj[0].items()) == [(3, 2), (2, 1), (1, 2), (0, 2)]
        assert bulk.topology_changes == scalar.topology_changes == 4 + 1 + 2
        # (0, 3) to zero and back: the key moves to the end of both rows
        assert _both(scalar, bulk, "remove_edge", [(3, 0, 2), (0, 1, 1)]) is None
        assert _both(scalar, bulk, "add_edge", [(3, 0, 1)]) is None
        assert list(bulk._adj[0]) == [2, 1, 0, 3]

    def test_whole_row_removal_clears_only_on_an_exact_match(self):
        scalar, bulk = DynamicMultigraph(), DynamicMultigraph()
        for graph in (scalar, bulk):
            for u in range(3):
                graph.add_node(u)
            graph.add_edges(*_arrays([(0, 1, 2), (0, 2, 1), (0, 0, 2), (1, 2, 1)]))
        # row 0 but for one unit of (0, 1): nothing may be cleared
        assert _both(scalar, bulk, "remove_edge", [(0, 1, 1), (2, 0, 1), (0, 0, 2)]) is None
        assert list(bulk._adj[0].items()) == [(1, 1)]
        message = _both(scalar, bulk, "remove_edge", [(1, 2, 1), (0, 1, 2)])
        assert message == "edge (0, 1) has multiplicity 1 < 2"
        assert bulk.multiplicity(1, 2) == 0  # the triples before the bad one went through

    def test_empty_sequence_is_a_no_op(self):
        graph = _ring(5)
        before = (_state(graph)[0], graph.topology_changes, graph.node_version(0))
        graph.add_edges(*_arrays([]))
        graph.remove_edges(*_arrays([]))
        assert (_state(graph)[0], graph.topology_changes, graph.node_version(0)) == before


class TestBulkNodes:
    """``add_nodes`` against ``add_node`` per id, in order, on a twin."""

    @pytest.mark.parametrize(
        "ids",
        [[], [7, 3, 2**40, 9], [5, 6, 5, 8], [8, 1, 2], list(range(100, 300))],
        ids=["empty", "fresh", "repeated", "present", "many"],
    )
    def test_same_state_listener_calls_and_error_as_add_node(self, ids: list[int]):
        twins = DynamicMultigraph(), DynamicMultigraph()
        calls: tuple[list, list] = ([], [])
        errors = []
        for graph, log, bulk in zip(twins, calls, (False, True)):
            graph.add_nodes([1, 4])
            graph.add_edge(1, 4)
            graph.node_listeners += [lambda d, log=log: log.append(("a", d)),
                                     lambda d, log=log: log.append(("b", d))]  # fmt: skip
            try:
                if bulk:
                    graph.add_nodes(iter(ids))
                else:
                    for u in ids:
                        graph.add_node(u)
                errors.append(None)
            except TopologyError as exc:
                errors.append(str(exc))
        scalar, bulk = twins
        assert errors[0] == errors[1]
        assert calls[0] == calls[1]
        assert _state(scalar) == _state(bulk)
        for name in ("_node_pos", "_version", "_stamp", "_dirty"):
            assert getattr(scalar, name) == getattr(bulk, name), name
        assert list(bulk._node_pos) == list(scalar._node_pos)
        bulk.verify_caches()
        bulk.to_sparse_adjacency()
        bulk.verify_sparse_cache()
