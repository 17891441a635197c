"""Random-walk primitives: lengths, predicates, stationarity, and the
congestion-limited parallel walks of Lemma 11."""

import math
import random
from bisect import bisect_right
from collections import Counter
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.net import walks
from repro.net.topology import DynamicMultigraph
from repro.net.walks import random_walk, run_wave
from repro.virtual.pcycle import PCycle
from tests.test_net.test_topology_caches import _apply_random_ops


def pcycle_graph(p: int) -> DynamicMultigraph:
    z = PCycle(p)
    g = DynamicMultigraph()
    for u in z.vertices():
        g.add_node(u)
    for a, b in z.edges():
        g.add_edge(a, b, mult=1)
    return g


class TestRandomWalk:
    def test_walk_length_respected(self):
        g = pcycle_graph(23)
        rng = random.Random(0)
        result = random_walk(g, 0, 10, rng)
        assert result.hops == 10
        assert result.found  # no predicate: completing == success

    def test_stop_predicate(self):
        g = pcycle_graph(23)
        rng = random.Random(1)
        target = {5}
        result = random_walk(g, 5, 500, rng, stop=lambda u: u in target)
        assert result.found
        assert result.end == 5
        assert result.hops >= 1  # the walk leaves before checking

    def test_predicate_never_satisfied(self):
        g = pcycle_graph(23)
        result = random_walk(g, 0, 8, random.Random(2), stop=lambda u: False)
        assert not result.found
        assert result.hops == 8

    def test_excluded_nodes_never_visited(self):
        g = pcycle_graph(23)
        excluded = frozenset({1, 22})  # both neighbors on the ring of 0
        visited: list[int] = []

        def record(u: int) -> bool:
            visited.append(u)
            return False

        random_walk(g, 0, 50, random.Random(3), stop=record, excluded=excluded)
        assert len(visited) == 50
        assert excluded.isdisjoint(visited)

    def test_stuck_token_stays(self):
        g = DynamicMultigraph()
        g.add_node(0)
        g.add_node(1)
        g.add_edge(0, 1)
        result = random_walk(g, 0, 5, random.Random(0), excluded=frozenset({1}))
        assert result.end == 0
        assert not result.found

    def test_negative_length_rejected(self):
        g = pcycle_graph(23)
        with pytest.raises(TopologyError):
            random_walk(g, 0, -1, random.Random(0))

    def test_distribution_approaches_stationary(self):
        """On the 3-regular p-cycle the stationary distribution is
        uniform; long walks should spread mass broadly (chi-square-ish
        sanity, not a strict test)."""
        p = 53
        g = pcycle_graph(p)
        rng = random.Random(4)
        counts = Counter(
            random_walk(g, 0, 6 * math.ceil(math.log2(p)), rng).end
            for _ in range(2000)
        )
        assert len(counts) > p // 2  # visited most of the graph
        assert max(counts.values()) < 2000 * 10 / p  # nothing hogs the mass


def reference_walk(
    graph: DynamicMultigraph,
    start: int,
    length: int,
    rng: random.Random,
    stop: Callable[[int], bool] | None = None,
    excluded: frozenset[int] = frozenset(),
) -> tuple[int, int, bool]:
    """The walk as one ``_weighted_step`` call per hop, as it stood
    before the loop was inlined -- with the row's CDF recomputed from the
    multiplicities instead of read from the topology's cache."""

    def step(at: int) -> int | None:
        items = sorted(graph.neighbor_multiplicities(at))
        neighbors = [v for v, _ in items]
        cumulative, total = [], 0
        for _, m in items:
            total += m
            cumulative.append(total)
        if excluded:
            acc = 0
            options = []
            prev = 0
            for v, cum in zip(neighbors, cumulative):
                m = cum - prev
                prev = cum
                if v not in excluded:
                    acc += m
                    options.append((v, acc))
            if not options:
                return None
            pick = rng.randrange(acc)
            for v, cum in options:
                if pick < cum:
                    return v
        if total == 0:
            return None
        return neighbors[bisect_right(cumulative, rng.randrange(total))]

    at = start
    for hop in range(1, length + 1):
        nxt = step(at)
        if nxt is None:
            return at, hop - 1, False
        at = nxt
        if stop is not None and stop(at):
            return at, hop, True
    return at, length, stop is None


class TestWalkMatchesReference:
    """``random_walk`` is the reference loop, draw for draw: same end,
    hops and outcome, and the same rng state afterwards."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ops=st.integers(1, 120),
        length=st.integers(0, 40),
        exclude=st.sampled_from(["none", "start", "adjacent", "apart"]),
        stop=st.sampled_from(["none", "set", "never"]),
    )
    def test_same_walk_as_reference(
        self, seed: int, ops: int, length: int, exclude: str, stop: str
    ) -> None:
        rng = random.Random(seed)
        graph = DynamicMultigraph()
        _apply_random_ops(graph, rng, ops)  # self-loops, multiplicities, stale CDFs
        live = sorted(graph.nodes())
        if not live:
            return
        start = rng.choice(live)
        near = sorted({v for v, _ in graph.neighbor_multiplicities(start)} - {start})
        apart = sorted(set(live) - set(near) - {start})
        excluded = frozenset(
            {"start": [start], "adjacent": near[:1], "apart": apart[:1]}.get(exclude, [])
        )
        members = {u for u in live if rng.random() < 0.3}
        predicate = {"set": members.__contains__, "never": lambda u: False}.get(stop)
        ours, theirs = random.Random(seed + 1), random.Random(seed + 1)
        result = random_walk(graph, start, length, ours, stop=predicate, excluded=excluded)
        expect = reference_walk(graph, start, length, theirs, stop=predicate, excluded=excluded)
        assert (result.end, result.hops, result.found) == expect
        assert ours.getstate() == theirs.getstate()

    def test_filtered_scan_only_next_to_an_excluded_node(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        g = pcycle_graph(53)
        excluded = frozenset({7})
        scanned_at: list[int] = []
        scan = walks._weighted_step

        def spy(
            graph: DynamicMultigraph, at: int, rng: random.Random, excl: frozenset[int]
        ) -> int | None:
            scanned_at.append(at)
            return scan(graph, at, rng, excl)

        monkeypatch.setattr(walks, "_weighted_step", spy)
        rng = random.Random(5)
        for start in range(0, 53, 4):
            random_walk(g, start, 40, rng, excluded=excluded)
        neighbors_of_7 = {v for v, _ in g.neighbor_multiplicities(7)}
        assert scanned_at and set(scanned_at) <= neighbors_of_7

    def test_inlined_draw_is_randrange(self) -> None:
        """Tripwire for the copy of ``Random._randbelow_with_getrandbits``
        in the walk loop: a one-hop walk from the centre of a star with
        leaves ``1..n`` lands on leaf ``randrange(n) + 1``, with the rng
        left where ``randrange`` leaves it.  If a CPython release changes
        how ``randrange`` draws, this fails instead of the paper's cost
        units drifting silently."""
        g = DynamicMultigraph()
        g.add_node(0)
        pairs = [(random.Random(seed), random.Random(seed)) for seed in range(5)]
        for n in range(1, 4097):
            g.add_node(n)
            g.add_edge(0, n)
            for ours, theirs in pairs:
                assert random_walk(g, 0, 1, ours).end == theirs.randrange(n) + 1
                assert ours.getstate() == theirs.getstate()


class TestParallelWalks(object):
    """Fixed-length waves: ``run_wave`` with an empty member set."""

    def test_all_tokens_complete(self):
        p = 53
        g = pcycle_graph(p)
        starts = list(range(p))
        length = 2 * math.ceil(math.log2(p))
        ends, founds, hops, rounds = run_wave(g, starts, length, (), random.Random(8))
        assert len(ends) == p and not any(founds)
        assert hops == p * length
        assert rounds >= length

    def test_lemma11_round_bound(self):
        """n simultaneous walks of Theta(log n) complete in O(log^2 n)
        rounds (Lemma 11); check with a generous constant."""
        p = 101
        g = pcycle_graph(p)
        length = math.ceil(math.log2(p))
        *_, rounds = run_wave(g, list(range(p)), length, (), random.Random(9))
        assert rounds <= 30 * math.ceil(math.log2(p)) ** 2

    def test_single_token_no_congestion(self):
        g = pcycle_graph(23)
        *_, rounds = run_wave(g, [0], 10, (), random.Random(10))
        assert rounds == 10


class TestScheduledWalks:
    """Congestion scheduling of a wave (per-token stops and exclusions
    are ``TestRunWave``'s)."""

    def test_zero_length_tokens_finish_instantly(self):
        g = pcycle_graph(23)
        ends, founds, hops, rounds = run_wave(g, [3], 0, (), random.Random(7))
        assert rounds == 0
        assert ends == [3] and founds == [False]
        assert hops == 0

    def test_congestion_blocks_are_retried(self):
        """Tokens forced over the same two-node bridge: with only one
        directed edge each way, at most one advances per round, so
        completion takes more rounds than the walk length."""
        g = DynamicMultigraph()
        g.add_node(0)
        g.add_node(1)
        g.add_edge(0, 1)
        *_, rounds = run_wave(g, [0, 0, 0], 4, (), random.Random(8))
        assert rounds > 4


class TestRunWave:
    """The specialized membership-set wave used by core.multi."""

    def test_found_tokens_end_in_member_set(self):
        g = pcycle_graph(53)
        members = set(range(0, 53, 3))
        ends, founds, hops, rounds = run_wave(
            g, list(range(0, 53, 5)), 100, members, random.Random(9)
        )
        assert all(founds)
        assert all(end in members for end in ends)
        assert hops >= len(ends)
        assert rounds >= 1

    def test_excluded_node_never_entered(self):
        g = pcycle_graph(23)
        # member set == the excluded node: the token can never stop there
        ends, founds, _, _ = run_wave(
            g, [0], 40, {1}, random.Random(10), excluded=[1]
        )
        assert founds == [False]
        assert ends[0] != 1

    def test_empty_member_set_walks_full_length(self):
        g = pcycle_graph(23)
        ends, founds, hops, rounds = run_wave(
            g, [0, 5], 12, frozenset(), random.Random(11)
        )
        assert founds == [False, False]
        assert hops == 24
        assert rounds >= 12


def random_multigraph(rng: random.Random) -> DynamicMultigraph:
    g = DynamicMultigraph()
    n = rng.randrange(3, 40)
    for u in range(n):
        g.add_node(u)
    for _ in range(rng.randrange(n, 4 * n)):
        g.add_edge(rng.randrange(n), rng.randrange(n), mult=rng.randrange(1, 3))
    return g


class TestWaveEngines:
    """The lockstep vector engine vs. the scalar reference: one draw
    protocol, bit-identical transcripts for a fixed seed."""

    def wave_args(self, rng: random.Random, g: DynamicMultigraph):
        n = g.num_nodes
        k = rng.randrange(1, 30)
        starts = [rng.randrange(n) for _ in range(k)]
        length = rng.randrange(0, 12)
        members = {u for u in range(n) if rng.random() < 0.2}
        excluded = [
            rng.randrange(n) if rng.random() < 0.5 else None for _ in range(k)
        ]
        return starts, length, members, excluded

    def test_engines_are_transcript_identical(self):
        for seed in range(40):
            rng = random.Random(seed)
            g = random_multigraph(rng)
            starts, length, members, excluded = self.wave_args(rng, g)
            scalar_t: list = []
            vector_t: list = []
            scalar = run_wave(
                g, starts, length, members, random.Random(7 * seed + 1),
                excluded, engine="scalar", transcript=scalar_t,
            )
            vector = run_wave(
                g, starts, length, members, random.Random(7 * seed + 1),
                excluded, engine="vector", transcript=vector_t,
            )
            assert list(scalar[0]) == list(vector[0]), seed
            assert list(scalar[1]) == list(vector[1]), seed
            assert scalar[2:] == vector[2:], seed
            assert scalar_t == vector_t, seed

    def test_tokens_on_edgeless_rows_are_stuck_in_both_engines(self):
        # the only rows the wave ever reads are empty, so the vector
        # engine's neighbour pool has no entries at all
        g = DynamicMultigraph()
        for u in range(4):
            g.add_node(u)
        g.add_edge(2, 3)
        results = [
            run_wave(g, [0, 1, 0], 5, {3}, random.Random(1), engine=engine)
            for engine in ("scalar", "vector")
        ]
        assert results[0] == results[1]
        assert list(results[0][0]) == [0, 1, 0] and results[0][2] == 0

    def test_auto_engine_matches_forced_engines(self):
        g = pcycle_graph(53)
        starts = list(range(53)) * 5  # above VECTOR_MIN_TOKENS
        members = set(range(0, 53, 9))
        auto = run_wave(g, starts, 20, members, random.Random(3))
        forced = run_wave(g, starts, 20, members, random.Random(3), engine="vector")
        assert (list(auto[0]), list(auto[1]), auto[2], auto[3]) == (
            list(forced[0]), list(forced[1]), forced[2], forced[3],
        )

    def test_unknown_engine_rejected(self):
        g = pcycle_graph(23)
        with pytest.raises(TopologyError, match="wave engine"):
            run_wave(g, [0], 5, set(), random.Random(0), engine="simd")

    def test_dead_start_rejected_by_both_engines(self):
        g = pcycle_graph(23)
        for engine in ("scalar", "vector"):
            with pytest.raises(TopologyError, match="does not exist"):
                run_wave(g, [0, 999], 5, set(), random.Random(0), engine=engine)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), engine=st.sampled_from(["scalar", "vector"]))
    def test_no_directed_edge_double_booked(self, seed: int, engine: str):
        """Lemma 11's congestion rule, checked from the transcript: in
        any round, at most one token crosses each directed edge (the
        edge-claim arrays must never double-book)."""
        rng = random.Random(seed)
        g = random_multigraph(rng)
        starts, length, members, excluded = self.wave_args(rng, g)
        transcript: list = []
        run_wave(
            g, starts, length, members, random.Random(seed + 1),
            excluded, engine=engine, transcript=transcript,
        )
        prev = list(starts)
        for positions, claimed in transcript:
            crossings = [
                (a, b) for a, b in zip(prev, positions) if a != b
            ]
            assert len(crossings) == len(set(crossings)), (
                f"directed edge double-booked in round: {crossings}"
            )
            # every actual crossing was claimed, and claims are unique
            assert set(crossings) <= set(claimed)
            assert len(claimed) == len(set(claimed))
            prev = list(positions)
