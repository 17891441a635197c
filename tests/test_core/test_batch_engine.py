"""The batch-parallel healing engine (PR 2): batched churn must heal
through congestion-synchronous token waves while preserving exactly the
invariants sequential healing guarantees -- I1-I8 via the coordinator's
``verify()`` oracle and every incremental cache via
``check_cached_aggregates`` -- including across type-2 threshold breaks.
"""

from __future__ import annotations

import random

import pytest

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.multi import delete_batch, insert_batch
from repro.errors import AdversaryError
from repro.types import Layer, RecoveryType


def batch_net(n0: int = 24, seed: int = 61, **overrides) -> DexNetwork:
    config = DexConfig(seed=seed, type2_mode="simplified", validate_every_step=False)
    return DexNetwork.bootstrap(n0, config.with_(**overrides), seed=seed)


def checked(net: DexNetwork) -> None:
    """The full oracle stack: I1-I8, every cache audit, and the
    coordinator counters (I8 via ``verify()``)."""
    invariants.check_all(net.overlay, net.config)
    assert net.coordinator.verify(), "coordinator counters diverged"


def random_insert_batch(net: DexNetwork, rng: random.Random, size: int):
    per_host: dict[int, int] = {}
    pairs = []
    base = net.fresh_id()
    for i in range(size):
        host = net.sample_node(rng)
        while per_host.get(host, 0) >= 4:
            host = net.sample_node(rng)
        per_host[host] = per_host.get(host, 0) + 1
        pairs.append((base + i, host))
    return pairs


def random_victims(net: DexNetwork, rng: random.Random, size: int) -> list[int]:
    victims: set[int] = set()
    while len(victims) < size:
        victims.add(net.sample_node(rng))
    return sorted(victims)


class TestMixedBatchChurn:
    def test_200_mixed_batches_preserve_invariants(self):
        """200 mixed insert/delete batches under the simplified type-2
        procedures, crossing inflation AND deflation threshold breaks,
        with the full oracle after every batch."""
        net = batch_net(n0=24)
        rng = random.Random(99)
        p_seen = {net.p}
        kinds = set()
        for step in range(200):
            # Phase schedule: grow hard (forces inflation), then shrink
            # toward the minimum with p stuck high (loads climb past the
            # Low threshold, forcing deflation), then mixed churn.
            if step < 80:
                grow = rng.random() < (0.85 if net.size < 150 else 0.3)
            elif step < 150:
                grow = net.size <= 6
            else:
                grow = rng.random() < 0.5
            size = rng.randint(2, max(2, min(12, net.size // 4)))
            if grow:
                report = insert_batch(net, random_insert_batch(net, rng, size))
            else:
                size = min(size, net.size - net.config.min_network_size)
                if size < 1:
                    continue
                try:
                    report = delete_batch(net, random_victims(net, rng, size))
                except AdversaryError:
                    # A random victim set may genuinely disconnect a
                    # small remainder; the model forbids it, so the
                    # batch is rejected wholesale -- draw another one.
                    continue
            kinds.add(report.recovery)
            p_seen.add(net.p)
            checked(net)
        # The run must actually have crossed type-2 territory.
        assert len(p_seen) >= 3, f"expected cycle swaps, saw primes {p_seen}"
        assert RecoveryType.TYPE2_INFLATE in kinds
        assert RecoveryType.TYPE2_DEFLATE in kinds

    def test_batches_during_staggered_op(self):
        """Batches arriving while a staggered type-2 operation is in
        flight ride the staggered machinery without breaking it."""
        net = DexNetwork.bootstrap(
            24, DexConfig(seed=7, type2_mode="staggered"), seed=7
        )
        rng = random.Random(3)
        crossed = False
        for _ in range(120):
            insert_batch(net, random_insert_batch(net, rng, 4))
            crossed = crossed or net.staggered is not None
            checked(net)
        assert crossed, "no staggered op was ever in flight"

    def test_batch_and_sequential_agree_on_invariants(self):
        """Differential check: the same adversarial schedule healed
        batched and one-node-at-a-time ends at the same size and p with
        all invariants intact in both."""
        seq = batch_net(n0=32, seed=5)
        bat = batch_net(n0=32, seed=5)
        rng_s, rng_b = random.Random(17), random.Random(17)
        for _ in range(40):
            pairs_s = random_insert_batch(seq, rng_s, 6)
            pairs_b = random_insert_batch(bat, rng_b, 6)
            for u, v in pairs_s:
                seq.insert(node_id=u, attach_to=v)
            insert_batch(bat, pairs_b)
            victims_s = random_victims(seq, rng_s, 4)
            victims_b = random_victims(bat, rng_b, 4)
            for u in victims_s:
                seq.delete(u)
            try:
                delete_batch(bat, victims_b)
            except AdversaryError:
                # Model-level rejection (the set would disconnect the
                # remainder); fall back to single steps to keep the two
                # networks the same size.
                for u in victims_b:
                    bat.delete(u)
            checked(seq)
            checked(bat)
        assert seq.size == bat.size


class TestBatchValidation:
    def test_bad_attach_point_leaves_no_partial_mutation(self):
        """The PR 1 bug: attach-point existence was validated inside the
        mutation loop, so a bad entry mid-batch left earlier insertions
        applied.  The whole batch must now be rejected up front."""
        net = batch_net()
        before_size = net.size
        before_changes = net.graph.topology_changes
        base = net.fresh_id()
        hosts = sorted(net.nodes())
        pairs = [(base, hosts[0]), (base + 1, hosts[1]), (base + 2, 424242)]
        with pytest.raises(AdversaryError, match="attach point"):
            insert_batch(net, pairs)
        assert net.size == before_size
        assert net.graph.topology_changes == before_changes
        assert not net.graph.has_node(base)
        checked(net)

    def test_duplicate_new_id_rejected_without_mutation(self):
        net = batch_net()
        before = net.graph.topology_changes
        base = net.fresh_id()
        hosts = sorted(net.nodes())
        with pytest.raises(AdversaryError, match="repeated"):
            insert_batch(net, [(base, hosts[0]), (base, hosts[1])])
        assert net.graph.topology_changes == before

    def test_validate_batches_off_skips_connectivity_check(self):
        net = batch_net(validate_batches=False)
        rng = random.Random(8)
        delete_batch(net, random_victims(net, rng, 4))
        checked(net)


class TestBatchAccounting:
    def test_rounds_are_scheduler_rounds(self):
        """Rounds must come from the congestion scheduler, not a
        post-hoc max: a healthy batch completes in a handful of wave
        rounds, far below the sum of sequential walk lengths."""
        net = batch_net(n0=64)
        rng = random.Random(21)
        report = insert_batch(net, random_insert_batch(net, rng, 12))
        assert report.costs.walks == 12
        assert 0 < report.rounds <= net.config.walk_length(net.size) * 4
        assert report.costs.walk_hops >= 12  # every token hopped at least once

    def test_batch_report_kind_and_recovery(self):
        net = batch_net(n0=24)
        rng = random.Random(2)
        report = insert_batch(net, random_insert_batch(net, rng, 4))
        assert report.recovery in (
            RecoveryType.TYPE1,
            RecoveryType.TYPE2_INFLATE,
            RecoveryType.TYPE1_DURING_STAGGER,
        )


class TestBulkAdoption:
    def test_adopt_node_matches_per_vertex_moves(self):
        """The bulk contraction primitive must land in exactly the state
        the per-vertex move loop produces."""
        a = batch_net(n0=20, seed=13)
        b = batch_net(n0=20, seed=13)
        victim = max(a.nodes())
        neighbor = min(
            w for w in a.graph.distinct_neighbors(victim) if w != victim
        )
        # bulk path
        moved = a.overlay.adopt_node(victim, neighbor)
        # reference path: one move per vertex, then drop the node
        for z in sorted(b.overlay.old.vertices_of(victim)):
            b.overlay.move(Layer.OLD, z, neighbor)
        b.graph.remove_node(victim)
        assert moved == sorted(
            z for z, h in enumerate(b.overlay.old.host) if h == neighbor
        ) or set(moved) <= set(b.overlay.old.vertices_of(neighbor))
        assert sorted(a.nodes()) == sorted(b.nodes())
        for u in a.nodes():
            assert a.graph.degree(u) == b.graph.degree(u)
            assert dict(a.graph._adj[u]) == dict(b.graph._adj[u])
        assert a.graph.num_edge_units == b.graph.num_edge_units
        assert a.graph.num_connections == b.graph.num_connections
        a.graph.verify_caches()
        invariants.check_cached_aggregates(a.overlay)
