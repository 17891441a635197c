"""Partial-batch outcomes (PR 5): validation partitions a batch into
legal actions and per-action rejections, the legal majority heals in
one wave, and the strict all-or-nothing surface stays bit-compatible
with the historical engine."""

from __future__ import annotations

import random

import pytest

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.multi import (
    delete_batch,
    delete_batch_partial,
    insert_batch,
    insert_batch_partial,
    partition_delete_batch,
    partition_insert_batch,
)
from repro.errors import AdversaryError
from repro.persist.snapshot import state_fingerprint


def batch_net(n0: int = 24, seed: int = 61, **overrides) -> DexNetwork:
    config = DexConfig(seed=seed, type2_mode="simplified", validate_every_step=False)
    return DexNetwork.bootstrap(n0, config.with_(**overrides), seed=seed)


def checked(net: DexNetwork) -> None:
    invariants.check_all(net.overlay, net.config)
    assert net.coordinator.verify(), "coordinator counters diverged"


def assert_networks_identical(a: DexNetwork, b: DexNetwork) -> None:
    assert a.size == b.size
    assert a.p == b.p
    assert sorted(a.nodes()) == sorted(b.nodes())
    assert a.overlay.old.host == b.overlay.old.host
    assert a.overlay.old.spare == b.overlay.old.spare
    assert a.overlay.old.low == b.overlay.old.low
    for u in a.nodes():
        assert dict(a.graph._adj[u]) == dict(b.graph._adj[u])


class TestInsertPartition:
    def test_rejection_reasons(self):
        net = batch_net()
        base = net.fresh_id()
        hosts = sorted(net.nodes())
        existing = hosts[0]
        batch = [
            (base, hosts[0]),  # legal
            (base, hosts[1]),  # repeated id
            (existing, hosts[2]),  # id already exists
            (base + 1, 10**9),  # stale attach point
            (base + 2, hosts[3]),  # legal
        ]
        legal, rejected = partition_insert_batch(net, batch)
        assert legal == [(base, hosts[0]), (base + 2, hosts[3])]
        assert [(r.index, r.node) for r in rejected] == [
            (1, base),
            (2, existing),
            (3, base + 1),
        ]
        assert "repeated" in rejected[0].reason
        assert "already exists" in rejected[1].reason
        assert "attach point" in rejected[2].reason

    @pytest.mark.parametrize("bad", [-1, -(2**70), 2**63, 2**70])
    def test_ids_outside_the_host_table_are_refused_before_any_mutation(self, bad):
        # node ids live in an int64 host table with -1 for "inactive"
        net = batch_net()
        before = state_fingerprint(net)
        next_before = net._next_id
        attach = sorted(net.nodes())[0]
        with pytest.raises(AdversaryError, match=r"outside \[0, 2\*\*63\)"):
            net.insert(node_id=bad, attach_to=attach)
        with pytest.raises(AdversaryError, match=r"outside \[0, 2\*\*63\)"):
            insert_batch(net, [(bad, attach)])
        base = net.fresh_id()
        legal, rejected = partition_insert_batch(net, [(bad, attach), (base, attach)])
        assert legal == [(base, attach)]
        assert [(r.index, r.node) for r in rejected] == [(0, bad)]
        assert state_fingerprint(net) == before and net._next_id == next_before
        outcome = insert_batch_partial(net, [(bad, attach), (base, attach)])
        assert outcome.accepted == [(base, attach)]
        assert net.graph.has_node(base) and not net.graph.has_node(bad)
        checked(net)

    def test_bootstrap_ids_must_fit_the_host_table(self):
        with pytest.raises(AdversaryError, match="past 2\\*\\*63"):
            DexNetwork.bootstrap(8, id_base=2**63 - 4)
        net = DexNetwork.bootstrap(8, id_base=2**63 - 8)
        assert max(net.nodes()) == 2**63 - 1
        checked(net)

    def test_fanout_cap_rejects_fifth_attachment(self):
        net = batch_net()
        base = net.fresh_id()
        host = sorted(net.nodes())[0]
        batch = [(base + i, host) for i in range(5)]
        legal, rejected = partition_insert_batch(net, batch)
        assert len(legal) == 4
        assert [r.index for r in rejected] == [4]
        assert "more than" in rejected[0].reason

    def test_eps_n_cap_counts_accepted_entries(self):
        net = batch_net(n0=8)
        base = net.fresh_id()
        hosts = sorted(net.nodes())
        batch = [(base + i, hosts[i % 4]) for i in range(10)]
        legal, rejected = partition_insert_batch(net, batch)
        assert len(legal) == 8  # eps*n with eps = 1 and n = 8
        assert all("exceeds n=8" in r.reason for r in rejected)

    def test_partial_heals_legal_majority(self):
        net = batch_net()
        size_before = net.size
        base = net.fresh_id()
        hosts = sorted(net.nodes())
        outcome = insert_batch_partial(
            net, [(base, hosts[0]), (base + 1, 10**9), (base + 2, hosts[1])]
        )
        assert not outcome.ok
        assert outcome.report is not None
        assert [u for u, _ in outcome.accepted] == [base, base + 2]
        assert outcome.rejection_reasons() == {
            base + 1: "attach point 1000000000 does not exist"
        }
        assert net.size == size_before + 2
        checked(net)

    def test_fully_illegal_batch_runs_no_step(self):
        net = batch_net()
        steps_before = net.step_count
        changes_before = net.graph.topology_changes
        outcome = insert_batch_partial(net, [(net.fresh_id(), 10**9)])
        assert outcome.report is None and not outcome.accepted
        assert net.step_count == steps_before
        assert net.graph.topology_changes == changes_before
        checked(net)

    def test_empty_batch_partial_is_noop(self):
        net = batch_net()
        outcome = insert_batch_partial(net, [])
        assert outcome.report is None
        assert outcome.ok


class TestDeletePartition:
    def test_rejects_missing_duplicate_and_budget(self):
        net = batch_net(n0=6)
        victims = sorted(net.nodes())
        batch = [victims[0], 10**9, victims[0], victims[1], victims[2], victims[3]]
        legal, rejected, adopter = partition_delete_batch(
            net, batch, check_connectivity=False
        )
        reasons = {r.index: r.reason for r in rejected}
        assert "does not exist" in reasons[1]
        assert "already deleted" in reasons[2]
        # budget: n=6, min=3 -> at most 3 victims accepted
        assert len(legal) == 3
        assert "minimum size" in reasons[5]
        assert set(adopter) == set(legal)

    def test_no_surviving_neighbor_greedy(self):
        """A victim whose every neighbor is already accepted (or whose
        acceptance would strand an earlier victim) is rejected."""
        net = batch_net(n0=32)
        u = sorted(net.nodes())[0]
        neighborhood = [u] + sorted(net.graph.distinct_neighbors(u))
        legal, rejected, _adopter = partition_delete_batch(
            net, neighborhood, check_connectivity=False
        )
        assert len(legal) < len(neighborhood)
        assert any(
            "surviving neighbor" in r.reason for r in rejected
        ), rejected

    def test_connectivity_rejects_only_the_bridge(self):
        """Deleting the single neighbor of a freshly joined node would
        strand it; the restore sweep must reject exactly that bridge
        victim and keep the rest of the batch."""
        net = batch_net(n0=24, seed=3)
        base = net.fresh_id()
        hosts = sorted(net.nodes())
        insert_batch(net, [(base, hosts[0]), (base + 1, hosts[1])])
        leaf = next(
            (
                u
                for u in (base, base + 1)
                if len(net.graph.distinct_neighbors(u)) == 1
            ),
            None,
        )
        assert leaf is not None, "expected a single-neighbor fresh node"
        bridge = net.graph.distinct_neighbors(leaf)[0]
        others = [u for u in hosts if u not in (bridge, leaf)][:2]
        outcome = delete_batch_partial(net, [bridge] + others)
        assert outcome.accepted == others
        assert [r.node for r in outcome.rejected] == [bridge]
        assert "disconnect" in outcome.rejected[0].reason
        assert net.graph.has_node(bridge)
        checked(net)

    def test_fully_legal_partition_matches_strict_validation(self):
        net = batch_net(n0=32)
        rng = random.Random(9)
        victims = sorted(
            {net.sample_node(rng) for _ in range(4)}
        )
        legal, rejected, adopter = partition_delete_batch(net, victims)
        if rejected:  # the draw may genuinely strand/disconnect
            pytest.skip("random draw hit a genuinely illegal victim set")
        assert legal == victims
        for u in victims:
            survivors = [
                w
                for w in net.graph.distinct_neighbors(u)
                if w not in set(victims)
            ]
            assert adopter[u] == min(survivors)


class TestStrictPartialEquivalence:
    def test_strict_and_partial_agree_on_legal_batches(self):
        """For batches with no illegal entry, the strict and partial
        entry points heal to bit-identical networks with equal costs."""
        strict = batch_net(n0=32, seed=5)
        partial = batch_net(n0=32, seed=5)
        rng_s, rng_p = random.Random(17), random.Random(17)
        for _ in range(12):
            base_s, base_p = strict.fresh_id(), partial.fresh_id()
            assert base_s == base_p
            hosts_s = [strict.sample_node(rng_s) for _ in range(4)]
            hosts_p = [partial.sample_node(rng_p) for _ in range(4)]
            assert hosts_s == hosts_p
            pairs_s = [(base_s + i, h) for i, h in enumerate(hosts_s)]
            report_s = insert_batch(strict, pairs_s)
            outcome = insert_batch_partial(partial, pairs_s)
            assert outcome.ok and outcome.report is not None
            assert outcome.report.costs.messages == report_s.costs.messages
            assert outcome.report.costs.rounds == report_s.costs.rounds
            victims = sorted({strict.sample_node(rng_s) for _ in range(3)})
            victims_p = sorted({partial.sample_node(rng_p) for _ in range(3)})
            assert victims == victims_p
            try:
                report_s = delete_batch(strict, victims)
            except AdversaryError:
                # The strict path rejected wholesale; the partition must
                # agree something is illegal (checked without healing,
                # so the twins stay aligned), then both sides skip.
                _legal, part_rejected, _ = partition_delete_batch(
                    partial, victims
                )
                assert part_rejected, "strict rejected but partition found nothing"
                continue
            outcome = delete_batch_partial(partial, victims)
            assert outcome.ok
            assert outcome.report.costs.messages == report_s.costs.messages
            assert_networks_identical(strict, partial)
            checked(strict)
            checked(partial)

    def test_strict_raises_first_partition_reason(self):
        net = batch_net()
        base = net.fresh_id()
        hosts = sorted(net.nodes())
        with pytest.raises(AdversaryError, match="attach point"):
            insert_batch(net, [(base, hosts[0]), (base + 1, 424242)])
        with pytest.raises(AdversaryError, match="repeated"):
            insert_batch(net, [(base, hosts[0]), (base, hosts[1])])
        with pytest.raises(AdversaryError, match="does not exist"):
            delete_batch(net, [hosts[0], 10**9])


class TestPartialChurnInvariants:
    def test_mixed_partial_churn_with_illegal_entries(self):
        """50 partial batches seeded with deliberate illegal entries
        (stale hosts, duplicate ids, duplicate victims) preserve the
        full oracle stack after every step."""
        net = batch_net(n0=24)
        rng = random.Random(41)
        rejected_total = 0
        for step in range(50):
            if step % 2 == 0:
                base = net.fresh_id()
                pairs = []
                for i in range(6):
                    host = (
                        10**8 + step  # stale host every third entry
                        if i == 3
                        else net.sample_node(rng)
                    )
                    pairs.append((base + (0 if i == 5 else i), host))
                outcome = insert_batch_partial(net, pairs)
            else:
                victims = list({net.sample_node(rng) for _ in range(4)})
                victims.append(victims[0])  # duplicate
                victims.append(10**9)  # missing
                outcome = delete_batch_partial(net, victims)
            rejected_total += len(outcome.rejected)
            checked(net)
        assert rejected_total >= 100  # the seeded illegal entries
