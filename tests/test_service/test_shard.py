"""One shard of the sharded membership service: region arithmetic,
the synchronous flush loop, the TTL'd reservation/pin tables behind the
two-phase handoff, deadline sweeps, and per-shard checkpoint/restore --
all driven in-process with a fake clock."""

from __future__ import annotations

import pytest

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import ShardError
from repro.service.shard import (
    DEADLINE_REASON,
    PINNED_REASON,
    RESERVED_REASON,
    SHARD_STRIDE,
    ShardMap,
    ShardServer,
    build_shard,
)


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def shard_net(index: int, *, shards: int = 2, n0: int = 16, seed: int = 7):
    shard_map = ShardMap(shards)
    config = DexConfig(seed=seed)
    net = DexNetwork.bootstrap(
        n0, config, seed=seed, id_base=shard_map.id_base(index)
    )
    return net, shard_map


def make_server(
    index: int = 0, *, shards: int = 2, n0: int = 16, clock=None, **kw
) -> ShardServer:
    net, shard_map = shard_net(index, shards=shards, n0=n0)
    return ShardServer(
        index,
        net,
        shard_map=shard_map,
        max_batch=8,
        window_ms=0.0,
        clock=clock or FakeClock(),
        **kw,
    )


def flush_all(server: ShardServer) -> list[dict]:
    acks: list[dict] = []
    while server.queue_depth:
        acks.extend(server.flush())
    return acks


class TestShardMap:
    def test_owner_is_pure_region_arithmetic(self):
        shard_map = ShardMap(4)
        for index in range(4):
            base = index * SHARD_STRIDE
            assert shard_map.owner(base) == index
            assert shard_map.owner(base + SHARD_STRIDE - 1) == index
            assert shard_map.id_base(index) == base
            assert shard_map.region(index) == (base, base + SHARD_STRIDE)

    def test_ids_outside_every_region_raise(self):
        shard_map = ShardMap(2)
        with pytest.raises(ShardError):
            shard_map.owner(-1)
        with pytest.raises(ShardError):
            shard_map.owner(2 * SHARD_STRIDE)
        with pytest.raises(ShardError):
            shard_map.region(2)

    def test_at_least_one_shard(self):
        with pytest.raises(ShardError):
            ShardMap(0)


class TestFlushLoop:
    def test_bootstrap_lives_inside_owned_region(self):
        server = make_server(index=1)
        lo, hi = server.region
        assert lo == SHARD_STRIDE
        assert all(lo <= u < hi for u in server.net.nodes())

    def test_join_and_leave_acks_are_rid_correlated(self):
        server = make_server()
        server.submit(11, "join", None, None)
        server.submit(12, "join", None, None)
        acks = flush_all(server)
        assert sorted(a["rid"] for a in acks) == [11, 12]
        assert all(a["ok"] for a in acks)
        lo, hi = server.region
        for ack in acks:
            assert lo <= ack["node"] < hi
            assert server.net.graph.has_node(ack["node"])
        victim = acks[0]["node"]
        server.submit(13, "leave", victim, None)
        (leave,) = flush_all(server)
        assert leave["rid"] == 13 and leave["ok"]
        assert not server.net.graph.has_node(victim)

    def test_pinned_join_keeps_its_id(self):
        server = make_server()
        target = server.net.fresh_id()
        server.submit(1, "join", target, None)
        (ack,) = flush_all(server)
        assert ack["ok"] and ack["node"] == target
        assert server.net.graph.has_node(target)

    def test_expired_deadline_swept_not_healed(self):
        clock = FakeClock()
        server = make_server(clock=clock)
        size_before = server.net.size
        server.submit(5, "join", None, None, deadline_s=0.5)
        clock.advance(1.0)
        acks = server.sweep()
        assert [a["rid"] for a in acks] == [5]
        assert not acks[0]["ok"]
        assert acks[0]["reason"] == DEADLINE_REASON
        assert server.queue_depth == 0
        assert server.net.size == size_before
        assert server.metrics.snapshot()["deadline_timeouts"] == 1

    def test_audit_passes_and_flags_stray_ids(self):
        server = make_server()
        assert server.audit()["invariants_ok"]
        # smuggle an id from the neighbour's region into the partition
        stray = SHARD_STRIDE + 99
        host = next(iter(server.net.nodes()))
        server.net.insert_batch_partial([(stray, host)])
        row = server.audit()
        assert not row["invariants_ok"]
        assert any("outside owned region" in e for e in row["errors"])


class TestReservations:
    def test_reserved_id_refuses_foreign_joins_until_commit(self):
        server = make_server()
        target = server.net.fresh_id()
        assert server.reserve(41, target, ttl_s=5.0)["ok"]
        # a concurrent join of the reserved id is rejected cleanly
        server.submit(99, "join", target, None)
        (rejected,) = flush_all(server)
        assert not rejected["ok"]
        assert RESERVED_REASON in rejected["reason"]
        # the reserving handoff's own commit goes through
        server.submit(41, "join", target, None, commit=True)
        (committed,) = flush_all(server)
        assert committed["ok"] and committed["node"] == target
        assert server.handoffs_committed == 1
        assert target not in server.reservations  # consumed either way

    def test_fresh_ids_skip_reserved_ones(self):
        server = make_server()
        target = server.net.fresh_id()
        assert server.reserve(41, target, ttl_s=5.0)["ok"]
        server.submit(42, "join", None, None)
        (ack,) = flush_all(server)
        assert ack["ok"] and ack["node"] != target

    def test_reserve_refuses_foreign_live_and_held_ids(self):
        server = make_server()
        live = next(iter(server.net.nodes()))
        assert not server.reserve(1, live, ttl_s=5.0)["ok"]
        foreign = SHARD_STRIDE + 7  # the other shard's region
        nak = server.reserve(2, foreign, ttl_s=5.0)
        assert not nak["ok"] and "does not own" in nak["reason"]
        target = server.net.fresh_id()
        assert server.reserve(3, target, ttl_s=5.0)["ok"]
        assert server.reserve(3, target, ttl_s=5.0)["ok"]  # idempotent
        other = server.reserve(4, target, ttl_s=5.0)
        assert not other["ok"] and RESERVED_REASON in other["reason"]

    def test_release_only_for_the_holding_handoff(self):
        server = make_server()
        target = server.net.fresh_id()
        server.reserve(5, target, ttl_s=5.0)
        server.release(6, target)  # not the holder: no-op
        assert target in server.reservations
        server.release(5, target)
        assert target not in server.reservations

    def test_reservation_expiry_frees_the_id(self):
        clock = FakeClock()
        server = make_server(clock=clock)
        target = server.net.fresh_id()
        server.reserve(7, target, ttl_s=1.0)
        clock.advance(2.0)
        server.sweep()
        assert server.reservations_expired == 1
        assert target not in server.reservations
        server.submit(8, "join", target, None)
        (ack,) = flush_all(server)
        assert ack["ok"]  # never stranded

    def test_commit_after_expiry_is_a_clean_rejection(self):
        clock = FakeClock()
        server = make_server(clock=clock)
        target = server.net.fresh_id()
        server.reserve(9, target, ttl_s=1.0)
        clock.advance(2.0)
        server.submit(9, "join", target, None, commit=True)
        (ack,) = flush_all(server)
        assert not ack["ok"]
        assert "expired before commit" in ack["reason"]
        assert not server.net.graph.has_node(target)


class TestPins:
    def test_pinned_hint_survives_deletion_until_unpin(self):
        server = make_server()
        hint = next(iter(server.net.nodes()))
        assert server.pin(21, hint, ttl_s=5.0)["ok"]
        server.submit(22, "leave", hint, None)
        (rejected,) = flush_all(server)
        assert not rejected["ok"] and PINNED_REASON in rejected["reason"]
        assert server.net.graph.has_node(hint)
        server.unpin(21, hint)
        server.submit(23, "leave", hint, None)
        (ack,) = flush_all(server)
        assert ack["ok"]
        assert not server.net.graph.has_node(hint)

    def test_pin_of_missing_node_naks(self):
        server = make_server()
        nak = server.pin(24, server.net.fresh_id(), ttl_s=5.0)
        assert not nak["ok"] and "does not exist" in nak["reason"]

    def test_concurrent_handoffs_hold_independent_pins(self):
        # Two handoffs pin the same attach hint: the first one's unpin
        # must not drop the second one's deletion protection.
        server = make_server()
        hint = next(iter(server.net.nodes()))
        assert server.pin(31, hint, ttl_s=5.0)["ok"]
        assert server.pin(32, hint, ttl_s=5.0)["ok"]
        server.unpin(31, hint)
        server.submit(33, "leave", hint, None)
        (rejected,) = flush_all(server)
        assert not rejected["ok"] and PINNED_REASON in rejected["reason"]
        assert server.net.graph.has_node(hint)
        server.unpin(32, hint)
        server.submit(34, "leave", hint, None)
        (ack,) = flush_all(server)
        assert ack["ok"]

    def test_pin_expires_per_holder_on_the_clock(self):
        # A long-TTL pin outlives a short-TTL pin on the same hint.
        clock = FakeClock()
        server = make_server(clock=clock)
        hint = next(iter(server.net.nodes()))
        server.pin(41, hint, ttl_s=1.0)
        server.pin(42, hint, ttl_s=10.0)
        clock.advance(2.0)
        server.submit(43, "leave", hint, None)
        (rejected,) = flush_all(server)
        assert not rejected["ok"] and PINNED_REASON in rejected["reason"]

    def test_pin_expires_on_the_clock(self):
        clock = FakeClock()
        server = make_server(clock=clock)
        hint = next(iter(server.net.nodes()))
        server.pin(25, hint, ttl_s=1.0)
        clock.advance(2.0)
        server.submit(26, "leave", hint, None)
        (ack,) = flush_all(server)
        assert ack["ok"]


class TestCheckpointRestore:
    def test_restore_rebuilds_the_same_partition(self, tmp_path):
        server = make_server(index=1, checkpoint_dir=tmp_path)
        server.submit(1, "join", None, None)
        server.submit(2, "join", None, None)
        flush_all(server)
        assert server.checkpoint() is not None
        restored = build_shard(
            {
                "index": 1,
                "shards": 2,
                "seed": 7,
                "checkpoint_dir": str(tmp_path),
                "restore": True,
            }
        )
        assert restored.index == 1
        assert restored.region == server.region
        assert sorted(restored.net.nodes()) == sorted(server.net.nodes())
        assert restored.audit()["invariants_ok"]
