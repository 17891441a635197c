"""The shard router over inline (in-process) shard handles: routing
rules, the two-phase cross-shard handoff with every unwind path, crash
containment with answered rejections, restart/rebalance, the cluster
ownership audit, and the cross-shard metrics rollup -- all deterministic,
no worker processes."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import GatewayClosed
from repro.service.router import InlineShardHandle, ShardRouter
from repro.service.shard import (
    DEADLINE_REASON,
    MSG_CONTROL,
    RESERVED_REASON,
    SHARD_STRIDE,
    ShardMap,
    ShardServer,
)


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_server(index: int, shard_map: ShardMap, *, clock, n0: int = 16):
    config = DexConfig(seed=7 + index)
    net = DexNetwork.bootstrap(
        n0, config, seed=7 + index, id_base=shard_map.id_base(index)
    )
    return ShardServer(
        index, net, shard_map=shard_map, max_batch=8, window_ms=0.0, clock=clock
    )


def make_cluster(shards: int = 2, *, clock=None, **router_kw):
    clock = clock or FakeClock()
    shard_map = ShardMap(shards)
    servers = [make_server(i, shard_map, clock=clock) for i in range(shards)]
    router = ShardRouter(
        [InlineShardHandle(s) for s in servers],
        shard_map=shard_map,
        clock=clock,
        **router_kw,
    )
    return router, servers, clock


def run(coro):
    return asyncio.run(coro)


class TestRouting:
    def test_leave_routes_to_the_victims_owner(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                victim = max(servers[1].net.nodes())
                ack = await router.leave(victim)
                assert ack.ok
                assert not servers[1].net.graph.has_node(victim)
            finally:
                await router.drain()

        run(scenario())

    def test_hinted_join_follows_the_hints_owner(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                size_before = servers[1].net.size
                hint = min(servers[1].net.nodes())
                ack = await router.join(attach_hint=hint)
                assert ack.ok
                assert router.shard_map.owner(ack.node) == 1
                assert servers[1].net.size == size_before + 1
            finally:
                await router.drain()

        run(scenario())

    def test_unpinned_joins_round_robin_over_shards(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                before = [s.net.size for s in servers]
                acks = [await router.join() for _ in range(4)]
                assert all(a.ok for a in acks)
                grew = [s.net.size - b for s, b in zip(servers, before)]
                assert grew == [2, 2]
            finally:
                await router.drain()

        run(scenario())

    def test_join_outside_every_region_is_a_door_rejection(self):
        async def scenario():
            router, _, _ = make_cluster()
            await router.start()
            try:
                ack = await router.join(node_id=2 * SHARD_STRIDE)
                assert not ack.ok and "outside every shard region" in ack.reason
            finally:
                await router.drain()

        run(scenario())


class TestHandoff:
    def test_cross_shard_join_commits_and_audits_clean(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                node = servers[0].net.fresh_id()
                hint = min(servers[1].net.nodes())
                ack = await router.join(node_id=node, attach_hint=hint)
                assert ack.ok and ack.node == node
                assert servers[0].net.graph.has_node(node)
                assert not servers[1].net.graph.has_node(node)
                ledger = router.handoff_stats()
                assert ledger["attempted"] == ledger["committed"] == 1
                assert ledger["in_flight"] == 0
                assert not servers[0].reservations and not servers[1].pins
                audit = await router.cluster_audit()
                assert audit["ok"], audit["errors"]
            finally:
                await router.drain()

        run(scenario())

    def test_handoff_ledger_lives_in_the_registry(self):
        """One store per fact: the handoff counters are registry
        instruments, so with no publish step the registry holds what
        handoff_stats() reports."""

        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                hint = min(servers[1].net.nodes())
                ghost = servers[1].net.fresh_id()  # owned, not live
                await router.join(node_id=servers[0].net.fresh_id(), attach_hint=hint)
                await router.join(node_id=servers[0].net.fresh_id(), attach_hint=ghost)
                return router.handoff_stats(), router.metrics.registry.as_dict()
            finally:
                await router.drain()

        stats, exposed = run(scenario())
        assert stats["attempted"] == 2
        assert stats["committed"] == stats["rejected"] == 1
        for name in ("attempted", "committed", "rejected", "expired", "shard_failures"):
            assert exposed["counters"][f"dex.handoffs.{name}"] == stats[name]

    def test_missing_hint_unwinds_the_reservation(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                node = servers[0].net.fresh_id()
                ghost = servers[1].net.fresh_id()  # owned, not live
                ack = await router.join(node_id=node, attach_hint=ghost)
                assert not ack.ok and "does not exist" in ack.reason
                assert not servers[0].net.graph.has_node(node)
                assert not servers[0].reservations  # released, not expired
                assert router.handoff_stats()["rejected"] == 1
                assert router.handoff_stats()["in_flight"] == 0
            finally:
                await router.drain()

        run(scenario())

    def test_live_target_id_refuses_the_reserve(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                node = min(servers[0].net.nodes())  # already live
                hint = min(servers[1].net.nodes())
                ack = await router.join(node_id=node, attach_hint=hint)
                assert not ack.ok and "already exists" in ack.reason
                assert router.handoff_stats()["rejected"] == 1
            finally:
                await router.drain()

        run(scenario())

    def test_deadline_expiring_mid_handoff_releases_and_answers(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                node = servers[0].net.fresh_id()
                hint = min(servers[1].net.nodes())
                ack = await router.join(
                    node_id=node, attach_hint=hint, deadline_ms=0.0
                )
                assert not ack.ok and ack.reason == DEADLINE_REASON
                assert router.handoff_stats()["expired"] == 1
                assert not servers[0].reservations
                assert not servers[0].net.graph.has_node(node)
            finally:
                await router.drain()

        run(scenario())

    def test_crashed_handoffs_reservation_expires_id_joinable(self):
        """A router that died between reserve and commit leaves only a
        TTL'd reservation behind: joins are refused while it lives and
        succeed after expiry -- the id is delayed, never stranded."""

        async def scenario():
            router, servers, clock = make_cluster()
            await router.start()
            try:
                node = servers[0].net.fresh_id()
                # the orphaned phase-1 of a handoff whose router died
                assert servers[0].reserve(10_000, node, ttl_s=1.0)["ok"]
                hint = min(servers[0].net.nodes())
                refused = await router.join(node_id=node, attach_hint=hint)
                assert not refused.ok and RESERVED_REASON in refused.reason
                clock.advance(2.0)
                recovered = await router.join(node_id=node, attach_hint=hint)
                assert recovered.ok and recovered.node == node
                assert servers[0].reservations_expired == 1
            finally:
                await router.drain()

        run(scenario())


class TestFailureContainment:
    def test_dead_shard_is_answered_and_out_of_rotation(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                victim_node = min(servers[1].net.nodes())
                router.handles[1].kill()
                await asyncio.sleep(0.05)  # let the reader see EOF
                assert not router.shard_is_live(1)
                assert router.handoff_stats()["shard_failures"] == 1
                # the dead region answers -- a rejection, not a hang
                ack = await router.leave(victim_node)
                assert not ack.ok and "shard 1 unavailable" in ack.reason
                # rotation shrinks to the survivors
                before = servers[0].net.size
                acks = [await router.join() for _ in range(3)]
                assert all(a.ok for a in acks)
                assert servers[0].net.size == before + 3
            finally:
                await router.drain()

        run(scenario())

    def test_restarted_shard_rejoins_the_rotation(self):
        async def scenario():
            router, servers, clock = make_cluster()
            await router.start()
            try:
                router.handles[1].kill()
                await asyncio.sleep(0.05)
                assert not router.shard_is_live(1)
                replacement = make_server(1, router.shard_map, clock=clock)
                ready = await router.restart_shard(
                    1, InlineShardHandle(replacement)
                )
                assert ready["shard"] == 1
                assert router.shard_is_live(1)
                victim = max(replacement.net.nodes())
                ack = await router.leave(victim)
                assert ack.ok
                assert not replacement.net.graph.has_node(victim)
            finally:
                await router.drain()

        run(scenario())


class TestAuditAndStats:
    def test_cluster_audit_catches_cross_region_strays(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                stray = SHARD_STRIDE + 99  # shard 1's id, planted on shard 0
                host = min(servers[0].net.nodes())
                servers[0].net.insert_batch_partial([(stray, host)])
                audit = await router.cluster_audit()
                assert not audit["ok"]
                assert any("outside owned region" in e for e in audit["errors"])
            finally:
                await router.drain()

        run(scenario())

    def test_stats_rollup_sums_shards(self):
        async def scenario():
            router, servers, _ = make_cluster()
            await router.start()
            try:
                for _ in range(4):
                    assert (await router.join()).ok
                stats = await router.stats()
                assert stats["rollup"]["shards"] == 2
                per_shard_events = [row["events"] for row in stats["per_shard"]]
                assert stats["rollup"]["events"] == sum(per_shard_events) == 4
                assert stats["router"]["events"] == 4
            finally:
                await router.drain()

        run(scenario())

    def test_drain_closes_the_door(self):
        async def scenario():
            router, _, _ = make_cluster()
            await router.start()
            summary = await router.drain()
            assert len(summary["per_shard"]) == 2
            with pytest.raises(GatewayClosed):
                await router.join()

        run(scenario())


class WedgedShardHandle(InlineShardHandle):
    """Alive but *silent*: handoff control verbs vanish into the void
    (the pipe stays open, no EOF, no reply ever comes) -- the failure
    mode of a wedged worker, as opposed to a crashed one."""

    WEDGED = frozenset({"reserve", "pin"})

    def send(self, msg) -> None:
        kind, payload = msg
        if kind == MSG_CONTROL and payload[0] in self.WEDGED:
            return  # swallowed: no reply, no EOF
        super().send(msg)


def make_wedged_cluster(**router_kw):
    clock = FakeClock()
    shard_map = ShardMap(2)
    servers = [make_server(i, shard_map, clock=clock) for i in range(2)]
    handles = [WedgedShardHandle(servers[0]), InlineShardHandle(servers[1])]
    router = ShardRouter(
        handles,
        shard_map=shard_map,
        clock=clock,
        handoff_ttl_s=0.5,
        sweep_interval_s=0.01,
        **router_kw,
    )
    return router, servers, clock


class TestWedgedShard:
    """Regression: a shard that stops *answering* without dying used to
    hang a handoff forever at its ``reserve``/``pin`` await -- the
    deadline sweeper only covered request futures, never control
    futures, despite the module docstring's "no future ever hangs"
    claim (the hole the async-safety static rule now polices)."""

    def test_wedged_reserve_cannot_hang_the_handoff(self):
        async def scenario():
            router, servers, clock = make_wedged_cluster()
            await router.start()
            try:
                node = servers[0].net.fresh_id()
                hint = min(servers[1].net.nodes())
                task = asyncio.ensure_future(
                    router.join(node_id=node, attach_hint=hint)
                )
                await asyncio.sleep(0.05)
                assert not task.done()  # parked on the swallowed reserve
                clock.advance(1.0)  # past the handoff TTL
                ack = await asyncio.wait_for(task, timeout=5.0)
                assert not ack.ok and "unavailable" in ack.reason
                assert router.handoff_stats()["in_flight"] == 0
                assert not router._pending_ctl  # swept, not leaked
            finally:
                await router.drain()

        run(scenario())

    def test_wedged_reserve_honors_the_client_deadline(self):
        async def scenario():
            router, servers, clock = make_wedged_cluster()
            await router.start()
            try:
                node = servers[0].net.fresh_id()
                hint = min(servers[1].net.nodes())
                task = asyncio.ensure_future(
                    router.join(node_id=node, attach_hint=hint, deadline_ms=100)
                )
                await asyncio.sleep(0.05)
                assert not task.done()
                clock.advance(0.2)  # client budget (0.1s) gone, TTL not yet
                ack = await asyncio.wait_for(task, timeout=5.0)
                assert not ack.ok and ack.reason == DEADLINE_REASON
                assert router.handoff_stats()["expired"] == 1
                assert router.handoff_stats()["in_flight"] == 0
            finally:
                await router.drain()

        run(scenario())

    def test_wedged_pin_unwinds_the_reservation(self):
        async def scenario():
            clock = FakeClock()
            shard_map = ShardMap(2)
            servers = [
                make_server(i, shard_map, clock=clock) for i in range(2)
            ]
            handles = [
                InlineShardHandle(servers[0]),
                WedgedShardHandle(servers[1]),
            ]
            router = ShardRouter(
                handles,
                shard_map=shard_map,
                clock=clock,
                handoff_ttl_s=0.5,
                sweep_interval_s=0.01,
            )
            await router.start()
            try:
                node = servers[0].net.fresh_id()
                hint = min(servers[1].net.nodes())
                task = asyncio.ensure_future(
                    router.join(node_id=node, attach_hint=hint)
                )
                await asyncio.sleep(0.05)
                assert not task.done()  # reserve answered, pin swallowed
                clock.advance(1.0)
                ack = await asyncio.wait_for(task, timeout=5.0)
                assert not ack.ok
                # the phase-1 reservation was released, not stranded
                assert not servers[0].reservations
                assert not servers[0].net.graph.has_node(node)
                assert router.handoff_stats()["in_flight"] == 0
            finally:
                await router.drain()

        run(scenario())
