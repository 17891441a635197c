"""The membership gateway: micro-batch coalescing, per-request
outcomes, FIFO/same-node ordering, backpressure, and the differential
proof that a gateway-healed network is the same network an equivalent
offline campaign produces -- under the full I1-I8 + cache + wave-engine
audits."""

from __future__ import annotations

import asyncio

import pytest

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import GatewayClosed
from repro.service import (
    Ack,
    MembershipGateway,
    ServiceMetrics,
    ShedOldestPolicy,
    saturating_load,
)


def service_net(n0: int = 32, seed: int = 71, **overrides) -> DexNetwork:
    config = DexConfig(seed=seed)
    return DexNetwork.bootstrap(n0, config.with_(**overrides), seed=seed)


def checked(net: DexNetwork) -> None:
    """Full oracle stack: I1-I8 + every cache audit + coordinator
    counters + scalar/vector wave-engine transcript equivalence."""
    invariants.check_all(net.overlay, net.config)
    invariants.check_wave_engine_equivalence(net.overlay)
    assert net.coordinator.verify(), "coordinator counters diverged"


def run(coro):
    return asyncio.run(coro)


class TestJoinLeave:
    def test_join_heals_and_returns_assigned_id(self):
        async def scenario():
            net = service_net()
            async with MembershipGateway(net, max_batch=4, batch_window_ms=1.0) as gw:
                ack = await gw.join()
            return net, ack

        net, ack = run(scenario())
        assert ack.ok and ack.kind == "join"
        assert net.graph.has_node(ack.node)
        checked(net)

    def test_leave_heals(self):
        async def scenario():
            net = service_net()
            victim = max(net.nodes())
            async with MembershipGateway(net, max_batch=4, batch_window_ms=1.0) as gw:
                ack = await gw.leave(victim)
            return net, victim, ack

        net, victim, ack = run(scenario())
        assert ack.ok and ack.kind == "leave"
        assert not net.graph.has_node(victim)
        checked(net)

    def test_stale_attach_hint_rejected_individually(self):
        """One bad request must not poison its batch: the legal
        majority heals in the same wave, the bad one learns why."""

        async def scenario():
            net = service_net()
            size_before = net.size
            async with MembershipGateway(
                net, max_batch=4, batch_window_ms=50.0
            ) as gw:
                acks = await asyncio.gather(
                    gw.join(),
                    gw.join(attach_hint=10**9),  # no such node
                    gw.join(),
                    gw.join(),
                )
            return net, size_before, acks

        net, size_before, acks = run(scenario())
        assert [a.ok for a in acks] == [True, False, True, True]
        assert "attach point" in acks[1].reason
        assert all(a.batch_size == 4 for a in acks)
        assert net.size == size_before + 3
        checked(net)

    def test_duplicate_leave_rejected_individually(self):
        async def scenario():
            net = service_net()
            victims = sorted(net.nodes())[-2:]
            async with MembershipGateway(
                net, max_batch=4, batch_window_ms=50.0
            ) as gw:
                acks = await asyncio.gather(
                    gw.leave(victims[0]),
                    gw.leave(victims[1]),
                    gw.leave(victims[0]),  # duplicate of an accepted victim
                )
            return net, acks

        net, acks = run(scenario())
        assert [a.ok for a in acks] == [True, True, False]
        assert "already deleted" in acks[2].reason
        checked(net)


class TestMicroBatching:
    def test_full_batch_flushes_in_one_wave(self):
        """max_batch concurrent joins coalesce into exactly one
        insert_batch call (one ledger entry on the network)."""

        async def scenario():
            net = service_net()
            reports_before = len(net.reports)
            async with MembershipGateway(
                net, max_batch=8, batch_window_ms=1000.0
            ) as gw:
                acks = await asyncio.gather(*(gw.join() for _ in range(8)))
            return net, reports_before, acks

        net, reports_before, acks = run(scenario())
        assert all(a.ok for a in acks)
        assert all(a.batch_size == 8 for a in acks)
        assert len(net.reports) == reports_before + 1  # one healing step
        checked(net)

    def test_mixed_kinds_fill_batches_across_the_queue(self):
        """Interleaved joins and leaves must not degrade to pair-sized
        batches: each flush gathers its kind across the queue."""

        async def scenario():
            net = service_net(n0=48)
            victims = sorted(net.nodes())[:4]
            async with MembershipGateway(
                net, max_batch=4, batch_window_ms=1000.0
            ) as gw:
                acks = await asyncio.gather(
                    gw.join(),
                    gw.leave(victims[0]),
                    gw.join(),
                    gw.leave(victims[1]),
                    gw.join(),
                    gw.leave(victims[2]),
                    gw.join(),
                    gw.leave(victims[3]),
                )
            return net, gw.metrics, acks

        net, metrics, acks = run(scenario())
        # 8 interleaved requests -> exactly two kind-segregated flushes:
        # one wave of 4 joins (n rises by 4), then one of 4 leaves
        snap = metrics.snapshot()
        assert snap["batches"] == 2 and snap["mean_batch"] == 4
        assert snap["heal_s"] > 0
        joins, leaves = net.reports[-2:]
        assert len(net.reports) == 2
        assert joins.n_after == 48 + 4
        assert leaves.n_after < joins.n_after
        # every request resolved individually; the joins all heal, and a
        # leave may be legitimately rejected per-request (e.g. it would
        # strand a freshly joined neighbor) without poisoning its batch
        assert all(a.ok for a in acks if a.kind == "join")
        for ack in acks:
            assert ack.ok or ack.reason
        assert sum(a.ok for a in acks) >= 7
        checked(net)

    def test_same_node_order_preserved_across_kinds(self):
        """A leave naming a pinned id queued behind a join of that id
        acts as a barrier: it flushes after the join healed."""

        async def scenario():
            net = service_net()
            pinned = net.fresh_id() + 100
            async with MembershipGateway(
                net, max_batch=8, batch_window_ms=0.0
            ) as gw:
                join_ack, leave_ack, other_ack = await asyncio.gather(
                    gw.join(node_id=pinned),
                    gw.leave(pinned),
                    gw.join(),
                )
            return net, pinned, join_ack, leave_ack, other_ack

        net, pinned, join_ack, leave_ack, other_ack = run(scenario())
        assert join_ack.ok, join_ack
        assert leave_ack.ok, leave_ack  # healed after the join, not before
        assert other_ack.ok
        assert not net.graph.has_node(pinned)
        checked(net)

    def test_window_timer_flushes_partial_batch(self):
        async def scenario():
            net = service_net()
            async with MembershipGateway(
                net, max_batch=64, batch_window_ms=5.0
            ) as gw:
                ack = await asyncio.wait_for(gw.join(), timeout=5.0)
            return ack

        ack = run(scenario())
        assert ack.ok
        assert ack.batch_size == 1  # nobody else arrived in the window


class TestBackpressure:
    def test_queue_full_joins_rejected_not_dropped(self):
        """Every request beyond queue_limit is *answered* with a
        rejected outcome -- no caller is left hanging."""

        async def scenario():
            net = service_net(n0=48)
            async with MembershipGateway(
                net,
                max_batch=4,
                batch_window_ms=1000.0,
                queue_limit=4,
            ) as gw:
                acks = await asyncio.gather(*(gw.join() for _ in range(10)))
            return net, gw.metrics, acks

        net, metrics, acks = run(scenario())
        assert len(acks) == 10  # nobody dropped
        accepted = [a for a in acks if a.ok]
        rejected = [a for a in acks if not a.ok]
        assert len(accepted) == 4 and len(rejected) == 6
        assert all(
            a.reason == MembershipGateway.BACKPRESSURE_REASON for a in rejected
        )
        assert all(a.batch_size == 0 for a in rejected)
        assert metrics.snapshot()["backpressure"] == 6
        checked(net)

    def test_closed_gateway_raises(self):
        async def scenario():
            net = service_net()
            gw = MembershipGateway(net, max_batch=2, batch_window_ms=0.0)
            await gw.start()
            await gw.close()
            with pytest.raises(GatewayClosed):
                await gw.join()

        run(scenario())

    def test_close_drains_queued_requests(self):
        """Requests already queued at close() still get outcomes."""

        async def scenario():
            net = service_net()
            gw = MembershipGateway(net, max_batch=64, batch_window_ms=10_000.0)
            await gw.start()
            pending = [asyncio.ensure_future(gw.join()) for _ in range(3)]
            await asyncio.sleep(0)
            await gw.close()  # the giant window must not stall the drain
            return await asyncio.gather(*pending)

        acks = run(scenario())
        assert all(isinstance(a, Ack) and a.ok for a in acks)


class TestOverloadDrain:
    """The PR 7 contract under *sustained* overload: every request
    future resolves -- at a full door and under a ``drain()`` invoked
    while the queue is full."""

    def test_sustained_overload_reject_answers_everyone(self):
        async def scenario():
            net = service_net(n0=48)
            async with MembershipGateway(
                net,
                max_batch=4,
                batch_window_ms=0.5,
                queue_limit=8,
            ) as gw:
                stats = await saturating_load(
                    gw, duration_s=0.3, clients=32, seed=3
                )
            return net, gw.metrics, stats

        net, metrics, stats = run(scenario())
        assert stats.completed == stats.offered  # nobody left hanging
        assert stats.ok > 0 and stats.backpressure > 0
        assert metrics.snapshot()["backpressure"] == stats.backpressure
        checked(net)

    def test_drain_with_full_queue_answers_queued_and_shed(self):
        """drain() while the queue holds both survivors and a shedding
        policy's victims: every queued future heals, every shed future
        gets its rejected ack -- no hung clients."""

        async def scenario():
            net = service_net()
            size_before = net.size
            gw = MembershipGateway(
                net,
                max_batch=4,
                batch_window_ms=10_000.0,
                queue_limit=8,
                policy=ShedOldestPolicy(high_water=6),
            )
            await gw.start()
            futures = [asyncio.ensure_future(gw.join()) for _ in range(8)]
            await asyncio.sleep(0)  # submits land: 2 oldest shed, 6 queued
            await gw.drain()  # the giant window must not stall the drain
            acks = await asyncio.gather(*futures)
            return net, size_before, acks

        net, size_before, acks = run(scenario())
        assert len(acks) == 8
        shed = [a for a in acks if a.reason == MembershipGateway.SHED_REASON]
        healed = [a for a in acks if a.ok]
        assert len(shed) == 2 and len(healed) == 6
        assert net.size == size_before + 6
        checked(net)


class TestEngineFailure:
    def test_engine_failure_fails_queued_requests_too(self):
        """Regression: an engine exception during a flush must resolve
        (with that exception) not just the flushed batch's futures but
        every still-queued request -- otherwise those clients hang
        forever on a dead batcher."""

        async def scenario():
            net = service_net()
            victim = max(net.nodes())
            gw = MembershipGateway(net, max_batch=1, batch_window_ms=0.0)
            await gw.start()

            def boom(payload):
                raise RuntimeError("engine down")

            net.insert_batch_partial = boom
            join_task = asyncio.ensure_future(gw.join())
            leave_task = asyncio.ensure_future(gw.leave(victim))
            results = await asyncio.wait_for(
                asyncio.gather(join_task, leave_task, return_exceptions=True),
                timeout=5.0,
            )
            with pytest.raises(RuntimeError):
                await gw.close()
            return results

        results = run(scenario())
        assert len(results) == 2
        assert all(isinstance(r, RuntimeError) for r in results), results


class TestDifferentialVsOffline:
    def test_gateway_equals_offline_batches_under_full_audits(self):
        """Acceptance: a gateway-healed network is bit-identical to an
        offline network healed with the same partial batches -- node
        set, adjacency, hosting, Spare/Low -- and both pass the full
        I1-I8 + cache + wave-engine audit stack."""
        seed = 77
        offline = service_net(n0=32, seed=seed)
        gateway_net = service_net(n0=32, seed=seed)
        base = offline.fresh_id()
        hosts = sorted(offline.nodes())
        join_pairs = [(base + i, hosts[i]) for i in range(8)]
        # two illegal entries: a stale attach point and a duplicate id
        join_pairs[3] = (base + 3, 10**9)
        join_pairs[6] = (base + 0, hosts[6])
        victims = [hosts[-1], hosts[-2], 10**9, hosts[-1]]

        async def drive():
            async with MembershipGateway(
                gateway_net, max_batch=8, batch_window_ms=50.0, seed=1
            ) as gw:
                join_acks = await asyncio.gather(
                    *(gw.join(node_id=u, attach_hint=v) for u, v in join_pairs)
                )
                leave_acks = await asyncio.gather(
                    *(gw.leave(u) for u in victims[:3])
                )
                # the duplicate leave goes in a later flush on purpose:
                # by then the victim is truly gone -> same rejection the
                # offline driver sees per-step
                late = await gw.leave(victims[3])
            return join_acks, leave_acks, late

        join_acks, leave_acks, late_ack = run(drive())

        insert_outcome = offline.insert_batch_partial(join_pairs)
        delete_outcome = offline.delete_batch_partial(victims[:3])
        assert not offline.graph.has_node(victims[3])

        # Outcomes agree request for request.
        assert [a.ok for a in join_acks] == [
            i not in {r.index for r in insert_outcome.rejected}
            for i in range(len(join_pairs))
        ]
        assert [a.ok for a in leave_acks] == [
            i not in {r.index for r in delete_outcome.rejected}
            for i in range(3)
        ]
        assert not late_ack.ok

        # A third twin healed through the offline campaign driver (the
        # same partial-batch single-pass path, scripted batches).
        from repro.adversary.base import ChurnAction
        from repro.harness.runner import run_campaign

        campaign_net = service_net(n0=32, seed=seed)
        batches = [
            [ChurnAction("insert", node=u, attach_to=v) for u, v in join_pairs],
            [ChurnAction("delete", node=u) for u in victims],
        ]

        class Scripted:
            def next_batch(self, view, max_batch):
                return batches.pop(0) if batches else []

        campaign = run_campaign(
            campaign_net, Scripted(), events=len(join_pairs) + len(victims),
            max_batch=16,
        )
        # stale attach + dup id + bogus victim + dup victim (the same
        # four rejections the gateway handed its clients individually)
        assert campaign.fallbacks == 4

        def assert_identical(a, b):
            assert a.size == b.size
            assert a.p == b.p
            assert sorted(a.nodes()) == sorted(b.nodes())
            assert a.overlay.old.host == b.overlay.old.host
            assert a.overlay.old.spare == b.overlay.old.spare
            assert a.overlay.old.low == b.overlay.old.low
            for u in a.nodes():
                assert dict(a.graph._adj[u]) == dict(b.graph._adj[u])

        assert_identical(gateway_net, offline)
        assert_identical(gateway_net, campaign_net)
        checked(gateway_net)
        checked(offline)
        checked(campaign_net)


class TestMetricsWiring:
    def test_gateway_records_acks_flushes_and_depth(self):
        async def scenario():
            net = service_net()
            metrics = ServiceMetrics()
            async with MembershipGateway(
                net, max_batch=4, batch_window_ms=50.0, metrics=metrics
            ) as gw:
                await asyncio.gather(*(gw.join() for _ in range(4)))
            return metrics

        metrics = run(scenario())
        snap = metrics.snapshot()
        assert snap["events"] == 4
        assert snap["accepted"] == 4
        assert snap["batches"] == 1
        assert snap["mean_batch"] == 4
        assert snap["queue_depth_max"] >= 1
        assert snap["ack_p50_ms"] is not None and snap["ack_p50_ms"] > 0
