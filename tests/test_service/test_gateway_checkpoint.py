"""Gateway crash-safety: periodic checkpoints between flushes, graceful
``drain()`` (every queued client answered, then one final durable
checkpoint), ``from_checkpoint`` restores -- with re-anchored metrics
windows -- and checkpoint failures that degrade without hanging the
serving loop."""

from __future__ import annotations

import asyncio

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.persist import (
    list_checkpoints,
    load_snapshot,
    restore_latest,
    state_fingerprint,
)
from repro.service import (
    InlineShardHandle,
    MembershipGateway,
    ServiceMetrics,
    ShardMap,
    ShardRouter,
    ShardServer,
)


def service_net(n0: int = 32, seed: int = 71) -> DexNetwork:
    config = DexConfig(seed=seed)
    return DexNetwork.bootstrap(n0, config, seed=seed)


def run(coro):
    return asyncio.run(coro)


class TestPeriodicCheckpoints:
    def test_checkpoints_written_between_flushes_and_pruned(self, tmp_path):
        async def scenario():
            net = service_net()
            gateway = MembershipGateway(
                net,
                max_batch=2,
                batch_window_ms=0.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=2,
                checkpoint_keep=2,
            )
            async with gateway:
                for _ in range(12):
                    await gateway.join()
            return net, gateway

        net, gateway = run(scenario())
        assert gateway.checkpoints_written >= 2
        assert gateway.checkpoint_errors == 0
        on_disk = list_checkpoints(tmp_path)
        assert 1 <= len(on_disk) <= 2  # pruned to checkpoint_keep
        assert gateway.last_checkpoint == on_disk[-1]
        restored = load_snapshot(on_disk[-1])
        assert restored.step_count <= net.step_count

    def test_on_checkpoint_hook_sees_durable_snapshots(self, tmp_path):
        ticks: list[tuple[int, bool]] = []

        async def scenario():
            net = service_net()
            gateway = MembershipGateway(
                net,
                max_batch=2,
                batch_window_ms=0.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                checkpoint_keep=10,
                on_checkpoint=lambda step, path: ticks.append(
                    (step, (path / "manifest.json").is_file())
                ),
            )
            async with gateway:
                for _ in range(5):
                    await gateway.join()

        run(scenario())
        assert ticks and all(durable for _step, durable in ticks)
        assert [step for step, _ in ticks] == sorted(step for step, _ in ticks)

    def test_before_hook_fires_ahead_of_durability(self, tmp_path):
        """``on_before_checkpoint`` must run before the snapshot is
        written (a write-ahead journal flushed there is durable strictly
        ahead of every checkpoint), and a before-hook OSError vetoes the
        checkpoint entirely."""
        events: list[tuple[str, int]] = []

        async def scenario():
            gateway = MembershipGateway(
                service_net(),
                max_batch=2,
                batch_window_ms=0.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                checkpoint_keep=10,
                on_before_checkpoint=lambda step: events.append(
                    ("before", step, len(list_checkpoints(tmp_path)))
                ),
                on_checkpoint=lambda step, _path: events.append(
                    ("after", step, len(list_checkpoints(tmp_path)))
                ),
            )
            async with gateway:
                for _ in range(3):
                    await gateway.join()

        run(scenario())
        kinds = [kind for kind, _step, _count in events]
        assert kinds == ["before", "after"] * (len(events) // 2)
        for (_, step_b, count_b), (_, step_a, count_a) in zip(
            events[::2], events[1::2]
        ):
            assert step_b == step_a
            assert count_a == count_b + 1  # snapshot landed in between

    def test_before_hook_error_vetoes_the_checkpoint(self, tmp_path):
        async def scenario():
            def refuse(step: int) -> None:
                raise OSError("journal disk full")

            gateway = MembershipGateway(
                service_net(),
                max_batch=2,
                batch_window_ms=0.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                on_before_checkpoint=refuse,
            )
            async with gateway:
                acks = [await gateway.join() for _ in range(3)]
            return gateway, acks

        gateway, acks = run(scenario())
        assert all(ack.ok for ack in acks)  # serving survives the veto
        assert gateway.checkpoints_written == 0
        assert gateway.checkpoint_errors >= 3
        assert list_checkpoints(tmp_path) == []

    def test_on_ack_fires_synchronously_inside_flush(self):
        """The ack tap must see every outcome the moment it is decided
        (the fault harness's journal depends on zero lag between a
        resolved future and the tap)."""
        taps: list[str] = []

        async def scenario():
            net = service_net()
            gateway = MembershipGateway(
                net,
                max_batch=4,
                batch_window_ms=1.0,
                on_ack=lambda ack: taps.append(ack.kind),
            )
            async with gateway:
                acks = await asyncio.gather(*(gateway.join() for _ in range(6)))
            return acks

        acks = run(scenario())
        assert len(taps) == len(acks) == 6


class TestDrain:
    def test_drain_answers_every_queued_future(self, tmp_path):
        async def scenario():
            net = service_net()
            gateway = MembershipGateway(
                net,
                max_batch=64,
                batch_window_ms=500.0,  # nothing flushes before drain()
                checkpoint_dir=tmp_path,
                checkpoint_every=10_000,  # periodic cadence never fires
            )
            await gateway.start()
            pending = [asyncio.ensure_future(gateway.join()) for _ in range(7)]
            await asyncio.sleep(0)  # let them enqueue, not flush
            summary = await gateway.drain()
            acks = await asyncio.gather(*pending)
            return net, summary, acks

        net, summary, acks = run(scenario())
        assert all(ack.ok for ack in acks)
        assert summary["pending_answered"] == 7
        assert summary["checkpoint_errors"] == 0
        # the final checkpoint exists and captures the post-drain state
        assert summary["final_checkpoint"] is not None
        restored = load_snapshot(summary["final_checkpoint"])
        assert state_fingerprint(restored) == state_fingerprint(net)

    def test_drain_without_checkpoint_dir_still_drains(self):
        async def scenario():
            gateway = MembershipGateway(service_net(), batch_window_ms=200.0)
            await gateway.start()
            pending = [asyncio.ensure_future(gateway.join()) for _ in range(3)]
            await asyncio.sleep(0)
            summary = await gateway.drain()
            await asyncio.gather(*pending)
            return summary

        summary = run(scenario())
        assert summary["pending_answered"] == 3
        assert summary["final_checkpoint"] is None
        assert summary["checkpoints_written"] == 0

    def test_checkpoint_failure_counts_but_never_hangs(self, tmp_path):
        """An unwritable checkpoint directory must not take the serving
        path down with it: acks keep flowing, errors are counted."""
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the checkpoint dir should go")

        async def scenario():
            gateway = MembershipGateway(
                service_net(),
                max_batch=2,
                batch_window_ms=0.0,
                checkpoint_dir=blocker,  # mkdir will fail every time
                checkpoint_every=1,
            )
            await gateway.start()
            acks = [await gateway.join() for _ in range(4)]
            summary = await gateway.drain()
            return acks, summary

        acks, summary = run(scenario())
        assert all(ack.ok for ack in acks)
        assert summary["checkpoints_written"] == 0
        assert summary["checkpoint_errors"] >= 2  # periodic tries + final


class TestFromCheckpoint:
    def test_restore_resumes_serving_same_state(self, tmp_path):
        async def before():
            net = service_net()
            gateway = MembershipGateway(
                net,
                max_batch=2,
                batch_window_ms=0.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
            )
            async with gateway:
                for _ in range(4):
                    await gateway.join()
                await gateway.drain()
            return net

        net = run(before())

        async def after():
            gateway = MembershipGateway.from_checkpoint(tmp_path, max_batch=2)
            assert state_fingerprint(gateway.net) == state_fingerprint(net)
            async with gateway:
                ack = await gateway.join()
            return gateway, ack

        gateway, ack = run(after())
        assert ack.ok
        assert gateway.checkpoint_dir == tmp_path
        assert gateway.last_checkpoint is not None

    def test_restored_metrics_windows_are_re_anchored(self, tmp_path):
        """A restored gateway must not report the previous process's
        (or the restore's own) wall time in its first snapshot; the
        elapsed clock starts at restore completion."""
        async def before():
            gateway = MembershipGateway(
                service_net(),
                max_batch=2,
                batch_window_ms=0.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
            )
            async with gateway:
                await gateway.join()
                await gateway.drain()

        run(before())

        now = [1000.0]
        clock = lambda: now[0]  # noqa: E731 - injectable test clock
        stale = ServiceMetrics(clock=clock, started_at=0.0)
        stale.record_ack(0.5, ok=True)  # a stale sample from "before the crash"
        gateway = MembershipGateway.from_checkpoint(tmp_path, metrics=stale)
        # reset_windows re-anchored started_at at *now*, not at 0.0
        assert gateway.metrics.started_at == 1000.0
        hist = gateway.metrics.registry.histogram("dex.ack_latency_seconds")
        assert hist.window_samples == []
        now[0] = 1002.0
        assert gateway.metrics.snapshot()["elapsed_s"] == 2.0
        assert gateway.metrics.window()["events"] == 0


class TestStaggeredOpInFlight:
    """A staggered type-2 op advances one chunk per event, so it stays
    in flight across several flushes, and its two-layer state cannot be
    snapshotted.  The periodic checkpoint waits the op out -- still due,
    nothing fired, nothing counted -- and a drain completes it before the
    final checkpoint.  From n0 = 16, one-join flushes start an op within
    about 50 joins and keep it in flight for a few flushes."""

    JOINS = 400

    @staticmethod
    def assert_postponed_while_in_flight(rows, hooked, errors):
        """``rows`` holds ``(op in flight, checkpoints written)`` after
        each one-join flush with ``checkpoint_every=1``."""
        assert any(flight for flight, _ in rows), "no op started"
        assert any(a and not b for (a, _), (b, _) in zip(rows, rows[1:])), (
            "no op completed"
        )
        assert errors == 0
        assert not any(hooked)  # on_before_checkpoint never saw an op
        for (_, before), (flight, after) in zip(rows, rows[1:]):
            # nothing while in flight; every other flush writes, the
            # first one after the op completes included
            assert after == before + (0 if flight else 1)

    def test_periodic_checkpoint_waits_out_an_in_flight_op(self, tmp_path):
        hooked: list[bool] = []
        rows: list[tuple[bool, int]] = []

        async def scenario():
            net = service_net(n0=16)
            gateway = MembershipGateway(
                net,
                max_batch=1,
                batch_window_ms=0.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                checkpoint_keep=1,
                on_before_checkpoint=lambda _step: hooked.append(
                    net.staggered is not None
                ),
            )
            async with gateway:
                for _ in range(100):
                    assert (await gateway.join()).ok
                    rows.append((net.staggered is not None, gateway.checkpoints_written))
            return gateway

        gateway = run(scenario())
        self.assert_postponed_while_in_flight(rows, hooked, gateway.checkpoint_errors)

    def test_drain_completes_an_in_flight_op_then_checkpoints(self, tmp_path):
        async def scenario():
            net = service_net(n0=16)
            gateway = MembershipGateway(
                net,
                max_batch=1,
                batch_window_ms=0.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=10_000,  # only the drain's checkpoint
            )
            await gateway.start()
            for _ in range(self.JOINS):
                assert (await gateway.join()).ok
                if net.staggered is not None:
                    break
            assert net.staggered is not None, "no op started"
            members = sorted(net.nodes())
            return net, members, await gateway.drain()

        net, members, summary = run(scenario())
        assert summary["checkpoint_errors"] == 0
        assert summary["final_checkpoint"] is not None
        assert summary["op_completed"] is True
        assert net.staggered is None
        restored, path, _skipped = restore_latest(tmp_path)
        assert str(path) == summary["final_checkpoint"]
        assert sorted(restored.nodes()) == members
        assert state_fingerprint(restored) == state_fingerprint(net)
        restored.check_invariants()

    def test_shard_postpones_then_drains_an_in_flight_op(self, tmp_path):
        """The shard twin, through the worker protocol: one shard behind
        an inline handle, joined until a second op is in flight after a
        first one completed, then drained by the router."""
        hooked: list[bool] = []
        rows: list[tuple[bool, int]] = []

        async def scenario():
            shard_map = ShardMap(1)
            net = DexNetwork.bootstrap(16, DexConfig(seed=7), seed=7)
            server = ShardServer(
                0,
                net,
                shard_map=shard_map,
                max_batch=1,
                window_ms=0.0,
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                checkpoint_keep=1,
            )
            server.on_before_checkpoint = lambda _step: hooked.append(
                net.staggered is not None
            )
            router = ShardRouter([InlineShardHandle(server)], shard_map=shard_map)
            await router.start()
            for _ in range(self.JOINS):
                assert (await router.join()).ok
                rows.append((net.staggered is not None, server.checkpoints_written))
                completed = any(a and not b for (a, _), (b, _) in zip(rows, rows[1:]))
                if completed and net.staggered is not None:
                    break
            assert net.staggered is not None, "no second op started"
            members = sorted(net.nodes())
            return net, server, members, await router.drain()

        net, server, members, summary = run(scenario())
        # the flushes before the drain: the last row's op is the drain's
        self.assert_postponed_while_in_flight(rows, hooked, server.checkpoint_errors)
        assert summary["checkpoint_errors"] == 0
        assert summary["final_checkpoint"] is not None
        assert summary["op_completed"] is True
        assert net.staggered is None
        restored, path, _skipped = restore_latest(tmp_path)
        assert str(path) == summary["final_checkpoint"]
        assert sorted(restored.nodes()) == members
        assert state_fingerprint(restored) == state_fingerprint(net)
