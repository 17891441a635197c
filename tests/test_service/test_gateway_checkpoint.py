"""Gateway crash-safety: periodic checkpoints between flushes, graceful
``drain()`` (every queued client answered, then one final durable
checkpoint), ``from_checkpoint`` restores -- with re-anchored metrics
windows -- and checkpoint failures that degrade without hanging the
serving loop."""

from __future__ import annotations

import asyncio

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.persist import list_checkpoints, load_snapshot, state_fingerprint
from repro.service import MembershipGateway, ServiceMetrics


def service_net(n0: int = 32, seed: int = 71) -> DexNetwork:
    config = DexConfig(seed=seed, type2_mode="simplified", validate_every_step=False)
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
