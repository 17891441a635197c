"""The flush core driven directly -- no event loop, no pipe, an injected
clock -- plus the differential that pins its two adapters to each other:
the same seeded script through ``MembershipGateway`` and through a
1-shard ``ShardServer`` behind ``InlineShardHandle`` must produce the
same per-request outcomes and the same network."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.persist.snapshot import state_fingerprint
from repro.service import MembershipGateway
from repro.service.flush import (
    DEADLINE_REASON,
    SHED_REASON,
    Ack,
    FlushCore,
    Request,
)
from repro.service.policy import ShedOldestPolicy
from repro.service.router import InlineShardHandle, ShardRouter
from repro.service.shard import MSG_ACKS, MSG_REQUESTS, ShardMap, ShardServer


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class RecordingCore(FlushCore[Request]):
    """The smallest adapter: answers land in lists keyed by ticket."""

    def __init__(self, net, **kw) -> None:
        super().__init__(net, **kw)
        self.acks: list[tuple[object, Ack]] = []
        self.failures: list[tuple[object, BaseException]] = []

    def _emit(self, request: Request, ack: Ack) -> None:
        self.acks.append((request.ticket, ack))

    def _fail(self, request: Request, exc: BaseException) -> None:
        self.failures.append((request.ticket, exc))


def bootstrap(n0: int = 16, seed: int = 7, **config_kw) -> DexNetwork:
    config = DexConfig(seed=seed, **config_kw)
    return DexNetwork.bootstrap(n0, config, seed=seed)


def make_core(net=None, *, clock=None, max_batch: int = 8, **kw) -> RecordingCore:
    return RecordingCore(
        net or bootstrap(),
        max_batch=max_batch,
        window_s=0.0,
        seed=3,
        clock=clock or FakeClock(),
        **kw,
    )


def flush_all(core: FlushCore) -> None:
    while core.queue_depth:
        core.flush_once()


class TestFakeClock:
    def test_heal_s_times_the_engine_call_only(self):
        clock = FakeClock()
        net = bootstrap()
        core = make_core(net, clock=clock)
        sample, heal = net.sample_node, net.insert_batch_partial

        def slow_sample(rng):  # payload assembly: 5 s per attach draw
            clock.advance(5.0)
            return sample(rng)

        def timed_heal(payload):
            clock.advance(0.25)
            return heal(payload)

        net.sample_node = slow_sample
        net.insert_batch_partial = timed_heal
        observed: list[float] = []
        core.policy.observe_flush = lambda **kw: observed.append(kw["heal_s"])
        for ticket in range(3):
            core.enqueue(Request("join", None, None, ticket))
        core.flush_once()
        assert [ack.ok for _t, ack in core.acks] == [True] * 3
        assert observed == [pytest.approx(0.25)]
        snap = core.metrics.snapshot()
        assert snap["batches"] == 1
        assert snap["heal_s"] == pytest.approx(0.25)

    def test_deadline_expiring_before_the_heal_is_answered_not_healed(self):
        clock = FakeClock()
        net = bootstrap()
        core = make_core(net, clock=clock)
        victim = max(net.nodes())
        core.enqueue(Request("leave", victim, None, "late"), deadline_s=0.010)
        core.enqueue(Request("join", None, None, "patient"))
        clock.advance(0.050)  # the adapter's wait outlived the deadline
        flush_all(core)
        answers = dict(core.acks)
        assert answers["late"] == Ack(
            False, "leave", victim, DEADLINE_REASON, pytest.approx(0.050), 0
        )
        assert net.graph.has_node(victim)  # never healed late
        assert answers["patient"].ok
        assert core.metrics.snapshot()["deadline_timeouts"] == 1

    def test_engine_exception_fails_flushed_and_queued_and_closes_the_core(self):
        net = bootstrap()
        core = make_core(net)
        boom = RuntimeError("engine failure")

        def broken(_payload):
            raise boom

        net.insert_batch_partial = broken
        core.enqueue(Request("join", None, None, "flushed"))
        core.enqueue(Request("leave", max(net.nodes()), None, "queued"))
        with pytest.raises(RuntimeError):
            core.flush_once()
        assert core.failures == [("flushed", boom), ("queued", boom)]
        assert core.acks == []
        assert core.queue_depth == 0
        assert core._closing

    def test_barrier_keeps_per_node_order_across_kinds(self):
        net = bootstrap()
        core = make_core(net)
        x = net.fresh_id() + 100
        core.enqueue(Request("join", x, None, "join-1"))
        core.enqueue(Request("leave", x, None, "leave"))
        core.enqueue(Request("join", x, None, "join-2"))
        core.enqueue(Request("join", None, None, "bystander"))
        # flush 1 is the lead kind gathered across the queue -- but the
        # skipped leave(x) bars the second join(x) from overtaking it
        core.flush_once()
        assert [t for t, _ack in core.acks] == ["join-1", "bystander"]
        assert net.graph.has_node(x)
        core.flush_once()
        assert not net.graph.has_node(x)
        core.flush_once()
        assert net.graph.has_node(x)
        assert [(t, ack.ok) for t, ack in core.acks] == [
            ("join-1", True),
            ("bystander", True),
            ("leave", True),
            ("join-2", True),
        ]


class TestShardOverloadControl:
    def test_shed_oldest_shard_sheds_the_oldest_and_heals_the_rest(self):
        shard_map = ShardMap(1)
        net = bootstrap()
        server = ShardServer(
            0, net, shard_map=shard_map, max_batch=8, window_ms=0.0,
            clock=FakeClock(),
        )
        server.bind_policy(ShedOldestPolicy(high_water=4), queue_limit=64)
        handle = InlineShardHandle(server)
        handle.recv()  # the ready report
        size_before = net.size
        handle.send(
            (MSG_REQUESTS, [(rid, "join", None, None) for rid in range(10)])
        )
        kind, acks = handle.recv()
        assert kind == MSG_ACKS
        by_rid = {ack["rid"]: ack for ack in acks}
        assert sorted(by_rid) == list(range(10))  # answered, never dropped
        shed = [rid for rid, ack in by_rid.items() if ack["reason"] == SHED_REASON]
        assert shed == list(range(6))  # the oldest, past the high-water mark
        assert all(not by_rid[rid]["ok"] and by_rid[rid]["batch_size"] == 0 for rid in shed)
        assert all(by_rid[rid]["ok"] for rid in range(6, 10))
        assert net.size == size_before + 4
        assert server.stats()["shed"] == 6


def scripted_requests(net: DexNetwork, seed: int) -> list[tuple]:
    """``(kind, node, attach_hint)`` triples: pinned and unpinned joins,
    stale hints, duplicate leaves, same-id join->leave->join barriers,
    then a seeded mixed tail long enough for several flushes."""
    rng = random.Random(seed)
    live = sorted(net.nodes())
    a, b, c = live[0], live[1], live[2]
    x, y = net.fresh_id() + 50, net.fresh_id() + 51
    stale = net.fresh_id() + 9999
    script: list[tuple] = [
        ("join", None, None),
        ("join", x, None),
        ("leave", a, None),
        ("leave", a, None),  # duplicate leave
        ("join", x, None),  # duplicate pinned join
        ("leave", x, None),  # barrier: waits for join(x)
        ("join", x, None),  # barrier: waits for leave(x)
        ("join", None, stale),  # stale hint, unpinned
        ("join", y, b),  # pinned id, pinned live hint
        ("join", y + 1, stale),  # pinned id, stale hint
        ("leave", stale, None),  # no such node
        ("leave", b, None),
    ]
    victims = [u for u in live if u not in (a, b, c)]
    rng.shuffle(victims)
    for _ in range(24):
        if rng.random() < 0.6 or not victims:
            script.append(("join", None, c if rng.random() < 0.3 else None))
        else:
            script.append(("leave", victims.pop(), None))
    return script


class TestGatewayShardDifferential:
    SEED = 23

    def _through_gateway(self, net, script):
        async def scenario():
            async with MembershipGateway(
                net, max_batch=8, batch_window_ms=0.0, seed=self.SEED
            ) as gateway:
                return await asyncio.gather(
                    *(
                        gateway.join(node, hint)
                        if kind == "join"
                        else gateway.leave(node)
                        for kind, node, hint in script
                    )
                )

        return asyncio.run(scenario())

    def _through_shard(self, net, script):
        async def scenario():
            shard_map = ShardMap(1)
            server = ShardServer(
                0, net, shard_map=shard_map, max_batch=8, window_ms=0.0,
                seed=self.SEED,
            )
            router = ShardRouter([InlineShardHandle(server)], shard_map=shard_map)
            await router.start()
            try:
                # one loop tick -> one pipe message: submitted in full
                # before the first flush, as through the gateway
                return await asyncio.gather(
                    *(
                        router.join(node, hint)
                        if kind == "join"
                        else router.leave(node)
                        for kind, node, hint in script
                    )
                )
            finally:
                await router.drain()

        return asyncio.run(scenario())

    # The service builds the default (staggered) mode; ``bench/``'s
    # gateway workloads still build simplified, so both stay covered.
    @pytest.mark.parametrize("type2_mode", ["staggered", "simplified"])
    def test_same_script_same_outcomes_same_network(self, type2_mode):
        nets = [
            bootstrap(n0=32, seed=11, type2_mode=type2_mode),
            bootstrap(n0=32, seed=11, type2_mode=type2_mode),
        ]
        assert state_fingerprint(nets[0]) == state_fingerprint(nets[1])
        script = scripted_requests(nets[0], seed=5)
        via_gateway = self._through_gateway(nets[0], script)
        via_shard = self._through_shard(nets[1], script)
        outcomes = [(ack.ok, ack.node, ack.reason) for ack in via_gateway]
        assert outcomes == [(ack.ok, ack.node, ack.reason) for ack in via_shard]
        assert [ack.batch_size for ack in via_gateway] == [
            ack.batch_size for ack in via_shard
        ]
        # the script exercised what it claims to
        assert any(ok for ok, _n, _r in outcomes)
        assert sum(not ok for ok, _n, _r in outcomes) >= 5
        assert state_fingerprint(nets[0]) == state_fingerprint(nets[1])
        for net in nets:
            invariants.check_all(net.overlay, net.config)
            invariants.check_cached_aggregates(net.overlay)


class TestDueIn:
    """The one flush-due rule, on a fake clock: due now (``0``) on a
    full selection, a closing core or an oldest request that has waited
    its window; otherwise the time to the sooner of that window's end
    and the soonest deadline; ``None`` for an empty queue."""

    def windowed(self, clock, window_s: float = 0.010, max_batch: int = 4):
        return RecordingCore(
            bootstrap(), max_batch=max_batch, window_s=window_s, seed=3, clock=clock
        )

    def test_empty_queue_is_never_due(self):
        assert self.windowed(FakeClock()).due_in() is None

    def test_full_selection_is_due_now(self):
        core = self.windowed(FakeClock())
        for ticket in range(4):
            core.enqueue(Request("join", None, None, ticket))
        assert core.due_in() == 0

    def test_full_queue_with_a_partial_selection_waits_out_the_window(self):
        clock = FakeClock()
        core = self.windowed(clock)
        a, b = sorted(core.net.nodes())[:2]
        core.enqueue(Request("join", None, None, "j1"))
        core.enqueue(Request("leave", a, None, "l1"))
        core.enqueue(Request("join", None, None, "j2"))
        core.enqueue(Request("leave", b, None, "l2"))
        assert core.queue_depth == core.max_batch  # but 2 of a kind
        assert core.due_in() == pytest.approx(0.010)
        clock.advance(0.004)
        assert core.due_in() == pytest.approx(0.006)
        clock.advance(0.006)
        assert core.due_in() == 0

    def test_window_runs_from_the_oldest_request(self):
        clock = FakeClock()
        core = self.windowed(clock)
        core.enqueue(Request("join", None, None, "old"))
        clock.advance(0.007)
        core.enqueue(Request("join", None, None, "new"))
        assert core.due_in() == pytest.approx(0.003)

    def test_a_deadline_inside_the_window_is_swept_not_flushed(self):
        clock = FakeClock()
        core = self.windowed(clock)
        core.enqueue(Request("join", None, None, "late"), deadline_s=0.003)
        core.enqueue(Request("join", None, None, "patient"))
        assert core.due_in() == pytest.approx(0.003)  # wake for the sweep
        clock.advance(0.003)
        assert core.due_in() == pytest.approx(0.007)  # the window goes on
        assert [(t, ack.reason) for t, ack in core.acks] == [("late", DEADLINE_REASON)]
        assert core.queue_depth == 1
        assert core.metrics.snapshot()["batches"] == 0
        clock.advance(0.007)
        assert core.due_in() == 0
        core.flush_once()  # "patient"
        core.enqueue(Request("join", None, None, "last"), deadline_s=0.001)
        clock.advance(0.001)
        assert core.due_in() is None  # the sweep emptied the queue
        assert core.acks[-1][0] == "last" and core.acks[-1][1].reason == DEADLINE_REASON

    def test_closing_is_due_now(self):
        core = self.windowed(FakeClock(), window_s=10.0)
        core.enqueue(Request("join", None, None, "queued"))
        assert core.due_in() == pytest.approx(10.0)
        core._closing = True
        assert core.due_in() == 0

    def test_window_zero_is_due_now(self):
        core = self.windowed(FakeClock(), window_s=0.0)
        core.enqueue(Request("join", None, None, "lone"))
        assert core.due_in() == 0


class TestOneRuleEveryWaiter:
    def test_gateway_shard_worker_and_inline_pump_all_wait_on_due_in(self, monkeypatch):
        import gc

        from repro.service.shard import MSG_CONTROL, MSG_FATAL, _worker_loop

        calls: list[FlushCore] = []
        due_in = FlushCore.due_in

        def spy(core):
            calls.append(core)
            return due_in(core)

        monkeypatch.setattr(FlushCore, "due_in", spy)
        seen: dict[str, int] = {}

        async def through_gateway():
            async with MembershipGateway(bootstrap(), max_batch=4) as gateway:
                await gateway.join()

        asyncio.run(through_gateway())
        seen["gateway"], calls[:] = len(calls), []

        server = ShardServer(0, bootstrap(), shard_map=ShardMap(1), clock=FakeClock())
        handle = InlineShardHandle(server)
        handle.send((MSG_REQUESTS, [(1, "join", None, None)]))
        seen["inline pump"], calls[:] = len(calls), []

        class ScriptedPipe:
            def __init__(self, inbox):
                self.inbox, self.sent = list(inbox), []

            def poll(self, timeout=None):
                return bool(self.inbox)

            def recv(self):
                return self.inbox.pop(0)

            def send(self, msg):
                self.sent.append(msg)

        pipe = ScriptedPipe(
            [(MSG_REQUESTS, [(1, "join", None, None)]), (MSG_CONTROL, ("drain", {}))]
        )
        try:
            _worker_loop(pipe, {"shards": 1, "index": 0, "n_local": 16, "seed": 3})
        finally:
            gc.unfreeze()
        assert not [msg for msg in pipe.sent if msg[0] == MSG_FATAL]
        seen["shard worker"] = len(calls)
        assert all(seen.values()), seen


class TestClocksAnchorWhenServingStarts:
    def test_a_shard_first_flush_interval_excludes_the_wait_for_traffic(self):
        """A shard built long before its first request (its bootstrap,
        then the rest of the cluster's) starts its flush clock and its
        metrics windows at first traffic, so the policy's first
        ``observe_flush`` interval -- the denominator of an
        adaptive-window shard's utilization -- is the serving time."""
        clock = FakeClock()
        server = ShardServer(
            0, bootstrap(), shard_map=ShardMap(1), max_batch=2, window_ms=0.0, clock=clock
        )
        intervals: list[float] = []
        server.policy.observe_flush = lambda **kw: intervals.append(kw["interval_s"])
        handle = InlineShardHandle(server)
        clock.advance(30.0)  # the cluster finishes bootstrapping
        handle.send((MSG_REQUESTS, [(1, "join", None, None), (2, "join", None, None)]))
        clock.advance(0.5)
        handle.send((MSG_REQUESTS, [(3, "join", None, None), (4, "join", None, None)]))
        assert intervals == [pytest.approx(0.0), pytest.approx(0.5)]
        assert server.metrics.snapshot()["elapsed_s"] == pytest.approx(0.5)
