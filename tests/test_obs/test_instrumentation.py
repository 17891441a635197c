"""Instrumentation contracts over the real stack.

1. **Differential**: the engine is bit-identical with tracing on or off
   -- same state fingerprint after an identical churn schedule, same
   wave transcripts -- because span bookkeeping never touches an engine
   rng (design constraint 2 of ``repro.obs.trace``).
2. **Gateway**: a serial flush produces a rooted span tree (collect /
   heal / resolve children) and per-request spans resolved with
   outcomes.
3. **Cross-shard acceptance**: a pinned cross-shard join renders as ONE
   trace covering router request -> reserve -> pin -> commit -> shard
   flush -> heal -> ack, all sharing the router's trace id.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.harness.perf import run_batch_churn
from repro.net.walks import run_wave
from repro.obs import trace
from repro.persist.snapshot import state_fingerprint


@pytest.fixture(autouse=True)
def _noop_between_tests():
    trace.uninstall()
    yield
    trace.uninstall()


def _bootstrap(n=64, seed=9):
    config = DexConfig(seed=seed)
    return DexNetwork.bootstrap(n, config, seed=seed)


class TestDifferential:
    def test_churn_schedule_is_bit_identical_with_tracing_on(self):
        def drive(traced: bool):
            net = _bootstrap()
            adversary = random.Random(17)
            if traced:
                trace.install(trace.SpanRecorder())
            try:
                run_batch_churn(net, batch=8, rounds=3, adversary=adversary)
            finally:
                trace.uninstall()
            return net

        off = drive(traced=False)
        on = drive(traced=True)
        assert state_fingerprint(off) == state_fingerprint(on)

    def test_wave_transcript_is_identical_with_tracing_on(self):
        net = _bootstrap()
        starts = [net.random_node() for _ in range(32)]
        length = 4 * max(net.size, 2).bit_length()

        def wave(traced: bool):
            transcript: list = []
            if traced:
                trace.install(trace.SpanRecorder())
            try:
                result = run_wave(
                    net.graph,
                    starts,
                    length,
                    frozenset(),
                    random.Random(23),
                    transcript=transcript,
                )
            finally:
                trace.uninstall()
            return result, transcript

        result_off, transcript_off = wave(traced=False)
        result_on, transcript_on = wave(traced=True)
        assert result_off == result_on
        assert transcript_off == transcript_on

    def test_traced_wave_records_hops_and_rounds(self):
        net = _bootstrap()
        starts = [net.random_node() for _ in range(16)]
        rec = trace.SpanRecorder()
        trace.install(rec)
        try:
            _ends, _founds, hops, rounds = run_wave(
                net.graph, starts, 8, frozenset(), random.Random(5)
            )
        finally:
            trace.uninstall()
        (span,) = [s for s in rec.spans if s["name"] == "net.wave"]
        assert span["attrs"]["tokens"] == 16
        assert span["attrs"]["hops"] == hops
        assert span["attrs"]["rounds"] == rounds


class TestGatewayFlushTrace:
    def test_serial_flush_has_rooted_phase_tree(self):
        from repro.service import MembershipGateway

        async def scenario(rec):
            net = _bootstrap(n=32)
            gateway = MembershipGateway(
                net, max_batch=8, batch_window_ms=0.0, seed=3
            )
            await gateway.start()
            try:
                acks = await asyncio.gather(*(gateway.join() for _ in range(4)))
                assert all(ack.ok for ack in acks)
            finally:
                await gateway.drain()

        rec = trace.SpanRecorder()
        trace.install(rec)
        try:
            asyncio.run(scenario(rec))
        finally:
            trace.uninstall()

        spans = list(rec.spans)
        by_id = {s["span"]: s for s in spans}
        roots = [s for s in spans if s["name"] == "gateway.flush"]
        assert roots and all(s["attrs"]["kind"] == "join" for s in roots)
        phases = [s for s in spans if ".flush." in s["name"]]
        assert {s["name"] for s in phases} >= {
            "gateway.flush.collect",
            "gateway.flush.heal",
            "gateway.flush.resolve",
        }
        for phase in phases:
            assert by_id[phase["parent"]]["name"] == "gateway.flush"
        requests = [s for s in spans if s["name"] == "gateway.request"]
        assert len(requests) == 4
        assert all(s["attrs"]["ok"] for s in requests)
        # engine spans nest under the heal phase via the ambient stack
        engine = [s for s in spans if s["name"] == "core.insert_batch"]
        assert engine
        assert all(
            by_id[s["parent"]]["name"] == "gateway.flush.heal" for s in engine
        )


class TestCrossShardTrace:
    def test_pinned_cross_shard_join_is_one_trace(self):
        from repro.obs.render import render_timeline
        from repro.service.router import InlineShardHandle, ShardRouter
        from repro.service.shard import ShardMap, ShardServer

        def make_server(index, shard_map):
            config = DexConfig(seed=7 + index)
            net = DexNetwork.bootstrap(
                16, config, seed=7 + index, id_base=shard_map.id_base(index)
            )
            return ShardServer(
                index, net, shard_map=shard_map, max_batch=8, window_ms=0.0
            )

        async def scenario(rec):
            shard_map = ShardMap(2)
            servers = [make_server(i, shard_map) for i in range(2)]
            router = ShardRouter(
                [InlineShardHandle(s) for s in servers], shard_map=shard_map
            )
            await router.start()
            try:
                # new id owned by shard 0, attach hint owned by shard 1:
                # forces the reserve -> pin -> commit handoff
                hint = sorted(servers[1].net.nodes())[0]
                new_id = shard_map.id_base(0) + 500
                ack = await router.join(new_id, hint)
                assert ack.ok, ack.reason
            finally:
                await router.drain()

        rec = trace.SpanRecorder()
        trace.install(rec)
        try:
            asyncio.run(scenario(rec))
        finally:
            trace.uninstall()

        spans = list(rec.spans)
        roots = [
            s for s in spans
            if s["name"] == "router.request"
            and s.get("attrs", {}).get("handoff")
        ]
        assert len(roots) == 1
        trace_id = roots[0]["trace"]
        journey = [s for s in spans if s["trace"] == trace_id]
        names = {s["name"] for s in journey}
        # the acceptance criterion: enqueue -> reserve -> pin -> commit
        # -> flush -> heal -> ack as ONE trace
        assert names >= {
            "router.request",
            "router.handoff.reserve",
            "router.handoff.pin",
            "router.handoff.commit",
            "shard.reserve",
            "shard.pin",
            "shard.request",
            "shard.flush",
            "shard.flush.heal",
            "shard.flush.resolve",
            "core.insert_batch",
        }
        # every flush phase is parented inside the same trace
        by_id = {s["span"]: s for s in journey}
        for s in journey:
            if ".flush." in s["name"]:
                assert s["parent"] in by_id
        # the join request's shard span continues the router's commit span
        commit = next(
            s for s in journey if s["name"] == "router.handoff.commit"
        )
        request = next(s for s in journey if s["name"] == "shard.request")
        assert request["parent"] == commit["span"]
        # and the artifact renders as one coherent timeline
        text = render_timeline(spans, trace_id)
        assert f"trace {trace_id}" in text
        assert "router.handoff.pin" in text and "shard.flush.heal" in text
