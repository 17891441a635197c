"""Client load generators: population bookkeeping, open-loop Poisson
and closed-loop saturation against a live gateway."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.service import (
    Ack,
    MembershipGateway,
    Population,
    RetryPolicy,
    poisson_load,
    saturating_load,
)
from repro.service.loadgen import LoadStats


def service_net(n0: int = 48, seed: int = 81) -> DexNetwork:
    config = DexConfig(seed=seed)
    return DexNetwork.bootstrap(n0, config, seed=seed)


def checked(net: DexNetwork) -> None:
    invariants.check_all(net.overlay, net.config)
    assert net.coordinator.verify()


class TestPopulation:
    def test_sample_add_discard(self):
        population = Population([1, 2, 3], random.Random(5))
        assert len(population) == 3
        assert population.sample() in {1, 2, 3}
        population.add(9)
        assert len(population) == 4
        population.discard(2)
        assert len(population) == 3
        assert all(population.sample() != 2 for _ in range(20))
        population.discard(2)  # idempotent
        assert len(population) == 3

    def test_empty_population_samples_none(self):
        population = Population([], random.Random(5))
        assert population.sample() is None
        population.add(4)
        population.discard(4)
        assert population.sample() is None

    def test_duplicate_add_ignored(self):
        population = Population([1], random.Random(5))
        population.add(1)
        assert len(population) == 1


class TestGenerators:
    def test_poisson_load_completes_every_client(self):
        async def scenario():
            net = service_net()
            async with MembershipGateway(
                net, max_batch=16, batch_window_ms=1.0, seed=3
            ) as gw:
                stats = await poisson_load(
                    gw, rate_hz=2000.0, duration_s=0.25, seed=7
                )
            return net, stats

        net, stats = asyncio.run(scenario())
        assert stats.offered > 0
        assert stats.completed == stats.offered  # open loop, all answered
        assert stats.ok + stats.rejected == stats.completed
        checked(net)

    def test_saturating_load_keeps_clients_full(self):
        async def scenario():
            net = service_net()
            async with MembershipGateway(
                net, max_batch=16, batch_window_ms=1.0, seed=3
            ) as gw:
                stats = await saturating_load(
                    gw, duration_s=0.25, clients=16, seed=7
                )
            return net, gw.metrics, stats

        net, metrics, stats = asyncio.run(scenario())
        assert stats.completed == stats.offered
        assert stats.completed >= 16  # every client got at least one ack
        snap = metrics.snapshot()
        assert snap["events"] == stats.completed
        assert snap["events_per_s"] > 0
        checked(net)

    def test_rejections_recorded_with_reasons(self):
        """Stale victims from the optimistic population view surface as
        per-request rejections with engine reasons, never crashes."""

        async def scenario():
            net = service_net()
            async with MembershipGateway(
                net, max_batch=8, batch_window_ms=1.0, seed=3
            ) as gw:
                stats = await saturating_load(
                    gw, duration_s=0.3, clients=24, join_fraction=0.3, seed=7
                )
            return stats

        stats = asyncio.run(scenario())
        assert stats.completed == stats.offered
        if stats.rejected:
            assert sum(stats.reasons.values()) == stats.rejected


class TestRetryPolicy:
    def test_backoff_is_capped_and_jittered(self):
        rng = random.Random(3)
        policy = RetryPolicy(base_ms=2.0, cap_ms=10.0, jitter=0.5)
        for attempt in range(1, 10):
            raw_s = min(2.0 * 2 ** (attempt - 1), 10.0) / 1e3
            for _ in range(20):
                backoff = policy.backoff_s(attempt, rng)
                assert raw_s * 0.5 <= backoff <= raw_s

    def test_retryable_only_on_load_shedding_reasons(self):
        assert RetryPolicy.retryable(MembershipGateway.BACKPRESSURE_REASON)
        assert RetryPolicy.retryable(MembershipGateway.SHED_REASON)
        # A deadline or engine verdict is about the request, not load.
        assert not RetryPolicy.retryable(MembershipGateway.DEADLINE_REASON)
        assert not RetryPolicy.retryable("victim would disconnect overlay")
        assert not RetryPolicy.retryable(None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_ms": 0.0},
            {"base_ms": 5.0, "cap_ms": 1.0},
            {"jitter": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestGoodputAccounting:
    def ack(self, ok: bool, reason=None) -> Ack:
        return Ack(
            ok=ok, kind="join", node=1, reason=reason, latency_s=0.001,
            batch_size=1 if ok else 0,
        )

    def test_goodput_separates_served_from_answered(self):
        stats = LoadStats(offered=4)
        stats.record(self.ack(True))
        stats.record(self.ack(True))
        stats.record(self.ack(False, MembershipGateway.BACKPRESSURE_REASON))
        stats.record(self.ack(False, MembershipGateway.DEADLINE_REASON))
        stats.elapsed_s = 2.0
        assert stats.completed == 4 and stats.ok == 2
        assert stats.completed_per_s == 2.0  # raw: rejections included
        assert stats.goodput_per_s == 1.0  # served only
        assert stats.backpressure == 1 and stats.deadline_timeouts == 1


class TestRetryingClients:
    def test_backpressure_retried_and_counted(self):
        """A one-slot queue under a small closed-loop fleet: clients hit
        the full queue, back off, retry -- and both the client-side and
        gateway-side retry counters move in lockstep."""

        async def scenario():
            net = service_net()
            async with MembershipGateway(
                net, max_batch=4, batch_window_ms=0.5, queue_limit=1, seed=3
            ) as gw:
                stats = await saturating_load(
                    gw,
                    duration_s=0.3,
                    clients=8,
                    seed=7,
                    retry=RetryPolicy(max_retries=3, base_ms=1.0, cap_ms=4.0),
                )
            return net, gw.metrics, stats

        net, metrics, stats = asyncio.run(scenario())
        assert stats.completed == stats.offered  # retries answer too
        assert stats.retries > 0
        assert metrics.snapshot()["retries"] == stats.retries
        checked(net)

    def test_open_loop_retry_still_answers_everyone(self):
        async def scenario():
            net = service_net()
            async with MembershipGateway(
                net, max_batch=4, batch_window_ms=0.5, queue_limit=2, seed=3
            ) as gw:
                stats = await poisson_load(
                    gw,
                    rate_hz=3000.0,
                    duration_s=0.2,
                    seed=7,
                    retry=RetryPolicy(max_retries=2, base_ms=1.0, cap_ms=2.0),
                )
            return net, stats

        net, stats = asyncio.run(scenario())
        assert stats.completed == stats.offered
        assert stats.ok + stats.rejected == stats.completed
        checked(net)
