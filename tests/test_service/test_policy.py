"""Overload control: the admission-policy registry, the three policy
behaviours (fixed / adaptive-window / shed-oldest), and per-request
deadlines -- with one contract checked throughout: no request future
is ever left unanswered under overload, deadline expiry, or drain."""

from __future__ import annotations

import asyncio

import pytest

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import PolicyError
from repro.service import (
    POLICIES,
    AdaptiveWindowPolicy,
    AdmissionPolicy,
    FixedPolicy,
    MembershipGateway,
    ShedOldestPolicy,
    make_policy,
    saturating_load,
)


def service_net(n0: int = 32, seed: int = 71) -> DexNetwork:
    config = DexConfig(seed=seed)
    return DexNetwork.bootstrap(n0, config, seed=seed)


def checked(net: DexNetwork) -> None:
    invariants.check_all(net.overlay, net.config)
    assert net.coordinator.verify()


def run(coro):
    return asyncio.run(coro)


class TestRegistry:
    def test_every_name_builds_a_fresh_instance(self):
        for name, cls in POLICIES.items():
            a, b = make_policy(name), make_policy(name)
            assert isinstance(a, cls) and isinstance(b, cls)
            assert a is not b  # policies are stateful, never shared

    def test_instance_passes_through(self):
        policy = ShedOldestPolicy(high_water=7)
        assert make_policy(policy) is policy

    def test_unknown_name_is_a_policy_error(self):
        with pytest.raises(PolicyError, match="fifo-magic"):
            make_policy("fifo-magic")

    def test_registry_names_match_class_names(self):
        assert set(POLICIES) == {"fixed", "adaptive-window", "shed-oldest"}
        for name, cls in POLICIES.items():
            assert cls.name == name

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: AdaptiveWindowPolicy(widen=1.0),
            lambda: AdaptiveWindowPolicy(narrow=1.5),
            lambda: AdaptiveWindowPolicy(floor_scale=2.0, cap_scale=4.0),
            lambda: ShedOldestPolicy(high_water=0),
            lambda: ShedOldestPolicy(high_water_fraction=0.0),
            lambda: AdaptiveWindowPolicy(floor_scale=0.1, cap_scale=0.5),
            lambda: ShedOldestPolicy(high_water_fraction=1.5),
        ],
    )
    def test_bad_parameters_are_policy_errors(self, bad):
        with pytest.raises(PolicyError):
            bad()


class TestAdaptiveWindowUnit:
    def bound(self, **kwargs) -> AdaptiveWindowPolicy:
        policy = AdaptiveWindowPolicy(**kwargs)
        policy.bind(base_window_s=0.002, max_batch=64, queue_limit=1024)
        return policy

    def test_backlog_widens_toward_cap(self):
        policy = self.bound()
        for _ in range(50):  # deep backlog, full utilization
            policy.observe_flush(
                depth=512, batch_size=64, heal_s=0.01, interval_s=0.01
            )
        assert policy.window_s() == pytest.approx(0.002 * policy.cap_scale)

    def test_idle_narrows_toward_floor(self):
        policy = self.bound()
        for _ in range(50):  # empty queue, negligible utilization
            policy.observe_flush(
                depth=0, batch_size=2, heal_s=0.0001, interval_s=0.01
            )
        assert policy.window_s() == pytest.approx(0.002 * policy.floor_scale)

    def test_moderate_load_holds_steady(self):
        policy = self.bound()
        scale_before = policy.window_s()
        policy.observe_flush(
            depth=16, batch_size=32, heal_s=0.005, interval_s=0.01
        )  # neither backlogged nor idle, mid utilization
        assert policy.window_s() == scale_before

    def test_describe_reports_scale(self):
        policy = self.bound()
        policy.observe_flush(depth=512, batch_size=64, heal_s=0.01, interval_s=0.01)
        state = policy.describe()
        assert state["policy"] == "adaptive-window"
        assert state["window_scale"] > 1.0


class TestFixedAndBase:
    def test_fixed_is_the_base_behaviour(self):
        policy = FixedPolicy()
        policy.bind(base_window_s=0.004, max_batch=16, queue_limit=32)
        assert policy.window_s() == 0.004
        assert policy.shed_count(31) == 0
        assert isinstance(policy, AdmissionPolicy)
        assert policy.describe() == {"policy": "fixed"}


class TestShedOldestGateway:
    def test_oldest_requests_shed_above_high_water(self):
        """queue_limit 8, high_water 4: burst 8 joins while the batcher
        is blocked -> the 4 oldest are answered with shed rejections at
        submit time, the 4 newest heal."""

        async def scenario():
            net = service_net()
            gw = MembershipGateway(
                net,
                max_batch=8,
                batch_window_ms=50.0,
                queue_limit=8,
                policy=ShedOldestPolicy(high_water=4),
            )
            async with gw:
                acks = await asyncio.gather(*(gw.join() for _ in range(8)))
            return net, gw, acks

        net, gw, acks = run(scenario())
        # _submit sheds synchronously on every enqueue, so the burst
        # settles deterministically: each submit past depth 4 evicts the
        # then-oldest request.
        assert [a.ok for a in acks] == [False] * 4 + [True] * 4
        for ack in acks[:4]:
            assert ack.reason == MembershipGateway.SHED_REASON
            assert ack.batch_size == 0
        assert gw.metrics.snapshot()["shed"] == 4
        assert gw.policy.shed_total == 4
        assert net.size == 32 + 4
        checked(net)

    def test_high_water_defaults_from_queue_limit(self):
        policy = ShedOldestPolicy()
        policy.bind(base_window_s=0.002, max_batch=64, queue_limit=4096)
        assert policy.high_water == 512  # queue_limit / 8
        policy = ShedOldestPolicy()
        policy.bind(base_window_s=0.002, max_batch=128, queue_limit=256)
        assert policy.high_water == 128  # never below one full batch

    def test_saturation_sheds_but_every_future_resolves(self):
        async def scenario():
            net = service_net(n0=48)
            gw = MembershipGateway(
                net,
                max_batch=8,
                batch_window_ms=1.0,
                queue_limit=32,
                policy="shed-oldest",
            )
            async with gw:
                stats = await saturating_load(
                    gw, duration_s=0.4, clients=64, seed=5
                )
            return net, gw, stats

        net, gw, stats = run(scenario())
        assert stats.completed == stats.offered  # nobody left hanging
        assert stats.ok > 0
        checked(net)


class TestDeadlines:
    def test_expired_request_rejected_never_healed(self):
        """A deadline shorter than the batch window: the sweep answers
        the request with DEADLINE_REASON and the node never joins."""

        async def scenario():
            net = service_net()
            size_before = net.size
            gw = MembershipGateway(
                net, max_batch=64, batch_window_ms=500.0, deadline_ms=20.0
            )
            async with gw:
                ack = await gw.join()
            return net, gw, size_before, ack

        net, gw, size_before, ack = run(scenario())
        assert not ack.ok
        assert ack.reason == MembershipGateway.DEADLINE_REASON
        assert ack.latency_s >= 0.020
        assert gw.metrics.snapshot()["deadline_timeouts"] == 1
        assert net.size == size_before
        checked(net)

    def test_per_request_deadline_overrides_gateway_default(self):
        async def scenario():
            net = service_net()
            gw = MembershipGateway(
                net, max_batch=64, batch_window_ms=40.0, deadline_ms=5.0
            )
            async with gw:
                # The override outlives the 40 ms window; the default
                # (5 ms) expires inside it.
                slow, fast = await asyncio.gather(
                    gw.join(deadline_ms=5000.0), gw.join()
                )
            return net, slow, fast

        net, slow, fast = run(scenario())
        assert slow.ok
        assert not fast.ok
        assert fast.reason == MembershipGateway.DEADLINE_REASON
        checked(net)

    def test_zero_deadline_refused(self):
        async def scenario():
            net = service_net(n0=16)
            async with MembershipGateway(net, batch_window_ms=1.0) as gw:
                with pytest.raises(ValueError, match="deadline_ms"):
                    await gw.join(deadline_ms=0.0)

        run(scenario())
        with pytest.raises(ValueError, match="deadline_ms"):
            MembershipGateway(service_net(n0=16), deadline_ms=-1.0)

    def test_deadline_expiry_across_drain(self):
        """Requests whose deadline passes while drain() is flushing the
        backlog are answered with the deadline rejection, not healed
        late -- the sweep runs before every flush even while closing."""

        async def scenario():
            net = service_net()
            size_before = net.size
            gw = MembershipGateway(
                net,
                max_batch=64,
                batch_window_ms=1000.0,
                deadline_ms=15.0,
            )
            await gw.start()
            futures = [
                asyncio.ensure_future(gw.join()) for _ in range(6)
            ]
            await asyncio.sleep(0)  # queue them, window still open
            await asyncio.sleep(0.03)  # let every deadline pass
            summary = await gw.drain()
            acks = await asyncio.gather(*futures)
            return net, size_before, summary, acks

        net, size_before, summary, acks = run(scenario())
        assert len(acks) == 6  # every future answered
        assert all(not a.ok for a in acks)
        assert {a.reason for a in acks} == {MembershipGateway.DEADLINE_REASON}
        assert net.size == size_before  # nothing healed late
        checked(net)
