"""Service metrics: exact quantile math against the numpy reference,
empty-window edge cases, and snapshot/window accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.metrics import ServiceMetrics, exact_quantile


class TestExactQuantile:
    @given(
        st.lists(
            st.floats(
                min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=64,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_numpy_linear_interpolation(self, values, q):
        ours = exact_quantile(values, q)
        reference = float(np.quantile(np.asarray(values), q))
        assert ours == pytest.approx(reference, rel=1e-12, abs=1e-9)

    def test_known_values(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert exact_quantile(data, 0.0) == 1.0
        assert exact_quantile(data, 1.0) == 4.0
        assert exact_quantile(data, 0.5) == 2.5
        assert exact_quantile(data, 0.25) == 1.75

    def test_unsorted_input(self):
        assert exact_quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_singleton_every_quantile(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert exact_quantile([7.0], q) == 7.0

    def test_empty_window_is_none(self):
        assert exact_quantile([], 0.5) is None

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(ValueError):
            exact_quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            exact_quantile([1.0], -0.1)


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestServiceMetrics:
    def test_empty_snapshot_has_no_percentiles(self):
        clock = _FakeClock()
        metrics = ServiceMetrics(clock=clock)
        clock.now += 2.0
        snap = metrics.snapshot()
        assert snap["events"] == 0
        assert snap["events_per_s"] == 0.0
        assert snap["ack_p50_ms"] is None
        assert snap["ack_p99_ms"] is None
        assert snap["ack_max_ms"] is None
        assert snap["batches"] == 0
        assert snap["mean_batch"] == 0.0
        assert snap["queue_depth_max"] == 0

    def test_snapshot_throughput_and_percentiles(self):
        clock = _FakeClock()
        metrics = ServiceMetrics(clock=clock)
        for latency in (0.010, 0.020, 0.030, 0.040):
            metrics.record_ack(latency, ok=True)
        metrics.record_ack(0.050, ok=False)
        metrics.record_flush(4, heal_s=0.004)
        metrics.record_flush(1, heal_s=0.001)
        metrics.record_enqueue(3)
        metrics.record_enqueue(5)
        clock.now += 2.0
        snap = metrics.snapshot()
        assert snap["events"] == 5
        assert snap["events_per_s"] == pytest.approx(2.5)
        assert snap["accepted"] == 4
        assert snap["rejected"] == 1
        assert snap["ack_p50_ms"] == pytest.approx(30.0)
        assert snap["ack_max_ms"] == pytest.approx(50.0)
        assert snap["batches"] == 2
        assert snap["mean_batch"] == pytest.approx(2.5)
        assert snap["max_batch_seen"] == 4
        assert snap["queue_depth_max"] == 5
        assert snap["heal_s"] == pytest.approx(0.005)
        assert snap["heal_utilization"] == pytest.approx(0.0025)

    def test_window_resets_between_calls(self):
        clock = _FakeClock()
        metrics = ServiceMetrics(clock=clock)
        metrics.record_ack(0.010, ok=True)
        clock.now += 1.0
        first = metrics.window()
        assert first["events"] == 1
        assert first["ack_p50_ms"] == pytest.approx(10.0)
        metrics.record_ack(0.030, ok=True)
        clock.now += 1.0
        second = metrics.window()
        assert second["events"] == 1  # only the ack since the last window
        assert second["ack_p50_ms"] == pytest.approx(30.0)
        empty = metrics.window()
        assert empty["events"] == 0
        assert empty["ack_p50_ms"] is None

    def test_backpressure_counted_separately(self):
        metrics = ServiceMetrics(clock=_FakeClock())
        metrics.record_backpressure()
        metrics.record_backpressure()
        snap = metrics.snapshot()
        assert snap["backpressure"] == 2
        assert snap["events"] == 0  # backpressure answers are not acks

    def test_one_histogram_backs_snapshot_window_and_exposition(self):
        """PR 10 satellite: the cumulative snapshot, the rolling window
        row and the Prometheus exposition all read the SAME registry
        histogram -- identity on the sample store, agreement on the
        numbers."""
        clock = _FakeClock()
        metrics = ServiceMetrics(clock=clock)
        hist = metrics.registry.histogram("dex.ack_latency_seconds")
        for latency in (0.010, 0.020, 0.030, 0.040, 0.050):
            metrics.record_ack(latency, ok=True)
        clock.now += 1.0
        snap = metrics.snapshot()
        summary = hist.summary()
        assert snap["ack_p50_ms"] == pytest.approx(summary["p50"] * 1e3)
        assert snap["ack_p99_ms"] == pytest.approx(summary["p99"] * 1e3)
        assert snap["events"] == summary["count"]
        text = metrics.registry.render_prometheus()
        assert "dex_ack_latency_seconds_count 5" in text
        assert 'dex_ack_latency_seconds{quantile="0.5"} 0.03' in text
        assert "dex_acks_accepted_total 5" in text
        # window() consumes the histogram's rolling mark
        row = metrics.window()
        assert row["events"] == 5
        assert hist.window_samples == []
        # exposition quantiles stay cumulative after the window reset
        assert 'quantile="0.5"} 0.03' in metrics.registry.render_prometheus()

    def test_snapshot_quantiles_equal_naive_sort_every_call(self):
        """PR 10 satellite: the memoized sort is an optimisation, not an
        approximation -- every snapshot's percentiles equal an explicit
        sort + exact_quantile over the retained samples, including after
        the memo has been reused and after new appends invalidate it."""
        import random

        clock = _FakeClock()
        metrics = ServiceMetrics(clock=clock)
        hist = metrics.registry.histogram("dex.ack_latency_seconds")
        rng = random.Random(41)
        for round_no in range(4):
            for _ in range(50):
                metrics.record_ack(rng.random(), ok=True)
            clock.now += 1.0
            for _ in range(2):  # second call exercises the memo path
                snap = metrics.snapshot()
                naive = sorted(hist.samples)
                for col, q in (
                    ("ack_p50_ms", 0.50),
                    ("ack_p90_ms", 0.90),
                    ("ack_p99_ms", 0.99),
                ):
                    expected = exact_quantile(naive, q)
                    assert snap[col] == pytest.approx(expected * 1e3), (
                        round_no,
                        col,
                    )

    def test_snapshot_reuses_sorted_memo_between_calls(self):
        """No re-sort when nothing new arrived: two back-to-back
        snapshots read the identical sorted list object; one new ack
        invalidates it."""
        metrics = ServiceMetrics(clock=_FakeClock())
        hist = metrics.registry.histogram("dex.ack_latency_seconds")
        metrics.record_ack(0.030, ok=True)
        metrics.record_ack(0.010, ok=True)
        metrics.snapshot()
        first = hist.sorted_samples()
        metrics.snapshot()
        assert hist.sorted_samples() is first
        metrics.record_ack(0.020, ok=True)
        metrics.snapshot()
        assert hist.sorted_samples() is not first

    def test_reset_windows_reanchors_clock_keeps_counters(self):
        """The post-restore hygiene call: elapsed/window time restarts at
        *now* and pending window samples drop, but cumulative counters
        (acks, batches) survive -- a freshly restored gateway must not
        report the dead process's wall clock."""
        clock = _FakeClock()
        metrics = ServiceMetrics(clock=clock)
        metrics.record_ack(0.010, ok=True)
        metrics.record_flush(1, 0.001)
        clock.now += 50.0  # the old process's lifetime + restore time
        metrics.reset_windows()
        clock.now += 2.0
        snap = metrics.snapshot()
        assert snap["elapsed_s"] == pytest.approx(2.0)
        assert snap["accepted"] == 1 and snap["batches"] == 1
        window = metrics.window()
        assert window["events"] == 0
        assert window["elapsed_s"] == pytest.approx(2.0)  # since the reset, not 52

    def test_registry_instruments_are_the_snapshot_store(self):
        """One store per fact: recording updates registry instruments in
        place, so with no publish step the registry's counters and
        gauges are the snapshot's columns -- and reset() zeroes them."""
        clock = _FakeClock()
        metrics = ServiceMetrics(clock=clock)
        metrics.record_enqueue(2)
        metrics.record_enqueue(4)
        metrics.record_ack(0.010, ok=True)
        metrics.record_ack(0.030, ok=True)
        metrics.record_ack(0.020, ok=False)
        metrics.record_flush(3, heal_s=0.25)
        metrics.record_shed()
        metrics.record_timeout()
        metrics.record_timeout()
        metrics.record_backpressure()
        metrics.record_retry()
        metrics.record_flush(1, heal_s=0.5)
        clock.now += 2.0
        snap = metrics.snapshot()
        exposed = metrics.registry.as_dict()
        assert exposed["counters"] == {
            "dex.acks_accepted_total": snap["accepted"],
            "dex.acks_rejected_total": snap["rejected"],
            "dex.backpressure_total": snap["backpressure"],
            "dex.shed_total": snap["shed"],
            "dex.deadline_timeouts_total": snap["deadline_timeouts"],
            "dex.retries_total": snap["retries"],
            "dex.batches_total": snap["batches"],
        }
        assert exposed["gauges"] == {
            "dex.heal_seconds_total": snap["heal_s"],
            "dex.queue_depth_max": snap["queue_depth_max"],
        }
        assert exposed["histograms"]["dex.ack_latency_seconds"]["count"] == snap["events"]
        assert snap == {
            "elapsed_s": 2.0,
            "events": 3,
            "events_per_s": 1.5,
            "accepted": 2,
            "rejected": 1,
            "backpressure": 1,
            "shed": 1,
            "deadline_timeouts": 2,
            "retries": 1,
            "ack_p50_ms": 20.0,
            "ack_p90_ms": 28.0,
            "ack_p99_ms": 29.8,
            "ack_max_ms": 30.0,
            "ack_mean_ms": 20.0,
            "batches": 2,
            "mean_batch": 2.0,
            "max_batch_seen": 3,
            "queue_depth_max": 4,
            "queue_depth_mean": 3.0,
            "heal_s": 0.75,
            "heal_utilization": 0.375,
            "goodput_per_s": 1.0,
        }
        metrics.reset()
        exposed = metrics.registry.as_dict()
        assert set(exposed["counters"].values()) == {0}
        assert set(exposed["gauges"].values()) == {0}
        assert exposed["histograms"]["dex.ack_latency_seconds"]["count"] == 0
