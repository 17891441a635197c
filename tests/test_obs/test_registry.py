"""obs.registry units: counter/gauge semantics, the histogram's bounded
window + memoized sort, get-or-create identity, and both expositions."""

from __future__ import annotations

import random

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exact_quantile,
    quantile_sorted,
)


class TestScalars:
    def test_counter_monotone(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_inc(self):
        g = Gauge("g")
        g.set(7)
        g.inc(-2)
        assert g.value == 5


class TestHistogram:
    def test_aggregates_and_quantiles(self):
        h = Histogram("h")
        rng = random.Random(3)
        values = [rng.random() for _ in range(200)]
        for v in values:
            h.observe(v)
        assert h.count == 200
        assert h.sum == pytest.approx(sum(values))
        assert h.max == max(values)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(exact_quantile(values, q))

    def test_sorted_memo_reused_until_observe(self):
        h = Histogram("h")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        first = h.sorted_samples()
        assert first == [1.0, 2.0, 3.0]
        assert h.sorted_samples() is first  # memo: no re-sort
        h.observe(0.5)
        second = h.sorted_samples()
        assert second is not first  # append invalidated the memo
        assert second == [0.5, 1.0, 2.0, 3.0]

    def test_bounded_window_evicts_oldest(self):
        h = Histogram("h", window=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert list(h.samples) == [2.0, 3.0, 4.0]
        assert h.count == 4  # cumulative count keeps the evicted sample

    def test_take_window_returns_and_resets(self):
        h = Histogram("h")
        h.observe(1.0)
        h.observe(2.0)
        assert h.take_window() == [1.0, 2.0]
        assert h.take_window() == []
        h.observe(3.0)
        assert h.take_window() == [3.0]
        assert list(h.samples) == [1.0, 2.0, 3.0]  # cumulative unaffected

    def test_clear_resets_everything(self):
        h = Histogram("h")
        h.observe(5.0)
        h.clear()
        assert h.count == 0 and h.sum == 0.0 and h.max == 0.0
        assert list(h.samples) == [] and h.window_samples == []
        assert h.quantile(0.5) is None

    def test_summary_of_empty_window(self):
        assert Histogram("h").summary() == {
            "count": 0, "sum": 0.0, "max": 0.0,
            "p50": None, "p90": None, "p99": None,
        }

    def test_window_floor(self):
        with pytest.raises(ValueError):
            Histogram("h", window=0)


class TestQuantileHelpers:
    def test_quantile_sorted_interpolates(self):
        assert quantile_sorted([1.0, 2.0, 3.0, 4.0], 0.25) == 1.75

    def test_empty_is_none_and_range_enforced(self):
        assert quantile_sorted([], 0.5) is None
        with pytest.raises(ValueError):
            quantile_sorted([1.0], 1.5)


class TestRegistry:
    def test_get_or_create_returns_live_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("dex.x", "first help wins")
        b = reg.counter("dex.x", "ignored")
        assert a is b
        assert "dex.x" in reg

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("dex.x")
        with pytest.raises(ValueError):
            reg.gauge("dex.x")
        with pytest.raises(ValueError):
            reg.histogram("dex.x")

    def test_as_dict_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("dex.c").inc(3)
        reg.gauge("dex.g").set(1.5)
        reg.histogram("dex.h").observe(2.0)
        d = reg.as_dict()
        assert d["counters"] == {"dex.c": 3}
        assert d["gauges"] == {"dex.g": 1.5}
        assert d["histograms"]["dex.h"]["count"] == 1

    def test_prometheus_exposition_shape(self):
        reg = MetricsRegistry()
        reg.counter("dex.shed_total", "shed requests").inc(5)
        reg.gauge("dex.queue-depth").set(2)
        h = reg.histogram("dex.ack_latency_seconds", "ack latency")
        h.observe(0.5)
        text = reg.render_prometheus()
        assert "# HELP dex_shed_total shed requests" in text
        assert "# TYPE dex_shed_total counter" in text
        assert "dex_shed_total 5" in text
        assert "dex_queue_depth 2" in text  # dots and dashes normalised
        assert 'dex_ack_latency_seconds{quantile="0.5"} 0.5' in text
        assert "dex_ack_latency_seconds_count 1" in text
        assert text.endswith("\n")
