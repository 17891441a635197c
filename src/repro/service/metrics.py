"""Service-side observability for the membership gateway.

The gateway records three signal families into a :class:`ServiceMetrics`
instance: per-request **ack latency** (enqueue to future resolution),
per-flush **batch shape** (size and engine wall-clock), and **queue
depth** at every enqueue.  A :meth:`~ServiceMetrics.snapshot` turns them
into the row the soak harness persists under the ``service`` key of
``BENCH_perf.json``: sustained events/sec plus p50/p90/p99/max ack
latency.

Every fact is stored **once, in the metrics registry**: ack latencies
(count, sum and max included) in the ``dex.ack_latency_seconds``
histogram, request and flush counts in counters, engine wall-clock and
the deepest queue in gauges.  The cumulative snapshot, the rolling
``window()`` row ``repro.cli serve`` prints and the Prometheus/JSON
exposition all read those instruments, so they can never disagree; only
the sums behind the batch-size and queue-depth means stay private ints.

Quantiles are *exact* -- :func:`~repro.obs.registry.exact_quantile`
(re-exported here for compatibility) matches ``numpy.quantile``'s
default method bit for bit -- and the histogram memoizes its sorted
window, so a p50/p90/p99 snapshot sorts at most once.  Retention is
*bounded*: counts and means cover the whole run, percentiles the newest
``SAMPLE_CAP`` acks (a long-running ``repro.cli serve`` must not grow
memory with uptime).
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    exact_quantile,  # noqa: F401  (re-export: the historical home)
    quantile_sorted,
)


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else round(seconds * 1e3, 6)


#: snapshot columns that add across shards
_SUM_KEYS = (
    "events",
    "accepted",
    "rejected",
    "backpressure",
    "shed",
    "deadline_timeouts",
    "retries",
    "batches",
    "events_per_s",
    "goodput_per_s",
    "heal_s",
)
#: columns where the cluster-wide figure is the worst shard's
_MAX_KEYS = (
    "ack_p50_ms",
    "ack_p90_ms",
    "ack_p99_ms",
    "ack_max_ms",
    "ack_mean_ms",
    "max_batch_seen",
    "queue_depth_max",
    "elapsed_s",
)


def aggregate_snapshots(rows: Sequence[dict]) -> dict:
    """Cross-shard rollup of per-shard :meth:`ServiceMetrics.snapshot`
    rows: counters and rates *sum* (the shards run concurrently, so
    cluster throughput is the sum of shard throughputs), latency
    quantiles take the *max* (a per-shard pXX is exact for its shard;
    the max is the tight upper bound the rollup can honestly claim
    without resampling every shard's raw window)."""
    if not rows:
        raise ValueError("cannot aggregate an empty snapshot list")
    out: dict = {"shards": len(rows)}
    for key in _SUM_KEYS:
        values = [row[key] for row in rows if row.get(key) is not None]
        out[key] = round(sum(values), 6) if values else None
    for key in _MAX_KEYS:
        values = [row[key] for row in rows if row.get(key) is not None]
        out[key] = max(values) if values else None
    return out


#: newest ack latencies whose percentiles a snapshot reports
SAMPLE_CAP = 200_000


class ServiceMetrics:
    """Records gateway samples into registry instruments; summarised on
    demand.  ``clock`` is injectable so tests can drive deterministic
    latencies; ``registry`` is a private one unless the caller shares
    one."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        registry: MetricsRegistry | None = None,
        started_at: float | None = None,
    ) -> None:
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started_at = clock() if started_at is None else started_at
        self._window_started_at = self.started_at
        self._ack = self.registry.histogram(
            "dex.ack_latency_seconds",
            "per-request enqueue-to-resolution latency",
            window=SAMPLE_CAP,
        )
        counter, gauge = self.registry.counter, self.registry.gauge
        self._accepted = counter("dex.acks_accepted_total", "requests healed successfully")
        self._rejected = counter("dex.acks_rejected_total", "requests resolved as rejected")
        self._backpressure = counter(
            "dex.backpressure_total", "requests refused by the bounded queue"
        )
        self._shed = counter("dex.shed_total", "queued requests shed by admission policy")
        self._timeouts = counter("dex.deadline_timeouts_total", "requests expired before flush")
        self._retries = counter("dex.retries_total", "client retry attempts observed")
        self._batches = counter("dex.batches_total", "gateway flushes executed")
        self._heal = gauge("dex.heal_seconds_total", "cumulative engine wall-clock")
        self._depth_max = gauge("dex.queue_depth_max", "deepest queue observed at enqueue")
        #: the scalar instruments :meth:`reset` zeroes
        self._owned: list[Counter | Gauge] = [
            self._accepted, self._rejected, self._backpressure, self._shed,
            self._timeouts, self._retries, self._batches, self._heal, self._depth_max,
        ]
        self._zero_private()

    def _zero_private(self) -> None:
        self._batch_size_sum = self._batch_size_max = 0
        self._depth_count = self._depth_sum = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_enqueue(self, depth: int) -> None:
        self._depth_count += 1
        self._depth_sum += depth
        if depth > self._depth_max.value:
            self._depth_max.set(depth)

    def record_ack(self, latency_s: float, ok: bool) -> None:
        # one observe: sample deque, rolling window, count/sum/max and
        # the sorted memo's invalidation all happen inside the histogram
        self._ack.observe(latency_s)
        (self._accepted if ok else self._rejected).inc()

    def record_backpressure(self) -> None:
        self._backpressure.inc()

    def record_shed(self) -> None:
        self._shed.inc()

    def record_timeout(self) -> None:
        self._timeouts.inc()

    def record_retry(self) -> None:
        self._retries.inc()

    def record_flush(self, submitted: int, heal_s: float) -> None:
        self._batches.inc()
        self._batch_size_sum += submitted
        if submitted > self._batch_size_max:
            self._batch_size_max = submitted
        self._heal.inc(heal_s)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def _summarise(
        self, sorted_acks: Sequence[float], events: int, elapsed_s: float
    ) -> dict[str, float | int | None]:
        """Build a summary row.  ``sorted_acks`` must already be in
        ascending order (the histogram's memoized sort, or one explicit
        sort of a rolling window): the p50/p90/p99 reads then cost three
        interpolations, not three sorts."""
        batches = self._batches.value
        heal_s = self._heal.value
        ack = self._ack
        return {
            "elapsed_s": round(elapsed_s, 6),
            "events": events,
            "events_per_s": round(events / elapsed_s, 3) if elapsed_s > 0 else 0.0,
            "accepted": self._accepted.value,
            "rejected": self._rejected.value,
            "backpressure": self._backpressure.value,
            "shed": self._shed.value,
            "deadline_timeouts": self._timeouts.value,
            "retries": self._retries.value,
            "ack_p50_ms": _ms(quantile_sorted(sorted_acks, 0.50)),
            "ack_p90_ms": _ms(quantile_sorted(sorted_acks, 0.90)),
            "ack_p99_ms": _ms(quantile_sorted(sorted_acks, 0.99)),
            "ack_max_ms": _ms(ack.max if ack.count else None),
            "ack_mean_ms": _ms(ack.sum / ack.count if ack.count else None),
            "batches": batches,
            "mean_batch": (
                round(self._batch_size_sum / batches, 3) if batches else 0.0
            ),
            "max_batch_seen": self._batch_size_max,
            "queue_depth_max": self._depth_max.value,
            "queue_depth_mean": (
                round(self._depth_sum / self._depth_count, 3)
                if self._depth_count
                else 0.0
            ),
            "heal_s": round(heal_s, 6),
            "heal_utilization": (
                round(heal_s / elapsed_s, 4) if elapsed_s > 0 else 0.0
            ),
        }

    def snapshot(self) -> dict[str, float | int | None]:
        """Cumulative summary since construction: throughput, ack
        latency percentiles (over the retained ``SAMPLE_CAP`` newest
        acks), batch shape and queue pressure.  Safe on an empty run
        (rates zero, percentiles ``None``).  ``events_per_s`` counts
        every flushed request; ``goodput_per_s`` counts only healed
        (``ok``) ones -- under saturation the gap between the two is the
        served-but-rejected fraction, and door rejections (backpressure,
        shed, deadline) appear in neither."""
        elapsed_s = self.clock() - self.started_at
        row = self._summarise(self._ack.sorted_samples(), self._ack.count, elapsed_s)
        row["goodput_per_s"] = (
            round(self._accepted.value / elapsed_s, 3) if elapsed_s > 0 else 0.0
        )
        return row

    def reset_windows(self) -> None:
        """Re-anchor the elapsed/window clocks at *now* and drop pending
        window samples.  Required after a process restore: ``started_at``
        is a ``perf_counter`` reading, which is meaningless across
        processes (and inflated by however long the restore itself took),
        so a freshly restored gateway would otherwise report garbage
        ``elapsed_s`` / ``events_per_s`` in its first
        :meth:`snapshot`/:meth:`window` rows.  Cumulative counters are
        kept -- only the time base and the rolling window reset."""
        now = self.clock()
        self.started_at = now
        self._window_started_at = now
        self._ack.take_window()

    def reset(self) -> None:
        """Zero every cumulative counter and re-anchor the clocks: the
        summaries that follow cover only what happens after this call.
        Benchmarks use it to exclude a warmup phase (cold CSR caches,
        first-flush rebuilds) from the steady-state row."""
        self._ack.clear()
        for metric in self._owned:
            metric.value = 0
        self._zero_private()
        self.reset_windows()

    def window(self) -> dict[str, float | int | None]:
        """Summary of the acks since the previous :meth:`window` call
        (the periodic progress row of ``repro.cli serve``), then drop
        the consumed samples and advance the boundary.  Counter and
        batch/queue columns stay cumulative."""
        now = self.clock()
        acks = self._ack.take_window()
        row = self._summarise(
            sorted(acks), len(acks), now - self._window_started_at
        )
        # per-window max/mean, not the run-wide aggregates
        row["ack_max_ms"] = _ms(max(acks) if acks else None)
        row["ack_mean_ms"] = _ms(sum(acks) / len(acks) if acks else None)
        self._window_started_at = now
        return row
