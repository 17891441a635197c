"""Service-side observability for the membership gateway.

The gateway records three signal families into a :class:`ServiceMetrics`
instance: per-request **ack latency** (enqueue to future resolution),
per-flush **batch shape** (submitted / accepted / rejected sizes and
engine wall-clock), and **queue depth** at every enqueue.  A
:meth:`~ServiceMetrics.snapshot` turns the accumulated samples into the
row the soak harness persists under the ``service`` key of
``BENCH_perf.json``: sustained events/sec plus p50/p90/p99/max ack
latency.

Quantiles are *exact* -- :func:`~repro.obs.registry.exact_quantile`
(re-exported here for compatibility) linearly interpolates between
closest ranks, matching ``numpy.quantile``'s default method bit for bit
(the test suite checks them against the numpy reference) -- because the
percentile math must not be another dependency's approximation.
Retention is *bounded*: counters and means are running aggregates over
the whole run, while percentile samples keep the most recent
``sample_cap`` acks (a long-running ``repro.cli serve`` must not grow
memory with uptime), so a soak within the cap gets full-run-exact
percentiles and anything longer gets recent-window-exact ones.

Since PR 10 the ack-latency samples live in **one registry histogram**
(:class:`~repro.obs.registry.Histogram`): the cumulative snapshot, the
rolling ``window()`` row that ``repro.cli serve`` prints, and the
Prometheus/JSON exposition all read the same sample store, so they can
never disagree.  The histogram also memoizes its sorted window
(invalidated on append), so a p50/p90/p99 snapshot sorts once instead
of three times per call -- and not at all when nothing new arrived.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs.registry import (
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


@dataclass
class FlushRecord:
    """Shape of one gateway flush (one batch-engine wave)."""

    kind: str
    submitted: int
    accepted: int
    rejected: int
    heal_s: float


@dataclass
class ServiceMetrics:
    """Accumulates gateway samples; cheap to record, summarised on
    demand.  ``clock`` is injectable so tests can drive deterministic
    latencies; ``sample_cap`` bounds percentile-sample (and flush-log)
    retention."""

    clock: Callable[[], float] = time.perf_counter
    started_at: float | None = None
    #: most recent ack latencies (seconds), bounded to ``sample_cap``.
    #: Since PR 10 this deque is the *registry histogram's* sample
    #: store -- one window shared by snapshot, serve table and
    #: exposition.
    sample_cap: int = 200_000
    #: the metrics registry this instance publishes into (a private one
    #: unless the caller shares a process-wide registry)
    registry: MetricsRegistry | None = None
    ack_latencies_s: deque = field(default_factory=deque)
    #: the most recent flushes, same bound
    flushes: deque = field(default_factory=deque)
    accepted_events: int = 0
    rejected_events: int = 0
    #: requests refused at the door by the bounded queue (answered with
    #: a rejected outcome, never silently dropped)
    backpressure_rejections: int = 0
    #: queued requests dropped by the admission policy's high-water mark
    #: (each answered with a rejected shed outcome)
    shed_events: int = 0
    #: queued requests whose deadline expired before their flush (each
    #: answered with a rejected deadline outcome, never healed late)
    deadline_timeouts: int = 0
    #: client retry attempts observed by the load generator
    retries: int = 0
    heal_s: float = 0.0
    # running aggregates (whole run, unbounded time, O(1) memory)
    batches: int = 0
    _batch_size_sum: int = 0
    _batch_size_max: int = 0
    _depth_count: int = 0
    _depth_sum: int = 0
    _depth_max: int = 0
    _ack_sum_s: float = 0.0
    _ack_max_s: float = 0.0
    _window_started_at: float | None = None

    def __post_init__(self) -> None:
        if self.started_at is None:
            self.started_at = self.clock()
        self._window_started_at = self.started_at
        if self.registry is None:
            self.registry = MetricsRegistry()
        self._ack_hist = self.registry.histogram(
            "dex.ack_latency_seconds",
            "per-request enqueue-to-resolution latency",
            window=self.sample_cap,
        )
        if self.ack_latencies_s:
            for latency in self.ack_latencies_s:
                self._ack_hist.observe(latency)
            self._ack_hist.reset_window()
        # one sample store: the histogram's bounded deque IS the
        # public ack_latencies_s attribute
        self.ack_latencies_s = self._ack_hist.samples
        self.flushes = deque(self.flushes, maxlen=self.sample_cap)

    @property
    def _window_acks(self) -> list:
        """Acks since the last :meth:`window` call -- the histogram's
        rolling mark (kept as a property so restore paths and tests may
        reset it in place)."""
        return self._ack_hist.window_samples

    @_window_acks.setter
    def _window_acks(self, values: Sequence[float]) -> None:
        self._ack_hist.window_samples = list(values)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_enqueue(self, depth: int) -> None:
        self._depth_count += 1
        self._depth_sum += depth
        if depth > self._depth_max:
            self._depth_max = depth

    def record_ack(self, latency_s: float, ok: bool) -> None:
        # one observe: cumulative deque, rolling window and the sorted
        # memo's invalidation all happen inside the histogram
        self._ack_hist.observe(latency_s)
        self._ack_sum_s += latency_s
        if latency_s > self._ack_max_s:
            self._ack_max_s = latency_s
        if ok:
            self.accepted_events += 1
        else:
            self.rejected_events += 1

    def record_backpressure(self) -> None:
        self.backpressure_rejections += 1

    def record_shed(self) -> None:
        self.shed_events += 1

    def record_timeout(self) -> None:
        self.deadline_timeouts += 1

    def record_retry(self) -> None:
        self.retries += 1

    def record_flush(
        self, kind: str, submitted: int, accepted: int, rejected: int, heal_s: float
    ) -> None:
        self.flushes.append(
            FlushRecord(kind, submitted, accepted, rejected, heal_s)
        )
        self.batches += 1
        self._batch_size_sum += submitted
        if submitted > self._batch_size_max:
            self._batch_size_max = submitted
        self.heal_s += heal_s

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
        return {
            "elapsed_s": round(elapsed_s, 6),
            "events": events,
            "events_per_s": round(events / elapsed_s, 3) if elapsed_s > 0 else 0.0,
            "accepted": self.accepted_events,
            "rejected": self.rejected_events,
            "backpressure": self.backpressure_rejections,
            "shed": self.shed_events,
            "deadline_timeouts": self.deadline_timeouts,
            "retries": self.retries,
            "ack_p50_ms": _ms(quantile_sorted(sorted_acks, 0.50)),
            "ack_p90_ms": _ms(quantile_sorted(sorted_acks, 0.90)),
            "ack_p99_ms": _ms(quantile_sorted(sorted_acks, 0.99)),
            "ack_max_ms": _ms(self._ack_max_s if events else None),
            "ack_mean_ms": _ms(self._ack_sum_s / events if events else None),
            "batches": self.batches,
            "mean_batch": (
                round(self._batch_size_sum / self.batches, 3)
                if self.batches
                else 0.0
            ),
            "max_batch_seen": self._batch_size_max,
            "queue_depth_max": self._depth_max,
            "queue_depth_mean": (
                round(self._depth_sum / self._depth_count, 3)
                if self._depth_count
                else 0.0
            ),
            "heal_s": round(self.heal_s, 6),
            "heal_utilization": (
                round(self.heal_s / elapsed_s, 4) if elapsed_s > 0 else 0.0
            ),
        }

    def snapshot(self) -> dict[str, float | int | None]:
        """Cumulative summary since construction: throughput, ack
        latency percentiles (over the retained ``sample_cap`` newest
        acks), batch shape and queue pressure.  Safe on an empty run
        (rates zero, percentiles ``None``).  ``events_per_s`` counts
        every flushed request; ``goodput_per_s`` counts only healed
        (``ok``) ones -- under saturation the gap between the two is the
        served-but-rejected fraction, and door rejections (backpressure,
        shed, deadline) appear in neither."""
        elapsed_s = self.clock() - (self.started_at or 0.0)
        row = self._summarise(
            self._ack_hist.sorted_samples(),
            self.accepted_events + self.rejected_events,
            elapsed_s,
        )
        row["goodput_per_s"] = (
            round(self.accepted_events / elapsed_s, 3) if elapsed_s > 0 else 0.0
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
        self._window_acks = []

    def reset(self) -> None:
        """Zero every cumulative counter and re-anchor the clocks: the
        summaries that follow cover only what happens after this call.
        Benchmarks use it to exclude a warmup phase (cold CSR caches,
        first-flush rebuilds) from the steady-state row."""
        # hist.clear() empties the shared sample deque (ack_latencies_s
        # is the same object) *and* the running count/sum/max + memo
        self._ack_hist.clear()
        self.flushes.clear()
        self.accepted_events = 0
        self.rejected_events = 0
        self.backpressure_rejections = 0
        self.shed_events = 0
        self.deadline_timeouts = 0
        self.retries = 0
        self.heal_s = 0.0
        self.batches = 0
        self._batch_size_sum = 0
        self._batch_size_max = 0
        self._depth_count = 0
        self._depth_sum = 0
        self._depth_max = 0
        self._ack_sum_s = 0.0
        self._ack_max_s = 0.0
        self.reset_windows()

    def window(self) -> dict[str, float | int | None]:
        """Summary of the acks since the previous :meth:`window` call
        (the periodic progress row of ``repro.cli serve``), then drop
        the consumed samples and advance the boundary.  Counter and
        batch/queue columns stay cumulative."""
        now = self.clock()
        acks = self._ack_hist.take_window()
        row = self._summarise(
            sorted(acks), len(acks), now - (self._window_started_at or now)
        )
        # per-window max/mean, not the run-wide aggregates
        row["ack_max_ms"] = _ms(max(acks) if acks else None)
        row["ack_mean_ms"] = _ms(sum(acks) / len(acks) if acks else None)
        self._window_started_at = now
        return row

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def publish_registry(self) -> MetricsRegistry:
        """Sync the cumulative counters into the shared registry and
        return it.  The ack-latency histogram needs no sync (it *is*
        the registry's); counters publish on read so the hot path stays
        two integer adds per event."""
        registry = self.registry
        assert registry is not None  # set in __post_init__
        registry.counter(
            "dex.acks_total", "requests resolved (healed or rejected)"
        ).set_total(self.accepted_events + self.rejected_events)
        registry.counter(
            "dex.acks_accepted_total", "requests healed successfully"
        ).set_total(self.accepted_events)
        registry.counter(
            "dex.acks_rejected_total", "requests resolved as rejected"
        ).set_total(self.rejected_events)
        registry.counter(
            "dex.backpressure_total", "requests refused by the bounded queue"
        ).set_total(self.backpressure_rejections)
        registry.counter(
            "dex.shed_total", "queued requests shed by admission policy"
        ).set_total(self.shed_events)
        registry.counter(
            "dex.deadline_timeouts_total", "requests expired before flush"
        ).set_total(self.deadline_timeouts)
        registry.counter(
            "dex.retries_total", "client retry attempts observed"
        ).set_total(self.retries)
        registry.counter(
            "dex.batches_total", "gateway flushes executed"
        ).set_total(self.batches)
        registry.gauge(
            "dex.heal_seconds_total", "cumulative engine wall-clock"
        ).set(round(self.heal_s, 6))
        registry.gauge(
            "dex.queue_depth_max", "deepest queue observed at enqueue"
        ).set(self._depth_max)
        return registry

    def render_exposition(self) -> str:
        """Prometheus text exposition of the synced registry -- the
        same histogram the serve table and soak row read, so the three
        surfaces cannot disagree."""
        return self.publish_registry().render_prometheus()
