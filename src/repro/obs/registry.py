"""One metrics registry: counters, gauges, and exact-quantile
histograms with JSON and Prometheus-text exposition.

The registry is the one store of every serving-tier count: producers
update named instruments in place (``ServiceMetrics`` its ack histogram
and counters, the flush core its checkpoint counters, the router its
handoff ledger), and every view -- snapshot row, serve table,
exposition -- reads the *same* instrument, so two views of one quantity
can never disagree.

Histograms keep a bounded sample window and compute **exact** quantiles
(sort + linear interpolation, bit-matching ``numpy.quantile``'s default
method -- :func:`exact_quantile` moved here from
``repro.service.metrics`` so every layer may use it).  The sort is
memoized per snapshot and invalidated on append, so a summary that
reads several quantiles (p50/p90/p99) sorts the window once instead of
per call.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Sequence


def quantile_sorted(data: Sequence[float], q: float) -> float | None:
    """The ``q``-quantile of an already **sorted** sequence by linear
    interpolation between closest ranks.  ``None`` on an empty window
    -- an empty soak interval is a fact to report, not an exception."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not data:
        return None
    position = q * (len(data) - 1)
    lower = int(position)
    upper = min(lower + 1, len(data) - 1)
    fraction = position - lower
    return data[lower] * (1.0 - fraction) + data[upper] * fraction


def exact_quantile(values: Sequence[float], q: float) -> float | None:
    """The ``q``-quantile of ``values`` by linear interpolation between
    closest ranks (``numpy.quantile``'s default ``linear`` method).
    Sorts per call; summaries that need several quantiles of one window
    should use :class:`Histogram`'s memoized sort instead."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return None
    return quantile_sorted(sorted(values), q)


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


class Counter:
    """A monotone total."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (by {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, policy window, shard count)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram:
    """Bounded-window sample store with memoized exact quantiles and a
    rolling mark for disjoint-window summaries.

    * ``samples`` -- the newest ``window`` observations (deque; the
      exposition / cumulative-snapshot window).
    * ``window_samples`` -- observations since the last
      :meth:`take_window` (the ``repro.cli serve`` progress row); the
      same list the service metrics' rolling window reads, so the serve
      table and the exposition can never disagree about what was
      observed.
    * The sorted view is computed at most once per append
      (:meth:`sorted_samples` memo, invalidated by :meth:`observe`), so
      a p50/p90/p99 summary costs one sort, not three.
    """

    __slots__ = (
        "name",
        "help",
        "samples",
        "window_samples",
        "count",
        "sum",
        "max",
        "_sorted",
        "_window_cap",
    )

    def __init__(self, name: str, help: str = "", window: int = 200_000) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.name = name
        self.help = help
        self.samples: deque[float] = deque(maxlen=window)
        self.window_samples: list[float] = []
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self._sorted: list[float] | None = None
        self._window_cap = window

    def observe(self, value: float) -> None:
        self.samples.append(value)
        if len(self.window_samples) < self._window_cap:
            self.window_samples.append(value)
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        self._sorted = None

    def sorted_samples(self) -> list[float]:
        """The retained window in sorted order, sorted at most once per
        append (the satellite-1 memo: invalidated by :meth:`observe`,
        reused across repeated snapshots and across the p50/p90/p99
        reads of one snapshot)."""
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        return self._sorted

    def quantile(self, q: float) -> float | None:
        return quantile_sorted(self.sorted_samples(), q)

    def quantiles(self, qs: Iterable[float]) -> list[float | None]:
        data = self.sorted_samples()
        return [quantile_sorted(data, q) for q in qs]

    def take_window(self) -> list[float]:
        """Return-and-reset the rolling samples since the last call."""
        marks = self.window_samples
        self.window_samples = []
        return marks

    def clear(self) -> None:
        self.samples.clear()
        self.window_samples = []
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self._sorted = None

    def summary(self) -> dict[str, Any]:
        p50, p90, p99 = self.quantiles((0.50, 0.90, 0.99))
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "max": self.max,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }


class MetricsRegistry:
    """Name -> metric, with get-or-create accessors (re-registering an
    existing name returns the live instance; a kind mismatch is a
    programming error and raises)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind: type, factory: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(self, name: str, help: str = "", window: int = 200_000) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, help, window))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON exposition: one object per metric kind."""
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.summary()
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (counters/gauges verbatim,
        histograms as summary-style quantile series plus _count/_sum)."""
        lines: list[str] = []
        for name, metric in sorted(self._metrics.items()):
            pname = _prom_name(name)
            if metric.help:
                lines.append(f"# HELP {pname} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {pname} counter")
                lines.append(f"{pname} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {metric.value}")
            else:
                lines.append(f"# TYPE {pname} summary")
                summary = metric.summary()
                for q in ("p50", "p90", "p99"):
                    value = summary[q]
                    if value is not None:
                        quantile = {"p50": "0.5", "p90": "0.9", "p99": "0.99"}[q]
                        lines.append(f'{pname}{{quantile="{quantile}"}} {value}')
                lines.append(f"{pname}_count {summary['count']}")
                lines.append(f"{pname}_sum {summary['sum']}")
        return "\n".join(lines) + "\n"


#: the process-default registry (surfaces may still build private ones,
#: e.g. per-shard registries aggregated by the router)
REGISTRY = MetricsRegistry()
