"""Turns what the driver saw into the benchmark's named metrics.

Names, units, directions and bounds live in ``BENCHMARK.json`` (the
contract); this module only computes values.  End-to-end metrics come
from untraced repetitions.  Per-layer metrics come from a traced
repetition: boundary time metrics are *self* time (a span's duration
minus the part its child spans cover), so the layers add up to the
core-call time instead of counting nested work twice.  A metric whose
boundary no longer resolves is ``None``.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from typing import Iterable, Sequence

from bench.driver import Rep, peak_rss_mb
from bench.trace import BOUNDARIES, CORE_CALLS, ShimTracer, Span, self_time_by_name

_BATCH_INSERT, _BATCH_DELETE, _STEP_INSERT, _STEP_DELETE = CORE_CALLS
_VALIDATE = (
    "repro.core.multi.partition_insert_batch",
    "repro.core.multi.partition_delete_batch",
)
_TYPE2 = (
    "repro.core.type2_simplified.simplified_inflate",
    "repro.core.type2_simplified.simplified_deflate",
    "repro.core.type2_staggered.StaggeredOp.advance",
    "repro.core.type2_staggered.StaggeredOp.redistribute_after_deletion",
)
_FLOOD = ("repro.net.flood.flood_echo_analytic", "repro.net.flood.flood_echo_engine")
_WAVE = ("repro.net.walks.run_wave",)
_WALK = ("repro.net.walks.random_walk",)
_CONNECTIVITY = ("repro.net.topology.DynamicMultigraph.survivors_connected",)
_CSR = (
    "repro.net.topology.DynamicMultigraph.to_sparse_adjacency",
    "repro.net.topology.DynamicMultigraph.csr_wave_view",
)
_BFS = ("repro.net.topology.DynamicMultigraph.bfs_distances",)
assert {*CORE_CALLS, *_VALIDATE, *_TYPE2, *_FLOOD, *_WAVE, *_WALK,
        *_CONNECTIVITY, *_CSR, *_BFS} == set(BOUNDARIES)  # fmt: skip


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (0.0 if empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _latencies_ms(rep: Rep) -> list[float]:
    phase = rep.phase
    return sorted(
        (ack - submit) * 1e3 for submit, ack in zip(phase.submit_t, phase.ack_t)
    )


def answering_calls(rep: Rep) -> list[Span | None]:
    """Per operation, the core call that answered it: the last one that
    ended before the driver saw the ack (``None`` without spans).  Queue
    wait + core call + resolve then add up to the measured latency by
    construction."""
    calls = sorted(
        (s for s in rep.spans or [] if s.parent is None and s.core >= 0),
        key=lambda s: s.end,
    )
    ends = [s.end for s in calls]
    return [
        calls[k - 1] if (k := bisect_right(ends, ack)) else None
        for ack in rep.phase.ack_t
    ]


def end_to_end(reps: Iterable[Rep]) -> dict[str, dict]:
    """Median over the run's repetitions of every end-to-end metric,
    each with the sample count behind it."""
    reps = list(reps)
    latencies = [_latencies_ms(rep) for rep in reps]
    samples = len(latencies[0])
    cluster = reps[0].workload.mode == "cluster"
    return {
        "setup_s": {
            "value": statistics.median(rep.setup_s for rep in reps),
            "samples": len(reps),
        },
        "events_per_s": {
            "value": statistics.median(
                rep.phase.ops / rep.phase.wall_s for rep in reps
            ),
            "samples": samples,
        },
        "lat_p50_ms": {
            "value": statistics.median(quantile(lat, 0.50) for lat in latencies),
            "samples": samples,
        },
        "lat_p95_ms": {
            "value": statistics.median(quantile(lat, 0.95) for lat in latencies),
            "samples": samples,
        },
        "peak_rss_mb": {"value": peak_rss_mb(include_children=cluster), "samples": 1},
    }


def per_layer(rep: Rep, tracer: ShimTracer, untraced_wall_s: float) -> dict:
    """Every per-layer metric of one traced repetition.
    ``untraced_wall_s`` is the measured wall-clock of the same schedule
    run with the shims off (for ``trace.overhead_share``)."""
    phase = rep.phase
    spans = rep.spans or []
    events = phase.ops
    wall = phase.wall_s
    healed = max(1, events - phase.failed - phase.refused)
    by_name = self_time_by_name(spans)
    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span.name, []).append(span.total)
    unresolved = set(tracer.unresolved)

    def stat(index: int, names: tuple[str, ...]) -> float | None:
        """Calls (0) or self seconds (1) summed over ``names``."""
        if unresolved.intersection(names):
            return None
        return sum(by_name.get(name, (0, 0.0))[index] for name in names)

    def per(value: float | None, count: float, scale: float = 1.0) -> float | None:
        if value is None:
            return None
        return value * scale / count if count else 0.0

    def self_ms_per(names: tuple[str, ...], count: float) -> float | None:
        return per(stat(1, names), count, 1e3)

    def total_ms_per_event(name: str) -> float | None:
        return None if name in unresolved else sum(durations.get(name, ())) * 1e3 / events

    def p50_of(name: str, scale: float) -> float | None:
        if name in unresolved:
            return None
        return quantile(sorted(durations.get(name, ())), 0.5) * scale

    latencies = _latencies_ms(rep)
    flushes = [s for s in spans if s.name in (_BATCH_INSERT, _BATCH_DELETE)]
    batch_unresolved = bool(unresolved.intersection((_BATCH_INSERT, _BATCH_DELETE)))
    out: dict[str, float | None] = {
        "client.samples": len(latencies),
        "client.lat_p99_ms": quantile(latencies, 0.99),
        "client.lat_max_ms": latencies[-1],
        "client.gen_lag_p99_ms": quantile(
            sorted((s - d) * 1e3 for d, s in zip(phase.submit_t, phase.send_t)), 0.99
        ),
    }

    # -- service.gateway
    gateway = rep.workload.mode in ("closed", "open")
    queue_wait: list[float] = []
    resolve: list[float] = []
    if gateway:
        for submit, ack, core in zip(phase.submit_t, phase.ack_t, answering_calls(rep)):
            if core is not None:
                queue_wait.append((core.start - submit) * 1e3)
                resolve.append((ack - core.end) * 1e3)
        queue_wait.sort()
        resolve.sort()
    core_s = sum(s.total for s in flushes)

    def service(value: float) -> float | None:
        return None if batch_unresolved else value if gateway else 0.0

    out.update(
        {
            "service.gateway.flushes": service(len(flushes)),
            "service.gateway.mean_batch": service(
                sum(s.size or 0 for s in flushes) / len(flushes) if flushes else 0.0
            ),
            "service.gateway.queue_wait_p50_ms": service(quantile(queue_wait, 0.50)),
            "service.gateway.queue_wait_p95_ms": service(quantile(queue_wait, 0.95)),
            "service.gateway.resolve_p50_ms": service(quantile(resolve, 0.50)),
            "service.gateway.core_busy_share": service(core_s / wall),
            "service.gateway.outside_core_ms_per_event": service(
                (wall - core_s) * 1e3 / events
            ),
        }
    )
    cluster = rep.workload.mode == "cluster"
    # the driver process is the router *and* the load generator
    out["service.router.cpu_ms_per_event"] = (
        rep.cpu_self_s * 1e3 / events if cluster else 0.0
    )
    out["service.shard.cpu_ms_per_event"] = (
        rep.cpu_children_s * 1e3 / events if cluster else 0.0
    )

    # -- core
    type2_changes = sum(
        1 for before, after in zip(rep.reports, rep.reports[1:]) if before.p != after.p
    )
    out.update(
        {
            "core.insert_ms_per_event": total_ms_per_event(_BATCH_INSERT),
            "core.delete_ms_per_event": total_ms_per_event(_BATCH_DELETE),
            "core.insert_flush_p50_ms": p50_of(_BATCH_INSERT, 1e3),
            "core.delete_flush_p50_ms": p50_of(_BATCH_DELETE, 1e3),
            "core.step_insert_p50_us": p50_of(_STEP_INSERT, 1e6),
            "core.step_delete_p50_us": p50_of(_STEP_DELETE, 1e6),
            "core.validate_ms_per_event": self_ms_per(_VALIDATE, events),
            "core.type2.ms_per_event": self_ms_per(_TYPE2, events),
            "core.type2.ops": type2_changes,
            "core.type2.stagger_step_share": (
                sum(1 for r in rep.reports if r.staggered_active) / len(rep.reports)
                if rep.reports
                else 0.0
            ),
            "core.self_ms_per_event": self_ms_per(CORE_CALLS, events),
            "core.refused_share": phase.refused / events,
        }
    )

    # -- net: Theorem 1's units from the step ledgers, time from the shims
    cost = {
        key: sum(getattr(r.costs, key) for r in rep.reports)
        for key in (
            "rounds", "messages", "floods", "walks",
            "walk_hops", "retries", "topology_changes",
        )  # fmt: skip
    }
    n_flushes = len(flushes)
    out.update(
        {
            "net.metrics.rounds_per_event": cost["rounds"] / healed,
            "net.metrics.messages_per_event": cost["messages"] / healed,
            "net.flood.floods_per_event": cost["floods"] / healed,
            "net.flood.ms_per_event": self_ms_per(_FLOOD, events),
            "net.walks.wave_ms_per_event": self_ms_per(_WAVE, events),
            "net.walks.wave_calls": stat(0, _WAVE),
            "net.walks.scalar_walks_per_event": per(stat(0, _WALK), events),
            "net.walks.scalar_walk_ms_per_event": self_ms_per(_WALK, events),
            "net.walks.hops_per_event": cost["walk_hops"] / healed,
            "net.walks.success_ratio": (
                1.0 - cost["retries"] / cost["walks"] if cost["walks"] else 0.0
            ),
            "net.topology.connectivity_ms_per_flush": self_ms_per(_CONNECTIVITY, n_flushes),
            "net.topology.csr_ms_per_flush": self_ms_per(_CSR, n_flushes),
            "net.topology.csr_calls": stat(0, _CSR),
            "net.topology.bfs_ms_per_event": self_ms_per(_BFS, events),
            "net.topology.topology_changes_per_event": (
                cost["topology_changes"] / healed
            ),
        }
    )
    out.update(rep.final)

    # -- health of the traced pass itself
    roots_s = sum(s.total for s in spans if s.parent is None)
    self_s = sum(s.self_s for s in spans)
    out.update(
        {
            "trace.overhead_share": wall / untraced_wall_s - 1.0,
            "trace.reconcile_error_share": abs(self_s - roots_s) / wall,
            "trace.unresolved_boundaries": len(tracer.unresolved),
        }
    )
    return out
