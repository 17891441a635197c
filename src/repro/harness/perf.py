"""Perf harness for what ``bench/`` has no workload for -> ``BENCH_perf.json``.

``bench/run.py`` (paired head-vs-base by ``scripts/bench_pair.py``) is
the repo's benchmark and regression gate.  This module keeps the
measurements it does not cover: the large-n multiprocess sweep, the
overload-policy frontier, the single-gateway vs shard-cluster sweep,
snapshot restore-vs-replay and the tracing-overhead receipt, plus the
gateway soak row behind ``repro.cli soak``.  Each merges its rows into
one machine-readable report.

Report format (schema ``dex-perf/8``; ``dex-perf/1`` through
``dex-perf/7`` reports are upgraded in place, their recorded runs
kept -- the ``runs`` / ``speedup`` sections of the retired hot-path
suite included)::

    {
      "schema": "dex-perf/8",
      "sweeps": {
        "<label>": {                   # one multiprocess run per label
          "meta": {..., "workers": 8},
          "n100000_s11": {
            "bootstrap_s": 2.1,
            "batch_churn_per_node_ms": 0.05,
            "nodes_healed": 1536,
            "wall_s": 3.4
          }
        }
      },
      "campaigns": {...},              # repro.harness.scenarios
      "service": {
        "<label>": {
          "meta": {"python": "...", "created": "...", "benchmark": "..."},
          # --- gateway soak (repro.cli soak): one soak driver, either
          # backend, plus the per-request twin ---
          "n4096": {
            "shards": 1, "duration_s": 2.0, "clients": 256,
            "max_batch": 128, "batch_window_ms": 2.0, "queue_limit": 8192,
            "policy": "fixed", "deadline_ms": null,
            "offered": 31873, "completed": 31873,    # == : nobody hung
            "audit_ok": true,          # I1-I8 (+ ownership in a cluster)
            "events": 31873, "events_per_s": 15936.0,
            "goodput_per_s": 15730.0,  # healed acks only
            "ack_p50_ms": 7.9, "ack_p99_ms": 16.2, "ack_max_ms": 31.0,
            "batches": 270, "mean_batch": 118.0,
            "rejected": 12, "backpressure": 0,
            "shed": 0, "deadline_timeouts": 0, "retries": 0,
            "final_n": 4103,
            "per_request_events_per_s": 5213.0,
            "per_request_ack_p50_ms": 41.0,
            "service_speedup_x": 3.06
          },
          # --- policy frontier (--frontier): offered load x admission
          # policy under an open loop; the capacity-planning curves ---
          "n4096/shed-oldest/r12000": {
            "policy": "shed-oldest", "offered_rate_hz": 12000.0,
            "offered": 23998, "completed": 23998, "ok": 13890,
            "shed": 9983, "shed_rate": 0.416, "goodput_per_s": 6903.0,
            "events_per_s": 7012.0, "ack_p99_ms": 74.0,
            "queue_depth_max": 520, "heal_utilization": 0.97, ...
          },
          # --- shard sweep (--shard-sweep): the soak row over the single
          # gateway and over the cluster at each shard count ---
          "n16384/serial": {"events_per_s": 9120.0, ...},
          "n16384/shards4": {
            ...,                         # the soak row's columns, plus
            "handoffs": {"attempted": 0, "committed": 0, "rejected": 0,
                         "expired": 0, "in_flight": 0, "shard_failures": 0},
            "per_shard_events_per_s": [...],
            "shard_speedup_x": 0.70      # vs the single gateway's row
          },
          # --- snapshot restore vs replay (--snapshot) ---
          "n100000": {"replay_s": 8.42, "restore_s": 0.43,
                      "restore_speedup_x": 19.68, ...}
        }
      },
      "tracing": {                     # --trace-overhead
        "<label>": {
          "n256": {
            # batch-churn hot path, tracing off vs on (ring recorder),
            # medians of repeats interleaved off/on pairs (drift cancels):
            "churn_off_per_step_ms": 0.61,
            "churn_on_per_step_ms": 0.62,
            "trace_enabled_churn_overhead_pct": 1.6,
            # disabled cost is synthetic: measured guard_ns (one
            # `current().enabled` check) x spans the enabled run
            # would have created, as a fraction of the off time:
            "trace_disabled_churn_overhead_pct": 0.003,
            # short saturating gateway soak, same off/on treatment:
            "soak_off_events_per_s": 4100.0,
            "soak_on_events_per_s": 4050.0,
            "trace_enabled_soak_overhead_pct": 1.2,
            "trace_disabled_soak_overhead_pct": 0.005,
            "spans_per_step": 0.07,    # spans per healed churn node
            "spans_per_event": 1.3,    # spans per resolved soak ack
            "guard_ns": 45.0           # one disabled-path check
          }
        }
      }
    }

Timings use ``time.perf_counter``.  Exactly one mode runs per call.

CLI::

    # multiprocess scaling sweep, one worker per size x seed point:
    PYTHONPATH=src python -m repro.harness.perf --sweep \\
        --sweep-sizes 100000 --sweep-seeds 11 13 --out BENCH_perf.json

    # overload-control frontier: offered load x admission policy:
    PYTHONPATH=src python -m repro.harness.perf --frontier \\
        --frontier-sizes 4096 --frontier-rates 2000 6000 12000 \\
        --out BENCH_perf.json

    # shard scaling: single gateway vs N-shard cluster:
    PYTHONPATH=src python -m repro.harness.perf --shard-sweep \\
        --shard-sizes 16384 --shard-counts 2 4 --out BENCH_perf.json

    # snapshot restore vs replaying the history that built the state:
    PYTHONPATH=src python -m repro.harness.perf --snapshot \\
        --snapshot-sizes 100000 --out BENCH_perf.json

    # tracing overhead: churn + soak hot paths, tracing off vs on,
    # rows under the `tracing` key (scripts/check_report.py tracing):
    PYTHONPATH=src python -m repro.harness.perf --trace-overhead \\
        --trace-sizes 256 --out BENCH_perf.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from statistics import median
from typing import Sequence

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import AdversaryError

SCHEMA = "dex-perf/8"
DEFAULT_BATCH = 64
DEFAULT_SWEEP_SIZES = (100_000,)
DEFAULT_SWEEP_SEEDS = (11,)


def _build(n: int, seed: int, **overrides) -> DexNetwork:
    config = DexConfig(**overrides)
    return DexNetwork.bootstrap(n, config=config, seed=seed)


# ----------------------------------------------------------------------
# batch churn (the sweep's and the tracing-overhead row's workload)
# ----------------------------------------------------------------------
def _draw_insert_batch(
    net: DexNetwork, batch: int, adversary: random.Random
) -> list[tuple[int, int]]:
    per_host: dict[int, int] = {}
    pairs = []
    base = net.fresh_id()
    for i in range(batch):
        host = net.sample_node(adversary)
        while per_host.get(host, 0) >= 4:
            host = net.sample_node(adversary)
        per_host[host] = per_host.get(host, 0) + 1
        pairs.append((base + i, host))
    return pairs


def _draw_victims(
    net: DexNetwork, batch: int, adversary: random.Random
) -> list[int]:
    victims: set[int] = set()
    while len(victims) < batch:
        victims.add(net.sample_node(adversary))
    return list(victims)


def run_batch_churn(
    net: DexNetwork, batch: int, rounds: int, adversary: random.Random
) -> tuple[int, float]:
    """Drive ``rounds`` of insert-batch + delete-batch churn; returns
    ``(healed nodes, engine seconds)``.  Only the ``insert_batch`` /
    ``delete_batch`` calls are on the clock -- the adversary's schedule
    generation is workload, not healing (the sequential benchmark gets
    the same treatment)."""
    healed = 0
    engine = 0.0
    for _ in range(rounds):
        pairs = _draw_insert_batch(net, batch, adversary)
        t0 = time.perf_counter()
        net.insert_batch(pairs)
        engine += time.perf_counter() - t0
        healed += batch
        for _attempt in range(8):
            victims = _draw_victims(net, batch, adversary)
            try:
                t0 = time.perf_counter()
                net.delete_batch(victims)
                engine += time.perf_counter() - t0
            except AdversaryError:
                engine += time.perf_counter() - t0
                continue  # the set would disconnect the remainder; redraw
            healed += batch
            break
    return healed, engine


# ----------------------------------------------------------------------
# membership-gateway soak (PR 5)
# ----------------------------------------------------------------------
DEFAULT_SOAK_DURATION = 2.0
DEFAULT_SOAK_CLIENTS = 256
DEFAULT_SOAK_BATCH = 128
DEFAULT_SOAK_WINDOW_MS = 2.0


def bench_service_soak(
    n: int,
    *,
    shards: int = 1,
    duration_s: float = DEFAULT_SOAK_DURATION,
    max_batch: int = DEFAULT_SOAK_BATCH,
    batch_window_ms: float = DEFAULT_SOAK_WINDOW_MS,
    clients: int = DEFAULT_SOAK_CLIENTS,
    join_fraction: float = 0.5,
    queue_limit: int = 8192,
    seed: int = 11,
    per_request: bool = False,
    policy: str = "fixed",
    deadline_ms: float | None = None,
    retry: "object | None" = None,
    checkpoint_dir: "str | None" = None,
    checkpoint_every: int = 32,
    checkpoint_keep: int = 3,
    warmup_s: float = 0.0,
) -> dict:
    """Soak a membership service over ``n`` fresh bootstrap nodes -- one
    gateway, or ``shards`` worker processes behind the router
    (:func:`repro.service.open_service`) -- with a closed-loop
    saturating client fleet for ``duration_s`` seconds, then audit it
    (I1-I8 per partition plus, for a cluster, cross-shard ownership)
    and drain.  The row reports sustained throughput, ack-latency
    percentiles and ``offered == completed`` (every request answered,
    none hung).
    ``per_request=True`` runs the degenerate service (``max_batch=1``,
    ``batch_window_ms=0``) -- the baseline the micro-batching speedup is
    measured against.  ``policy`` / ``deadline_ms`` select the
    overload-control configuration and ``retry`` an optional
    :class:`~repro.service.loadgen.RetryPolicy` for the client fleet.
    ``warmup_s`` runs an unmetered load phase first (then resets every
    partition's metrics), so the row is steady state rather than the
    one-off first-flush cache rebuild.  ``checkpoint_dir`` turns on
    periodic snapshots (every ``checkpoint_every`` flushes) plus a final
    one at drain, so the soak doubles as a crash-recovery fixture; the
    checkpoint columns then land in the row."""
    import asyncio

    from repro.service import open_service, saturating_load

    if per_request:
        max_batch, batch_window_ms = 1, 0.0

    async def drive():
        service = await open_service(
            n,
            shards=shards,
            seed=seed,
            max_batch=max_batch,
            window_ms=batch_window_ms,
            queue_limit=queue_limit,
            policy=policy,
            deadline_ms=deadline_ms,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            checkpoint_keep=checkpoint_keep,
        )
        # Same treatment the shard workers give their bootstrap heap:
        # move the long-lived network objects to the permanent
        # generation so cyclic-GC passes during the soak don't scan
        # them.  Keeps the single-gateway numbers comparable with the
        # sharded cluster's.
        gc.collect()
        gc.freeze()
        try:
            if warmup_s > 0:
                # Cold-start phase: first flushes pay the one-off CSR
                # rebuild and cache warming.  Run it outside the timed
                # window, then re-anchor the metrics clocks.
                await saturating_load(
                    service,
                    duration_s=warmup_s,
                    clients=clients,
                    join_fraction=join_fraction,
                    seed=seed + 7,
                    retry=retry,
                )
                await service.reset_metrics()
            stats = await saturating_load(
                service,
                duration_s=duration_s,
                clients=clients,
                join_fraction=join_fraction,
                seed=seed + 1,
                retry=retry,
            )
            # Snapshot the serving window *before* the audit: at large n
            # the invariant check takes minutes of wall clock that would
            # otherwise dilute events/s.
            snap = service.metrics.snapshot()
            audit = await service.cluster_audit()
        finally:
            summary = await service.drain()
        return stats, snap, audit, summary

    stats, snap, audit, summary = asyncio.run(drive())
    # Flush-shape columns live where the flushes run: the gateway's own
    # snapshot, or each worker's final stats (cumulative counters, so
    # the audit pause does not dilute them).
    engines = summary.get("per_shard") or [snap]
    batches = sum(e["batches"] for e in engines)
    elapsed_s = snap["elapsed_s"] or 1e-9
    row = {
        "shards": shards,
        "duration_s": duration_s,
        "warmup_s": warmup_s,
        "clients": clients,
        "max_batch": max_batch,
        "batch_window_ms": batch_window_ms,
        "queue_limit": queue_limit,
        "policy": policy,
        "deadline_ms": deadline_ms,
        "offered": stats.offered,
        "completed": stats.completed,
        "batches": batches,
        "mean_batch": (
            round(sum(e["mean_batch"] * e["batches"] for e in engines) / batches, 3)
            if batches
            else 0.0
        ),
        "backpressure": sum(e["backpressure"] for e in engines),
        "shed": sum(e["shed"] for e in engines),
        "queue_depth_max": max(e["queue_depth_max"] for e in engines),
        "heal_utilization": round(
            sum(e["heal_s"] for e in engines) / len(engines) / elapsed_s, 4
        ),
        "audit_ok": audit["ok"],
        "audit_errors": audit["errors"][:8],
        "final_n": audit["total_nodes"],
        "total_nodes": audit["total_nodes"],
    }
    for column in (
        "events",
        "events_per_s",
        "goodput_per_s",
        "ack_p50_ms",
        "ack_p90_ms",
        "ack_p99_ms",
        "ack_max_ms",
        "rejected",
        "deadline_timeouts",
        "retries",
    ):
        row[column] = snap[column]
    if "handoffs" in summary:
        row["handoffs"] = summary["handoffs"]
        row["per_shard_events_per_s"] = [round(e["events"] / elapsed_s, 3) for e in engines]
    if checkpoint_dir is not None:
        row["checkpoints_written"] = summary["checkpoints_written"]
        row["checkpoint_errors"] = summary["checkpoint_errors"]
    return row


def bench_service(
    n: int,
    *,
    duration_s: float = DEFAULT_SOAK_DURATION,
    clients: int = DEFAULT_SOAK_CLIENTS,
    seed: int = 11,
    compare_per_request: bool = True,
    **soak: object,
) -> dict:
    """The soak row for one size -- :func:`bench_service_soak` under
    ``soak`` (its keywords: batching shape, overload configuration,
    retries, checkpointing, warmup) -- plus, optionally, the
    per-request twin on an identically seeded fresh network and
    ``service_speedup_x`` (batched / per-request events per second):
    the serving layer's acceptance receipt.  The twin takes none of
    ``soak``: it always runs ``fixed`` with no deadline and no
    checkpoints, so the speedup compares batching, not shedding."""
    shape = dict(duration_s=duration_s, clients=clients, seed=seed)
    row = bench_service_soak(n, **shape, **soak)
    if compare_per_request:
        baseline = bench_service_soak(n, per_request=True, **shape)
        row["per_request_events_per_s"] = baseline["events_per_s"]
        row["per_request_ack_p50_ms"] = baseline["ack_p50_ms"]
        row["per_request_ack_p99_ms"] = baseline["ack_p99_ms"]
        row["service_speedup_x"] = (
            round(row["events_per_s"] / baseline["events_per_s"], 2)
            if baseline["events_per_s"]
            else 0.0
        )
    return row


DEFAULT_SHARD_COUNTS = (2, 4)


def bench_shard_sweep(
    n: int,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    *,
    duration_s: float = DEFAULT_SOAK_DURATION,
    max_batch: int = DEFAULT_SOAK_BATCH,
    batch_window_ms: float = DEFAULT_SOAK_WINDOW_MS,
    clients: int = DEFAULT_SOAK_CLIENTS,
    seed: int = 11,
    policy: str = "fixed",
    deadline_ms: float | None = None,
    warmup_s: float = 0.0,
    progress: bool = False,
) -> dict:
    """The PR 8 scaling receipt: at one total size ``n``, run the one
    soak driver over the single gateway and over the cluster at each
    shard count, under one configuration.  Rows land under
    ``n{n}/serial`` and ``n{n}/shards{S}``; every cluster row gets
    ``shard_speedup_x`` (cluster / single-gateway events per second).
    Rows recorded before PR 13 divide by a since-removed
    ``n{n}/pipelined`` row instead."""
    rows: dict[str, dict] = {}
    for shards in (1, *shard_counts):
        row = bench_service_soak(
            n,
            shards=shards,
            duration_s=duration_s,
            max_batch=max_batch,
            batch_window_ms=batch_window_ms,
            clients=clients,
            seed=seed,
            policy=policy,
            deadline_ms=deadline_ms,
            warmup_s=warmup_s,
        )
        key = f"n{n}/serial" if shards == 1 else f"n{n}/shards{shards}"
        if shards > 1:
            serial_eps = rows[f"n{n}/serial"]["events_per_s"]
            row["shard_speedup_x"] = (
                round(row["events_per_s"] / serial_eps, 3) if serial_eps else 0.0
            )
        rows[key] = row
        if progress:
            print(
                f"  {key}: {row['events_per_s']} ev/s "
                f"(p99 {row['ack_p99_ms']} ms)",
                file=sys.stderr,
            )
    return rows


DEFAULT_FRONTIER_RATES = (2000.0, 6000.0, 12000.0)
DEFAULT_FRONTIER_POLICIES = ("fixed", "adaptive-window", "shed-oldest")


def bench_policy_frontier(
    n: int,
    *,
    rates: Sequence[float] = DEFAULT_FRONTIER_RATES,
    policies: Sequence[str] = DEFAULT_FRONTIER_POLICIES,
    duration_s: float = DEFAULT_SOAK_DURATION,
    max_batch: int = DEFAULT_SOAK_BATCH,
    batch_window_ms: float = DEFAULT_SOAK_WINDOW_MS,
    queue_limit: int = 4096,
    join_fraction: float = 0.5,
    deadline_ms: float | None = None,
    retry: "object | None" = None,
    seed: int = 11,
    progress: bool = False,
) -> dict:
    """The capacity-planning sweep: offered load x admission policy.

    Each (policy, rate) point drives an *open-loop* Poisson fleet at
    ``rate_hz`` against a fresh, identically seeded n-node gateway --
    open loop because a closed loop self-throttles and can never
    overdrive the server, so it cannot show what a policy does when
    offered load exceeds heal capacity.  Rows are keyed
    ``n{n}/{policy}/r{rate}`` and carry latency (p50/p99), raw
    completion throughput, goodput, and the shed rate
    ``(backpressure + shed + deadline_timeouts) / offered`` -- the three
    axes of the frontier curve.  Every spawned request is awaited before
    the row is read: a point that hangs a client would hang the
    benchmark, so a recorded frontier is itself a receipt that no
    future was left unanswered."""
    import asyncio

    from repro.service import MembershipGateway, poisson_load

    results: dict[str, dict] = {}
    for policy in policies:
        for rate in rates:
            net = _build(n, seed)

            async def drive():
                gateway = MembershipGateway(
                    net,
                    max_batch=max_batch,
                    batch_window_ms=batch_window_ms,
                    queue_limit=queue_limit,
                    policy=policy,
                    deadline_ms=deadline_ms,
                    seed=seed,
                )
                await gateway.start()
                try:
                    stats = await poisson_load(
                        gateway,
                        rate_hz=rate,
                        duration_s=duration_s,
                        join_fraction=join_fraction,
                        seed=seed + 1,
                        retry=retry,
                    )
                finally:
                    await gateway.drain()
                return stats, gateway.metrics.snapshot(), gateway.policy.describe()

            stats, snap, policy_state = asyncio.run(drive())
            dropped = stats.backpressure + stats.shed + stats.deadline_timeouts
            row = {
                "policy": policy,
                "offered_rate_hz": float(rate),
                "duration_s": duration_s,
                "max_batch": max_batch,
                "batch_window_ms": batch_window_ms,
                "queue_limit": queue_limit,
                "deadline_ms": deadline_ms,
                "offered": stats.offered,
                "completed": stats.completed,
                "ok": stats.ok,
                "rejected": stats.rejected,
                "backpressure": stats.backpressure,
                "shed": stats.shed,
                "deadline_timeouts": stats.deadline_timeouts,
                "retries": stats.retries,
                "shed_rate": (
                    round(dropped / stats.offered, 4) if stats.offered else 0.0
                ),
                "events": snap["events"],
                "events_per_s": snap["events_per_s"],
                "goodput_per_s": snap["goodput_per_s"],
                "ack_p50_ms": snap["ack_p50_ms"],
                "ack_p90_ms": snap["ack_p90_ms"],
                "ack_p99_ms": snap["ack_p99_ms"],
                "ack_max_ms": snap["ack_max_ms"],
                "queue_depth_max": snap["queue_depth_max"],
                "heal_utilization": snap["heal_utilization"],
                "policy_state": policy_state,
                "final_n": net.size,
            }
            key = f"n{n}/{policy}/r{int(rate)}"
            results[key] = row
            if progress:
                print(
                    f"  {key}: p99={row['ack_p99_ms']}ms "
                    f"goodput={row['goodput_per_s']}/s "
                    f"shed_rate={row['shed_rate']}",
                    file=sys.stderr,
                )
    return results


def bench_snapshot_restore(
    n: int,
    *,
    churn_steps: int = 1000,
    seed: int = 11,
    repeats: int = 3,
) -> dict:
    """Restore-vs-replay (PR 6 acceptance): time rebuilding a network of
    size ~``n`` by replaying its history (bootstrap + ``churn_steps``
    insert/delete steps -- exactly how the state was produced) against
    restoring it from one on-disk snapshot.  Restore is O(state) while
    replay is O(history), so the reported ``restore_speedup_x`` grows
    with ``churn_steps``; the default 1000 is about one checkpoint
    interval of gateway operations (32 flushes x 32 ops).  Restore time
    is the median of ``repeats`` loads (the first load in a fresh
    process additionally pays the allocator's page-fault warmup, which
    replay pays during bootstrap); the one-off full invariant audit is
    timed separately as ``audit_s``."""
    import random as random_module
    import shutil
    import tempfile

    from repro.persist import load_snapshot, save_snapshot

    def replay() -> "DexNetwork":
        built = _build(n, seed)
        driver = random_module.Random(seed + 1)
        for _ in range(churn_steps):
            if driver.random() < 0.5:
                built.insert()
            else:
                built.delete(driver.choice(built.graph._nodes))
        return built

    t0 = time.perf_counter()
    net = replay()
    replay_s = time.perf_counter() - t0

    root = tempfile.mkdtemp(prefix="dex-snapshot-bench-")
    try:
        t0 = time.perf_counter()
        path = save_snapshot(net, root)
        save_s = time.perf_counter() - t0
        snapshot_bytes = sum(
            entry.stat().st_size for entry in path.iterdir()
        )
        restored = None
        load_times = []
        for _ in range(max(1, repeats)):
            # A network is cyclic (overlay <-> coordinator listeners), so
            # dropping the previous copy needs the collector; without it,
            # dead copies pile up and every load pays fresh page faults
            # instead of reusing arenas -- allocator noise, not restore
            # cost.
            restored = None
            gc.collect()
            t0 = time.perf_counter()
            restored = load_snapshot(path, verify=False)
            load_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        restored.check_invariants()
        restored.graph.verify_caches()
        audit_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(root, ignore_errors=True)
    first_load_s = load_times[0]
    load_times.sort()
    restore_s = load_times[len(load_times) // 2]
    return {
        "churn_steps": churn_steps,
        "final_n": net.size,
        "replay_s": round(replay_s, 6),
        "save_s": round(save_s, 6),
        "restore_s": round(restore_s, 6),
        "restore_first_s": round(first_load_s, 6),
        "audit_s": round(audit_s, 6),
        "snapshot_mb": round(snapshot_bytes / 2**20, 3),
        "restore_speedup_x": (
            round(replay_s / restore_s, 2) if restore_s > 0 else 0.0
        ),
    }


# ----------------------------------------------------------------------
# tracing overhead (PR 10)
# ----------------------------------------------------------------------
DEFAULT_TRACE_CHURN_ROUNDS = 12
DEFAULT_TRACE_SOAK_DURATION = 1.0
DEFAULT_TRACE_GUARD_ITERS = 200_000


def _guard_ns(iters: int = DEFAULT_TRACE_GUARD_ITERS) -> float:
    """Nanoseconds per disabled-path check: exactly the
    ``current().enabled`` attribute read every instrumented site pays
    when tracing is off.  The disabled-overhead number is synthetic --
    guard cost x span sites exercised -- because there is no
    un-instrumented build left to diff against, and that is the point:
    the guard *is* the entire disabled cost."""
    from repro.obs import trace as _trace

    assert not _trace.enabled()
    t0 = time.perf_counter()
    for _ in range(iters):
        if _trace.current().enabled:  # pragma: no cover - never taken
            raise RuntimeError("tracing unexpectedly enabled")
    return (time.perf_counter() - t0) / iters * 1e9


def _trace_churn_once(
    n: int, batch: int, rounds: int, seed: int, traced: bool
) -> tuple[float, int, int]:
    """One churn measurement: ``(per_healed_node_ms, healed, spans)``.
    ``traced=True`` installs a fresh ring recorder (no stream) for the
    timed window -- the default recording configuration."""
    from repro.obs import trace as _trace

    net = _build(n, seed, validate_batches=False)
    adversary = random.Random(seed + 1)
    run_batch_churn(net, batch, 1, adversary)  # warmup (caches, imports)
    recorder = _trace.SpanRecorder(capacity=1_000_000) if traced else None
    if recorder is not None:
        _trace.install(recorder)
    try:
        healed, engine = run_batch_churn(net, batch, rounds, adversary)
    finally:
        if recorder is not None:
            _trace.uninstall()
    spans = len(recorder.spans) if recorder is not None else 0
    return engine / max(healed, 1) * 1e3, healed, spans


def bench_trace_overhead(
    n: int,
    *,
    batch: int = DEFAULT_BATCH,
    rounds: int = DEFAULT_TRACE_CHURN_ROUNDS,
    soak_duration_s: float = DEFAULT_TRACE_SOAK_DURATION,
    clients: int = DEFAULT_SOAK_CLIENTS,
    seed: int = 11,
    repeats: int = 10,
) -> dict:
    """The obs acceptance receipt: tracing-off vs tracing-on timings of
    the two hot paths spans actually land on -- the batch-churn engine
    loop and the saturating gateway soak -- plus the synthetic
    disabled-path cost (``guard_ns`` x spans the enabled run created).
    ``repeats`` off/on pairs of each run interleave, alternating which
    side goes first, so drift cancels; an overhead is the median of the
    per-pair overheads, and each timing the median of its side."""
    from repro.obs import trace as _trace

    assert not _trace.enabled(), "bench_trace_overhead needs tracing off"
    churn: dict[bool, list[float]] = {False: [], True: []}
    soak: dict[bool, list[float]] = {False: [], True: []}
    spans_per_step = spans_per_event = 0.0
    for i in range(max(1, repeats)):
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            ms, healed, spans = _trace_churn_once(n, batch, rounds, seed, traced=traced)
            churn[traced].append(ms)
            spans_per_step = spans / max(healed, 1) if traced else spans_per_step
        for traced in order:
            recorder = _trace.SpanRecorder(capacity=1_000_000)
            if traced:
                _trace.install(recorder)
            try:
                row = bench_service_soak(
                    n, duration_s=soak_duration_s, clients=clients, seed=seed
                )
            finally:
                if traced:
                    _trace.uninstall()
            if traced:
                spans_per_event = len(recorder.spans) / max(row["events"], 1)
            soak[traced].append(row["events_per_s"])
    churn_off, churn_on = median(churn[False]), median(churn[True])
    off_eps, on_eps = median(soak[False]), median(soak[True])
    guard_ns = _guard_ns()
    guard_s = guard_ns * 1e-9
    return {
        "batch": batch,
        "rounds": rounds,
        "repeats": repeats,
        "soak_duration_s": soak_duration_s,
        "clients": clients,
        "churn_off_per_step_ms": round(churn_off, 6),
        "churn_on_per_step_ms": round(churn_on, 6),
        "trace_enabled_churn_overhead_pct": round(
            median((on - off) / off * 100.0 for off, on in zip(churn[False], churn[True]) if off), 3
        ),
        "trace_disabled_churn_overhead_pct": (
            round(
                spans_per_step * guard_s / (churn_off * 1e-3) * 100.0, 6
            )
            if churn_off
            else 0.0
        ),
        "soak_off_events_per_s": off_eps,
        "soak_on_events_per_s": on_eps,
        "trace_enabled_soak_overhead_pct": round(
            median((off - on) / off * 100.0 for off, on in zip(soak[False], soak[True]) if off), 3
        ),
        "trace_disabled_soak_overhead_pct": round(
            spans_per_event * guard_s * off_eps * 100.0, 6
        ),
        "spans_per_step": round(spans_per_step, 4),
        "spans_per_event": round(spans_per_event, 4),
        "guard_ns": round(guard_ns, 2),
    }


# ----------------------------------------------------------------------
# multiprocess scaling sweep (one worker per size x seed point)
# ----------------------------------------------------------------------
def _sweep_point(args: tuple[int, int, int, int]) -> tuple[str, dict]:
    """Worker body: one (size, seed) scaling point in its own process."""
    n, seed, batch, rounds = args
    t_start = time.perf_counter()
    t0 = time.perf_counter()
    net = _build(n, seed, validate_batches=False)
    boot = time.perf_counter() - t0
    adversary = random.Random(seed + 1)
    healed, churn = run_batch_churn(net, batch, rounds, adversary)
    metrics = {
        "n": n,
        "seed": seed,
        "batch": batch,
        "rounds": rounds,
        "bootstrap_s": round(boot, 3),
        "batch_churn_per_node_ms": round(churn / max(healed, 1) * 1e3, 6),
        "nodes_healed": healed,
        "wall_s": round(time.perf_counter() - t_start, 3),
    }
    return f"n{n}_s{seed}", metrics


def run_sweep(
    sizes: Sequence[int] = DEFAULT_SWEEP_SIZES,
    seeds: Sequence[int] = DEFAULT_SWEEP_SEEDS,
    batch: int = DEFAULT_BATCH,
    rounds: int = 4,
    workers: int | None = None,
    progress: bool = False,
) -> dict:
    """Scaling benchmark at large n: one worker process per size x seed
    point, so a 10^5-10^6 sweep fills the machine instead of a single
    core.  Returns ``{point_key: metrics}``."""
    points = [(n, seed, batch, rounds) for n in sizes for seed in seeds]
    max_workers = workers or min(len(points), os.cpu_count() or 1)
    results: dict[str, dict] = {}
    if max_workers <= 1 or len(points) == 1:
        for point in points:  # in-process: simpler traces, same numbers
            key, metrics = _sweep_point(point)
            results[key] = metrics
            if progress:
                print(f"  {key}: {metrics}", file=sys.stderr)
        return results
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        for key, metrics in pool.map(_sweep_point, points):
            results[key] = metrics
            if progress:
                print(f"  {key}: {metrics}", file=sys.stderr)
    return results


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------
def _meta() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def load_report(path: pathlib.Path) -> dict:
    if path.exists():
        text = path.read_text().strip()
        if text:
            try:
                report = json.loads(text)
            except json.JSONDecodeError as exc:
                # Never silently clobber a recorded baseline.
                raise SystemExit(
                    f"{path} exists but is not valid JSON ({exc}); "
                    "move it aside or fix it before recording a new run"
                ) from None
            if str(report.get("schema")).startswith("dex-perf/"):
                # every earlier dex-perf revision only *added* sections:
                # upgrading in place keeps the recorded runs.
                report["schema"] = SCHEMA
                return report
    return {"schema": SCHEMA, "runs": {}}


def write_section(
    path: pathlib.Path,
    section: str,
    label: str,
    results: dict,
    *,
    merge: bool = False,
    meta: dict | None = None,
) -> dict:
    """The one report writer: put ``results`` (``{row_key: row}``) under
    ``report[section][label]`` in the report at ``path``, stamped with
    a ``meta`` row.  With ``merge`` the rows merge *into* an existing
    label entry (same row keys overwrite), so one label can accumulate
    soak, frontier and shard-sweep rows across invocations; without it
    the label's entry is replaced."""
    report = load_report(path)
    labels = report.setdefault(section, {})
    entry = labels.get(label, {}) if merge else {}
    entry.update(results)
    entry["meta"] = {**_meta(), **(meta or {})}
    labels[label] = entry
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="after", help="label the rows merge under")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH,
                        help="batch size of the sweep's batch churn")
    modes = parser.add_mutually_exclusive_group(required=True)
    modes.add_argument("--sweep", action="store_true",
                       help="run the multiprocess large-n scaling sweep")
    parser.add_argument("--sweep-sizes", type=int, nargs="+",
                        default=list(DEFAULT_SWEEP_SIZES))
    parser.add_argument("--sweep-seeds", type=int, nargs="+",
                        default=list(DEFAULT_SWEEP_SEEDS))
    parser.add_argument("--sweep-rounds", type=int, default=4,
                        help="insert+delete batch rounds per sweep point")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep worker processes (default: one per point, capped at CPUs)")
    parser.add_argument("--soak-duration", type=float, default=DEFAULT_SOAK_DURATION,
                        help="seconds of saturating load per gateway run")
    parser.add_argument("--soak-clients", type=int, default=DEFAULT_SOAK_CLIENTS,
                        help="closed-loop client coroutines")
    parser.add_argument("--soak-max-batch", type=int, default=DEFAULT_SOAK_BATCH)
    parser.add_argument("--soak-window-ms", type=float, default=DEFAULT_SOAK_WINDOW_MS)
    parser.add_argument("--soak-policy", default="fixed",
                        help="admission policy for the shard-sweep gateways")
    parser.add_argument("--soak-warmup", type=float, default=0.0,
                        help="seconds of unmetered load before the measured "
                             "shard-sweep window (metrics reset after)")
    modes.add_argument("--frontier", action="store_true",
                       help="run the offered-load x policy frontier sweep")
    parser.add_argument("--frontier-sizes", type=int, nargs="+", default=[4096])
    parser.add_argument("--frontier-rates", type=float, nargs="+",
                        default=list(DEFAULT_FRONTIER_RATES),
                        help="open-loop offered rates (requests/s)")
    parser.add_argument("--frontier-policies", nargs="+",
                        default=list(DEFAULT_FRONTIER_POLICIES),
                        help="admission policies to sweep")
    parser.add_argument("--frontier-duration", type=float,
                        default=DEFAULT_SOAK_DURATION,
                        help="seconds of open-loop load per point")
    parser.add_argument("--frontier-queue-limit", type=int, default=4096)
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline for frontier/shard-sweep gateways")
    modes.add_argument("--shard-sweep", action="store_true",
                       help="soak the single gateway vs the N-shard cluster "
                            "at each size (rows under the service key)")
    parser.add_argument("--shard-sizes", type=int, nargs="+", default=[4096],
                        help="total bootstrap nodes per shard-sweep point")
    parser.add_argument("--shard-counts", type=int, nargs="+",
                        default=list(DEFAULT_SHARD_COUNTS),
                        help="shard counts to sweep")
    modes.add_argument("--snapshot", action="store_true",
                       help="run the snapshot restore-vs-replay benchmark")
    parser.add_argument("--snapshot-sizes", type=int, nargs="+", default=[100_000])
    parser.add_argument("--snapshot-steps", type=int, default=1000,
                        help="replayed churn steps (the history length)")
    parser.add_argument("--snapshot-repeats", type=int, default=3,
                        help="timed restores per size (median reported)")
    modes.add_argument("--trace-overhead", action="store_true",
                       help="measure tracing-off vs tracing-on overhead "
                       "on the churn + soak hot paths (rows under the "
                       "tracing key; gated by check_report.py tracing)")
    parser.add_argument("--trace-sizes", type=int, nargs="+", default=[256],
                        help="network sizes for the tracing-overhead rows")
    parser.add_argument("--trace-duration", type=float,
                        default=DEFAULT_TRACE_SOAK_DURATION,
                        help="seconds of soak per tracing mode")
    parser.add_argument("--trace-repeats", type=int, default=10,
                        help="interleaved off/on churn and soak pairs (median)")
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("BENCH_perf.json"))
    args = parser.parse_args(argv)

    load_report(args.out)  # refuse a corrupt report before the long run

    def one_row(n: int, row: dict) -> dict:
        print(f"  n={n}: {row}", file=sys.stderr)
        return {f"n{n}": row}

    # The per-size modes share one loop.  Each entry: the report section,
    # the sizes, and bench(n) -> {row_key: row}.
    soak = dict(
        duration_s=args.soak_duration,
        max_batch=args.soak_max_batch,
        batch_window_ms=args.soak_window_ms,
        clients=args.soak_clients,
        seed=args.seed,
        policy=args.soak_policy,
        deadline_ms=args.deadline_ms,
        warmup_s=args.soak_warmup,
    )
    per_size_modes = {
        "snapshot_restore": (
            args.snapshot,
            "service",
            args.snapshot_sizes,
            lambda n: one_row(
                n,
                bench_snapshot_restore(
                    n,
                    churn_steps=args.snapshot_steps,
                    seed=args.seed,
                    repeats=args.snapshot_repeats,
                ),
            ),
        ),
        "trace_overhead": (
            args.trace_overhead,
            "tracing",
            args.trace_sizes,
            lambda n: one_row(
                n,
                bench_trace_overhead(
                    n,
                    soak_duration_s=args.trace_duration,
                    clients=args.soak_clients,
                    seed=args.seed,
                    repeats=args.trace_repeats,
                ),
            ),
        ),
        "policy_frontier": (
            args.frontier,
            "service",
            args.frontier_sizes,
            lambda n: bench_policy_frontier(
                n,
                rates=args.frontier_rates,
                policies=args.frontier_policies,
                duration_s=args.frontier_duration,
                max_batch=args.soak_max_batch,
                batch_window_ms=args.soak_window_ms,
                queue_limit=args.frontier_queue_limit,
                deadline_ms=args.deadline_ms,
                seed=args.seed,
                progress=True,
            ),
        ),
        "shard_sweep": (
            args.shard_sweep,
            "service",
            args.shard_sizes,
            lambda n: bench_shard_sweep(n, args.shard_counts, progress=True, **soak),
        ),
    }
    for benchmark, (selected, section, sizes, bench) in per_size_modes.items():
        if not selected:
            continue
        print(f"{benchmark}: sizes={sizes} label={args.label!r}")
        results: dict[str, dict] = {}
        for n in sizes:
            results.update(bench(n))
        write_section(
            args.out, section, args.label, results, merge=True, meta={"benchmark": benchmark}
        )
        print(f"wrote {args.out}")
        return 0

    # the one mode left is --sweep: sizes x seeds, one process per point
    points = len(args.sweep_sizes) * len(args.sweep_seeds)
    workers = args.workers or min(points, os.cpu_count() or 1)
    print(
        f"perf sweep: sizes={args.sweep_sizes} seeds={args.sweep_seeds} "
        f"batch={args.batch} rounds={args.sweep_rounds} workers={workers} "
        f"label={args.label!r}"
    )
    results = run_sweep(
        args.sweep_sizes,
        args.sweep_seeds,
        batch=args.batch,
        rounds=args.sweep_rounds,
        workers=workers,
        progress=True,
    )
    write_section(args.out, "sweeps", args.label, results, meta={"workers": workers})
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
