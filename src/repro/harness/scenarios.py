"""Scenario campaign registry and CLI (the paper-shaped workload layer).

A *scenario* is a named adversarial workload -- flash crowd, mass
leave, degree/coordinator/spare-depletion attacks, oscillating churn,
scripted trace replay -- buildable at any size and seed, and runnable
against DEX **and** every baseline overlay through one driver:
:func:`repro.harness.runner.run_campaign`, which heals whole adversary
batches through the batch-parallel engine where the overlay supports it
(Section 5 / Corollary 2) and falls back to per-step healing where it
does not.  This is the workload generator behind the paper's Table 1
comparison: adaptive adversaries of Section 2 vs. DEX and the related
overlays, with spectral-gap / degree / message-cost time series
recorded per campaign.

Results merge into ``BENCH_perf.json`` under the ``campaigns`` key
(schema ``dex-perf/4``), one row per scenario x overlay x size x seed
point; ``--workers`` fans the matrix out one process per point, the
same multiprocess shape as ``repro.harness.perf --sweep``.

CLI::

    # one point, human-readable row + JSON merge
    PYTHONPATH=src python -m repro.harness.scenarios \\
        --scenarios flash-crowd --overlays dex --sizes 4096 --seeds 11 \\
        --label campaigns --out BENCH_perf.json

    # the full matrix, fanned out across processes
    PYTHONPATH=src python -m repro.harness.scenarios \\
        --scenarios all --overlays dex law-siu flip-chain \\
        --sizes 1024 4096 --seeds 11 13 --workers 8

    # the PR's acceptance number: batch-healed campaign vs. the
    # sequential runner on the same workload (engine time per event)
    PYTHONPATH=src python -m repro.harness.scenarios \\
        --scenarios flash-crowd --overlays dex --sizes 4096 \\
        --compare-sequential --no-validate-batches

    python -m repro.harness.scenarios --list
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.adversary import (
    CoordinatorAttack,
    DegreeAttack,
    FlashCrowd,
    LowLoadAttack,
    MassLeave,
    OscillatingChurn,
    RandomChurn,
    SpareDepleter,
    TraceAdversary,
)
from repro.harness import perf
from repro.harness.experiments import OVERLAY_FACTORIES
from repro.harness.runner import CampaignResult, run_campaign, run_churn


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One named adversarial workload, buildable at any (n0, seed)."""

    key: str
    summary: str
    #: (n0, seed) -> adversary (batch-native or single-action; the
    #: campaign driver adapts either)
    build: Callable[[int, int], object]

    def default_events(self, n0: int) -> int:
        """Campaign length when the caller does not pin one: half the
        initial population, floored so tiny smoke networks still churn."""
        return max(128, n0 // 2)


def _replay_script(n0: int) -> list[str]:
    """The scripted trace behind ``trace-replay``: four waves of
    join-burst / partial-exodus blocks (net size change zero), sized to
    the network so replay exercises the batch path at every scale.  The
    script is finite on purpose -- campaigns outliving it exercise the
    clean :class:`~repro.errors.TraceExhausted` ending."""
    block = max(8, n0 // 32)
    wave = (
        ["insert"] * block
        + ["delete"] * (block // 2)
        + ["insert"] * (block // 2)
        + ["delete"] * block
    )
    return wave * 4


SCENARIOS: dict[str, Scenario] = {
    scenario.key: scenario
    for scenario in (
        Scenario(
            "flash-crowd",
            "popularity spike: a surge of joins (n0/4), then mixed churn",
            lambda n0, seed: FlashCrowd(surge=max(32, n0 // 4), seed=seed),
        ),
        Scenario(
            "mass-leave",
            "correlated departure: half the population leaves, then steady churn",
            lambda n0, seed: MassLeave(fraction=0.5, seed=seed),
        ),
        Scenario(
            "degree-attack",
            "adaptive: always delete a maximum-degree node",
            lambda n0, seed: DegreeAttack(seed=seed),
        ),
        Scenario(
            "coordinator-attack",
            "adaptive: always delete the host of virtual vertex 0",
            lambda n0, seed: CoordinatorAttack(seed=seed),
        ),
        Scenario(
            "spare-depletion",
            "adaptive: starve the Spare set to force early type-2",
            lambda n0, seed: SpareDepleter(seed=seed),
        ),
        Scenario(
            "low-load-attack",
            "adaptive: delete minimum-load nodes, racing the 4*zeta bound",
            lambda n0, seed: LowLoadAttack(seed=seed),
        ),
        Scenario(
            "oscillating",
            "inflate/deflate stress: alternating join and leave bursts",
            lambda n0, seed: OscillatingChurn(burst=max(16, n0 // 16), seed=seed),
        ),
        Scenario(
            "random-churn",
            "oblivious 50/50 join-leave churn (the related-work baseline)",
            lambda n0, seed: RandomChurn(0.5, seed=seed),
        ),
        Scenario(
            "trace-replay",
            "scripted join-burst/partial-exodus waves; finite trace",
            lambda n0, seed: TraceAdversary(_replay_script(n0), seed=seed),
        ),
    )
}


# ----------------------------------------------------------------------
# one campaign point
# ----------------------------------------------------------------------
def _build_overlay(overlay_key: str, n0: int, seed: int, overlay_kwargs: dict):
    factory = OVERLAY_FACTORIES[overlay_key]
    kwargs = overlay_kwargs if overlay_key == "dex" else {}
    return factory(n0, seed=seed, **kwargs)


def run_scenario(
    scenario_key: str,
    overlay_key: str,
    n0: int,
    seed: int,
    events: int | None = None,
    max_batch: int = 64,
    sample_every: int | None = None,
    compare_sequential: bool = False,
    overlay_kwargs: dict | None = None,
    series: bool = False,
) -> dict:
    """Run one scenario campaign point and return its metrics row.
    ``series=True`` additionally persists the full per-sample time
    series (spectral gap, max degree, live size and cumulative messages
    at every sample boundary), so ``benchmarks/`` can regenerate
    Figure-style decay plots from campaign output alone."""
    scenario = SCENARIOS[scenario_key]
    events = events or scenario.default_events(n0)
    sample_every = sample_every or max(64, events // 8)
    overlay_kwargs = overlay_kwargs or {}

    overlay = _build_overlay(overlay_key, n0, seed, overlay_kwargs)
    adversary = scenario.build(n0, seed)
    t0 = time.perf_counter()
    result = run_campaign(
        overlay,
        adversary,
        events,
        max_batch=max_batch,
        sample_every=sample_every,
        name=f"{scenario_key}/{overlay_key}",
    )
    wall = time.perf_counter() - t0
    row = _metrics_row(result, scenario_key, overlay_key, n0, seed, wall)
    row["final_n"] = overlay.size
    if series:
        row["series"] = _series_block(result)

    if compare_sequential:
        # Fresh overlay + fresh adversary, identical seed and event
        # count, healed one step at a time -- the engine-time ratio is
        # the campaign engine's receipt.
        seq_overlay = _build_overlay(overlay_key, n0, seed, overlay_kwargs)
        seq_adversary = scenario.build(n0, seed)
        seq = run_churn(
            seq_overlay,
            seq_adversary,
            result.steps,
            sample_every=sample_every,
            name=f"{scenario_key}/{overlay_key}/seq",
        )
        seq_ms = seq.heal_per_event_ms()
        row["seq_heal_per_event_ms"] = round(seq_ms, 6)
        row["seq_min_gap"] = round(seq.min_gap, 6)
        row["seq_max_degree"] = seq.max_degree_seen
        batch_ms = result.heal_per_event_ms()
        row["campaign_speedup_x"] = round(seq_ms / batch_ms, 2) if batch_ms else 0.0
    return row


def _metrics_row(
    result: CampaignResult,
    scenario_key: str,
    overlay_key: str,
    n0: int,
    seed: int,
    wall: float,
) -> dict:
    return {
        "scenario": scenario_key,
        "overlay": overlay_key,
        "n0": n0,
        "seed": seed,
        "events": result.steps,
        "batches": result.batches,
        "batched_events": result.batched_events,
        "fallbacks": result.fallbacks,
        "skipped": result.skipped_actions,
        "heal_per_event_ms": round(result.heal_per_event_ms(), 6),
        "min_gap": round(result.min_gap, 6),
        "final_gap": round(result.final_gap(), 6),
        "max_degree": result.max_degree_seen,
        "messages_total": result.messages_total(),
        "wall_s": round(wall, 3),
    }


def _series_block(result: CampaignResult) -> dict:
    """The full sampled time series, JSON-shaped: one ``[boundary,
    value]`` pair per sample.  Gap values are rounded to keep campaign
    reports diff-able; degree/size/messages are exact integers."""
    return {
        "gap": [[step, round(gap, 6)] for step, gap in result.gap_samples],
        "degree": [list(pair) for pair in result.degree_samples],
        "size": [list(pair) for pair in result.size_samples],
        "messages": [list(pair) for pair in result.message_samples],
    }


def point_key(scenario: str, overlay: str, n0: int, seed: int) -> str:
    return f"{scenario}/{overlay}/n{n0}_s{seed}"


# ----------------------------------------------------------------------
# the matrix (optionally multiprocess, one worker per point)
# ----------------------------------------------------------------------
def _matrix_point(args: tuple) -> tuple[str, dict]:
    (scenario, overlay, n0, seed, events, max_batch, compare, kwargs, series) = args
    row = run_scenario(
        scenario,
        overlay,
        n0,
        seed,
        events=events,
        max_batch=max_batch,
        compare_sequential=compare,
        overlay_kwargs=kwargs,
        series=series,
    )
    return point_key(scenario, overlay, n0, seed), row


def run_matrix(
    scenarios: Sequence[str],
    overlays: Sequence[str],
    sizes: Sequence[int],
    seeds: Sequence[int],
    events: int | None = None,
    max_batch: int = 64,
    compare_sequential: bool = False,
    overlay_kwargs: dict | None = None,
    workers: int | None = None,
    progress: bool = False,
    series: bool = False,
) -> dict[str, dict]:
    """Every scenario x overlay x size x seed point, fanned out one
    worker process per point (the ``perf --sweep`` shape); ``workers=1``
    stays in-process for simpler traces and identical numbers."""
    points = [
        (sc, ov, n0, seed, events, max_batch, compare_sequential,
         overlay_kwargs or {}, series)
        for sc in scenarios
        for ov in overlays
        for n0 in sizes
        for seed in seeds
    ]
    max_workers = workers or min(len(points), os.cpu_count() or 1)
    results: dict[str, dict] = {}
    def _progress_row(row: dict) -> dict:
        return {k: v for k, v in row.items() if k != "series"}

    if max_workers <= 1 or len(points) == 1:
        for point in points:
            key, row = _matrix_point(point)
            results[key] = row
            if progress:
                print(f"  {key}: {_progress_row(row)}", file=sys.stderr)
        return results
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        for key, row in pool.map(_matrix_point, points):
            results[key] = row
            if progress:
                print(f"  {key}: {_progress_row(row)}", file=sys.stderr)
    return results


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.scenarios",
        description="Run scenario campaigns (batch-healed adversarial "
        "workloads) against DEX and the baseline overlays.",
    )
    parser.add_argument("--scenarios", nargs="+", default=["flash-crowd"],
                        help=f"scenario keys or 'all' ({', '.join(sorted(SCENARIOS))})")
    parser.add_argument("--overlays", nargs="+", default=["dex"],
                        help=f"overlay keys or 'all' ({', '.join(sorted(OVERLAY_FACTORIES))})")
    parser.add_argument("--sizes", type=int, nargs="+", default=[1024])
    parser.add_argument("--seeds", type=int, nargs="+", default=[11])
    parser.add_argument("--events", type=int, default=None,
                        help="churn events per campaign (default: scenario-sized)")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: one per point, capped at CPUs)")
    parser.add_argument("--compare-sequential", action="store_true",
                        help="also run the same workload through the sequential "
                        "runner and record campaign_speedup_x")
    parser.add_argument("--series", action="store_true",
                        help="persist the full per-sample time series "
                        "(gap/degree/size/messages per boundary) in each "
                        "campaign row, for Figure-style decay plots")
    parser.add_argument("--no-validate-batches", action="store_true",
                        help="run DEX with validate_batches=False (engine-vs-engine "
                        "comparison; single-node steps do no batch validation)")
    parser.add_argument("--type2-mode", choices=["staggered", "simplified"],
                        default=None,
                        help="override DEX's type-2 mode (default staggered, "
                        "the paper's worst-case mode; simplified is Corollary "
                        "1's amortized one)")
    parser.add_argument("--label", default="campaigns",
                        help="label for the BENCH_perf.json campaigns entry")
    parser.add_argument("--out", type=Path, default=None,
                        help="merge results into this BENCH_perf.json (omit to skip)")
    parser.add_argument("--wall-budget", type=float, default=None,
                        help="fail if the whole matrix exceeds this many seconds "
                        "(the CI smoke guard)")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and overlays")
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(key) for key in SCENARIOS)
        for key in sorted(SCENARIOS):
            print(f"{key:<{width}}  {SCENARIOS[key].summary}")
        print("overlays: " + ", ".join(sorted(OVERLAY_FACTORIES)))
        return 0

    scenarios = sorted(SCENARIOS) if args.scenarios == ["all"] else args.scenarios
    overlays = sorted(OVERLAY_FACTORIES) if args.overlays == ["all"] else args.overlays
    for key in scenarios:
        if key not in SCENARIOS:
            parser.error(f"unknown scenario {key!r} (see --list)")
    for key in overlays:
        if key not in OVERLAY_FACTORIES:
            parser.error(f"unknown overlay {key!r} (see --list)")
    overlay_kwargs: dict = {}
    if args.no_validate_batches:
        overlay_kwargs["validate_batches"] = False
    if args.type2_mode is not None:
        overlay_kwargs["type2_mode"] = args.type2_mode

    points = len(scenarios) * len(overlays) * len(args.sizes) * len(args.seeds)
    workers = args.workers or min(points, os.cpu_count() or 1)
    print(
        f"campaign matrix: scenarios={scenarios} overlays={overlays} "
        f"sizes={args.sizes} seeds={args.seeds} max_batch={args.max_batch} "
        f"workers={workers} label={args.label!r}"
    )
    t0 = time.perf_counter()
    results = run_matrix(
        scenarios,
        overlays,
        args.sizes,
        args.seeds,
        events=args.events,
        max_batch=args.max_batch,
        compare_sequential=args.compare_sequential,
        overlay_kwargs=overlay_kwargs,
        workers=workers,
        progress=True,
        series=args.series,
    )
    wall = time.perf_counter() - t0

    for key in sorted(results):
        row = results[key]
        speedup = (
            f"  speedup={row['campaign_speedup_x']}x"
            if "campaign_speedup_x" in row
            else ""
        )
        print(
            f"{key}: events={row['events']} batches={row['batches']} "
            f"heal={row['heal_per_event_ms']}ms/event min_gap={row['min_gap']} "
            f"max_deg={row['max_degree']} msgs={row['messages_total']}"
            f"{speedup}"
        )
    print(f"matrix wall: {wall:.1f}s ({points} points, {workers} workers)")

    if args.out is not None:
        perf.write_section(
            args.out, "campaigns", args.label, results, meta={"workers": workers}
        )
        print(f"wrote {args.out}")
    if args.wall_budget is not None and wall > args.wall_budget:
        print(
            f"FAIL: matrix took {wall:.1f}s, over the {args.wall_budget:.0f}s "
            "wall budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
