#!/usr/bin/env python
"""Perf-baseline regression gate for CI.

Loads the committed ``BENCH_perf.json`` baseline and a freshly measured
smoke report, and fails when any gated hot-path metric regressed beyond
its noise tolerance.  Both reports must carry a row for the compared
size; metrics missing from the *baseline* are skipped (older baselines
predate newer benchmarks), metrics missing from the smoke run fail.

Usage::

    python scripts/perf_gate.py \
        --baseline BENCH_perf.json --baseline-label pr8 \
        --smoke /tmp/bench_gate.json --smoke-label gate --size 256

    # gate the tracing overhead (absolute ceilings, no baseline needed):
    python scripts/perf_gate.py --trace-overhead \
        --smoke /tmp/bench_trace.json --smoke-label ci-obs --size 256
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

# ----------------------------------------------------------------------
# Gated metrics and their noise tolerances, in one place: the smoke run
# may be at most ``tolerance`` times slower than the recorded baseline.
# 2.5x absorbs CI-runner contention and cold caches while still
# catching an order-of-magnitude hot-path regression.  Each entry is
# ``metric: (tolerance, direction)`` -- for ``lower`` metrics (times) a
# regression is measuring *more* than ``base * tolerance``; for
# ``higher`` metrics (throughputs) it is measuring *less* than
# ``base / tolerance``.
# ----------------------------------------------------------------------
TOLERANCES: dict[str, tuple[float, str]] = {
    "churn_per_step_ms": (2.5, "lower"),
    "batch_churn_per_node_ms": (2.5, "lower"),
    "wave_hop_us": (2.5, "lower"),
}

# Gated with ``--trace-overhead``: absolute ceilings (percent), not
# baseline ratios -- the obs contract is "enabled tracing costs at most
# ~5% on the hot paths, disabled at most ~1%", independent of machine.
# The disabled numbers are synthetic (guard cost x span sites) and sit
# orders of magnitude under the ceiling; the enabled numbers are
# best-of-repeats interleaved off/on measurements.
TRACE_LIMITS: dict[str, float] = {
    "trace_enabled_churn_overhead_pct": 5.0,
    "trace_disabled_churn_overhead_pct": 1.0,
    "trace_enabled_soak_overhead_pct": 5.0,
    "trace_disabled_soak_overhead_pct": 1.0,
}


def _row(report: dict, label: str, size: int, path: str,
         section: str = "runs") -> dict:
    runs = report.get(section, {})
    if label not in runs:
        sys.exit(
            f"perf gate: no {section} entry labelled {label!r} in {path}"
        )
    row = runs[label].get(f"n{size}")
    if not row:
        sys.exit(f"perf gate: {section} {label!r} in {path} has no "
                 f"n{size} row")
    return row


def _trace_gate(args: argparse.Namespace) -> int:
    """Absolute-ceiling mode: the smoke report's tracing row must sit
    under every :data:`TRACE_LIMITS` percentage.  No baseline report is
    involved -- the ceiling is the contract, not a ratio."""
    smoke = _row(
        json.loads(args.smoke.read_text()),
        args.smoke_label,
        args.size,
        str(args.smoke),
        "tracing",
    )
    failures: list[str] = []
    for metric, limit in TRACE_LIMITS.items():
        measured = smoke.get(metric)
        if measured is None:
            failures.append(f"{metric}: missing from the smoke run")
            continue
        verdict = "ok" if measured <= limit else "OVER CEILING"
        print(f"  {metric}: {measured:.4f}% (ceiling {limit}%) {verdict}")
        if measured > limit:
            failures.append(
                f"{metric}: {measured:.4f}% exceeds the {limit}% ceiling"
            )
    if failures:
        print("perf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"perf gate ok (n{args.size}, tracing overhead ceilings)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path, default=None)
    parser.add_argument("--baseline-label", default="pr8")
    parser.add_argument("--smoke", type=pathlib.Path, required=True)
    parser.add_argument("--smoke-label", default="gate")
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help="gate the tracing-overhead percentages from the 'tracing' "
        "section against absolute ceilings (no --baseline needed)",
    )
    args = parser.parse_args(argv)

    if args.trace_overhead:
        return _trace_gate(args)
    if args.baseline is None:
        parser.error("--baseline is required (except with --trace-overhead)")

    baseline = _row(
        json.loads(args.baseline.read_text()),
        args.baseline_label,
        args.size,
        str(args.baseline),
    )
    smoke = _row(
        json.loads(args.smoke.read_text()),
        args.smoke_label,
        args.size,
        str(args.smoke),
    )

    failures: list[str] = []
    for metric, (tolerance, direction) in TOLERANCES.items():
        base = baseline.get(metric)
        if base is None or base <= 0:
            print(f"  {metric}: no baseline recorded, skipped")
            continue
        measured = smoke.get(metric)
        if measured is None:
            failures.append(f"{metric}: missing from the smoke run")
            continue
        if measured <= 0:
            # a dead smoke run must produce the clean REGRESSED report,
            # not a ZeroDivisionError on the base/measured ratio below
            failures.append(
                f"{metric}: smoke run measured {measured!r} (expected > 0)"
            )
            continue
        # normalise so that ratio > tolerance is always the regression
        ratio = measured / base if direction == "lower" else base / measured
        verdict = "ok" if ratio <= tolerance else "REGRESSED"
        print(
            f"  {metric}: measured {measured:.4f} vs baseline {base:.4f} "
            f"({direction} is better, x{ratio:.2f} of budget "
            f"x{tolerance}) {verdict}"
        )
        if ratio > tolerance:
            failures.append(
                f"{metric}: {measured:.4f} vs baseline {base:.4f} "
                f"exceeds the x{tolerance} noise tolerance (x{ratio:.2f})"
            )
    if failures:
        print("perf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"perf gate ok (n{args.size}, baseline {args.baseline_label!r})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
