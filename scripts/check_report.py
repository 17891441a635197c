#!/usr/bin/env python
"""Schema + sanity asserts for CI benchmark artifacts.

Each CI smoke job used to carry its own inline ``python - <<EOF`` block
asserting the report it just produced; the schema string was repeated in
four places and drifted from the harness on every bump.  This script is
the single home for those checks: one subcommand per artifact kind, the
expected schema imported from :mod:`repro.harness.perf` so a schema bump
is a one-line change that CI picks up automatically.

Usage (CI)::

    python scripts/check_report.py tracing /tmp/bench_trace.json \
        --label ci-obs --size 256
    python scripts/check_report.py shard /tmp/bench_shard.json \
        --label ci-shard --size 256 --shards 2

Every subcommand exits non-zero with the offending row printed on any
failed assert.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.perf import SCHEMA  # noqa: E402


def _load(path: str, *, schema: bool = True) -> dict:
    with open(path) as fh:
        text = fh.read()
    # tolerate trailing non-JSON lines: CI tees harness stdout, which
    # prints a human verdict line after the --json report
    report, _ = json.JSONDecoder().raw_decode(text.lstrip())
    if schema:
        assert report["schema"] == SCHEMA, (
            f"schema {report['schema']!r} != harness {SCHEMA!r}"
        )
    return report


def check_scenario(args: argparse.Namespace) -> str:
    report = _load(args.report)
    rows = report["campaigns"][args.label]
    points = sorted(k for k in rows if k != "meta")
    assert len(points) == args.points, points
    for key in points:
        row = rows[key]
        assert row["events"] > 0, (key, row)
        assert row["min_gap"] > 0, (key, row)
        assert row["max_degree"] > 0, (key, row)
    return f"scenario smoke ok: {points}"


def check_soak(args: argparse.Namespace) -> str:
    report = _load(args.report)
    row = report["service"][args.label][f"n{args.size}"]
    assert row["events"] > 0, row
    assert row["events_per_s"] > 0, row
    assert row["ack_p50_ms"] is not None and row["ack_p50_ms"] > 0, row
    assert row["ack_p99_ms"] >= row["ack_p50_ms"], row
    assert row["backpressure"] == 0 or row["events"] > 0, row
    assert row["per_request_events_per_s"] > 0, row
    return f"service soak smoke ok: {row}"


def check_overload(args: argparse.Namespace) -> str:
    report = _load(args.report)
    rows = report["service"][args.label]
    policies = tuple(args.policies)
    for policy in policies:
        row = rows[f"n{args.size}/{policy}/r{args.rate}"]
        # nobody hangs: every offered request was answered
        assert row["completed"] == row["offered"], (policy, row)
        assert row["goodput_per_s"] > 0, (policy, row)
        # saturating spike: p99 bounded even on the fixed baseline (the
        # queue bounds it); adaptive policies must not blow past it
        assert row["ack_p99_ms"] < 10_000, (policy, row)
    if "shed-oldest" in policies:
        shed_row = rows[f"n{args.size}/shed-oldest/r{args.rate}"]
        # the shedding policy actually sheds at this load, but never
        # rejects everything
        assert shed_row["shed"] > 0, shed_row
        assert 0 < shed_row["shed_rate"] <= 0.95, shed_row
    p99s = {p: rows[f"n{args.size}/{p}/r{args.rate}"]["ack_p99_ms"]
            for p in policies}
    return f"overload smoke ok: {p99s}"


def check_sweep(args: argparse.Namespace) -> str:
    report = _load(args.report, schema=False)
    point = report["sweeps"][args.label][f"n{args.size}_s{args.seed}"]
    assert point["nodes_healed"] > 0, point
    return f"sweep smoke ok: {point}"


def check_fault(args: argparse.Namespace) -> str:
    clean = _load(args.report, schema=False)
    assert clean["killed"], clean
    assert clean["invariants_ok"] and clean["resumed_invariants_ok"], clean
    assert clean["journal_mismatches"] == [], clean
    # journaled-ahead ops whose checkpoint never published: at most one
    # checkpoint interval may be lost on a clean kill
    assert clean["journal_lost"] <= clean["journal_lost_bound"], clean
    assert clean["resumed_ok_events"] > 0, clean
    detail = f"{clean['restored_step']} -> {clean['final_step']}"
    if args.corrupt:
        corrupt = _load(args.corrupt, schema=False)
        assert corrupt["skipped_corrupt"] >= 1, corrupt
        assert corrupt["journal_lost"] <= corrupt["journal_lost_bound"], (
            corrupt)
        assert corrupt["journal_mismatches"] == [], corrupt
    return f"crash recovery smoke ok: {detail}"


def check_shard(args: argparse.Namespace) -> str:
    report = _load(args.report)
    rows = report["service"][args.label]
    serial = rows[f"n{args.size}/serial"]
    sharded = rows[f"n{args.size}/shards{args.shards}"]
    for name, row in (("serial", serial), ("sharded", sharded)):
        assert row["offered"] > 0, (name, row)
        assert row["events_per_s"] > 0, (name, row)
    # zero hung futures: every request offered at the cluster was answered
    assert sharded["completed"] == sharded["offered"], sharded
    # This is a *functional* gate, not a scaling claim: at n=256 on a
    # single contended CI core the cluster is expected to run slower
    # than one process (the recorded pr8 row measures ~0.8x serial;
    # benchmarks/README.md documents why).  Assert only that the
    # sharded path is not pathologically slow -- a collapse below a
    # quarter of the serial gateway means a hung worker or a
    # serialization bug, not runner noise.
    assert sharded["events_per_s"] >= 0.25 * serial["events_per_s"], (
        sharded["events_per_s"], serial["events_per_s"])
    assert sharded["audit_ok"], sharded
    assert sharded["audit_errors"] == [], sharded
    assert len(sharded["per_shard_events_per_s"]) == args.shards, sharded
    return (
        f"shard smoke ok: serial {serial['events_per_s']:.0f} ev/s, "
        f"{args.shards} shards {sharded['events_per_s']:.0f} ev/s"
    )


#: ``perf --trace-overhead`` ceilings (percent): enabled tracing costs
#: at most 5 % on the hot paths, disabled at most 1 %, on any machine.
#: The disabled numbers are synthetic (guard cost x span sites); the
#: enabled ones are best-of-repeats interleaved off/on measurements.
TRACE_LIMITS: dict[str, float] = {
    "trace_enabled_churn_overhead_pct": 5.0,
    "trace_disabled_churn_overhead_pct": 1.0,
    "trace_enabled_soak_overhead_pct": 5.0,
    "trace_disabled_soak_overhead_pct": 1.0,
}


def check_tracing(args: argparse.Namespace) -> str:
    report = _load(args.report)
    row = report["tracing"][args.label][f"n{args.size}"]
    over = [f"{m} {row[m]}% > {limit}%" for m, limit in TRACE_LIMITS.items() if row[m] > limit]
    assert not over, "; ".join(over)
    shown = ", ".join(f"{metric} {row[metric]}%" for metric in TRACE_LIMITS)
    return f"tracing overhead ok: {shown}"


def check_trace(args: argparse.Namespace) -> str:
    from repro.obs.render import load_trace

    # load_trace asserts the dex-trace/1 header itself (ValueError on a
    # wrong file) and tolerates a truncated tail, reporting it as
    # ``skipped`` -- for a *cleanly* written CI artifact we require zero
    header, spans, skipped = load_trace(args.report)
    assert skipped == 0, f"{skipped} unparseable line(s) in a clean export"
    assert len(spans) >= args.min_spans, (
        f"only {len(spans)} spans recorded (floor {args.min_spans}): "
        "tracing was off or the workload collapsed"
    )
    names = {s["name"] for s in spans}
    for s in spans:
        assert s.get("dur_s", 0.0) >= 0.0, s
        # flush *phases* are children by construction; an orphan means
        # parent propagation broke somewhere in the gateway/shard path
        if ".flush." in s["name"]:
            assert s.get("parent"), f"flush-phase span without parent: {s}"
    flush_roots = {n for n in names if n.endswith(".flush")}
    assert flush_roots, f"no flush root spans among {sorted(names)}"
    return (
        f"trace ok: {len(spans)} spans, {len(names)} distinct names, "
        f"created {header.get('created')}"
    )


def check_bench_trace(args: argparse.Namespace) -> str:
    """A traced ``bench/run.py --trace 1 --out`` report: every row correct
    (``valid`` here is the contract line's ``correct``), every shim
    boundary resolved, and the single-step walks attributed -- a refactor
    that routes them around the module-level ``random_walk`` the frozen
    tracer patches reads 0 scalar walks, not an error."""
    rows = _load(args.report, schema=False)
    assert rows, "no rows in the report"
    walks = {}
    for row in rows:
        metrics = {name: entry["value"] for name, entry in row["metrics"].items()}
        name = row["workload"]
        assert row["valid"] and row["failed"] == 0, (name, row["errors"], row["failed"])
        assert metrics["trace.unresolved_boundaries"] == 0, (name, metrics)
        walks[name] = metrics["net.walks.scalar_walks_per_event"] or 0
        assert walks[name] > 0, f"{name}: no scalar walk reached the tracer"
    return f"bench trace ok: scalar walks per event {walks}"


def check_staticcheck(args: argparse.Namespace) -> str:
    from repro.analysis.staticcheck import SCHEMA as STATICCHECK_SCHEMA

    report = _load(args.report, schema=False)
    assert report["schema"] == STATICCHECK_SCHEMA, (
        f"schema {report['schema']!r} != checker {STATICCHECK_SCHEMA!r}"
    )
    # a clean report over a near-empty tree is no receipt: assert the
    # scan actually covered the package
    assert report["files_checked"] >= args.min_files, (
        f"only {report['files_checked']} files checked "
        f"(floor {args.min_files}): wrong path scanned?"
    )
    assert report["ok"], report["counts"]
    # every live suppression must carry its written reason
    assert all(s.get("reason") for s in report["suppressed"]), (
        report["suppressed"]
    )
    return (
        f"staticcheck ok: {report['files_checked']} files, "
        f"{len(report['suppressed'])} suppression(s)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_report",
        description="Assert schema and row sanity of a CI benchmark artifact.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)

    p = sub.add_parser("scenario", help="scenario campaign report")
    p.add_argument("report")
    p.add_argument("--label", default="ci-scenarios")
    p.add_argument("--points", type=int, default=4)
    p.set_defaults(check=check_scenario)

    p = sub.add_parser("soak", help="gateway soak report")
    p.add_argument("report")
    p.add_argument("--label", default="ci-service")
    p.add_argument("--size", type=int, default=256)
    p.set_defaults(check=check_soak)

    p = sub.add_parser("overload", help="policy frontier report")
    p.add_argument("report")
    p.add_argument("--label", default="ci-overload")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--rate", type=int, default=20000)
    p.add_argument("--policies", nargs="+",
                   default=["fixed", "adaptive-window", "shed-oldest"])
    p.set_defaults(check=check_overload)

    p = sub.add_parser("sweep", help="multiprocess sweep report")
    p.add_argument("report")
    p.add_argument("--label", default="ci-sweep")
    p.add_argument("--size", type=int, default=20000)
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(check=check_sweep)

    p = sub.add_parser("fault", help="crash-recovery fault report(s)")
    p.add_argument("report", help="clean-kill report JSON")
    p.add_argument("--corrupt", default=None,
                   help="corrupted-checkpoint report JSON (optional)")
    p.set_defaults(check=check_fault)

    p = sub.add_parser("shard", help="shard-sweep report")
    p.add_argument("report")
    p.add_argument("--label", default="ci-shard")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--shards", type=int, default=2)
    p.set_defaults(check=check_shard)

    p = sub.add_parser("trace", help="dex-trace JSONL artifact")
    p.add_argument("report")
    p.add_argument("--min-spans", type=int, default=40,
                   help="floor on recorded spans (guards against a "
                        "silently disabled recorder)")
    p.set_defaults(check=check_trace)

    p = sub.add_parser("tracing", help="perf --trace-overhead report")
    p.add_argument("report")
    p.add_argument("--label", default="ci-obs")
    p.add_argument("--size", type=int, default=256)
    p.set_defaults(check=check_tracing)

    p = sub.add_parser("bench-trace", help="traced bench/run.py --out report")
    p.add_argument("report")
    p.set_defaults(check=check_bench_trace)

    p = sub.add_parser("staticcheck", help="staticcheck findings report")
    p.add_argument("report")
    p.add_argument("--min-files", type=int, default=70,
                   help="floor on files_checked (guards against an "
                        "accidentally empty scan)")
    p.set_defaults(check=check_staticcheck)

    args = parser.parse_args(argv)
    try:
        message = args.check(args)
    except (AssertionError, ValueError) as exc:
        print(f"check_report {args.kind} FAILED: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"check_report {args.kind} FAILED: missing key {exc}",
              file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
