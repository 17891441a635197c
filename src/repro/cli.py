"""Command-line experiment runner.

Run any overlay against any churn strategy and print the measured
summary, without writing a script::

    python -m repro.cli --overlay dex --adversary random --steps 500
    python -m repro.cli --overlay law-siu --adversary degree-attack --n0 128
    python -m repro.cli --list

Two subcommands drive the membership-service gateway (PR 5)::

    # live gateway under open-loop Poisson traffic, periodic snapshots
    python -m repro.cli serve --n0 1024 --rate 2000 --duration 5

    # the soak benchmark (micro-batched vs per-request gateway),
    # merged under the `service` key of BENCH_perf.json
    python -m repro.cli soak --sizes 4096 --duration 2 --out BENCH_perf.json

A third renders trace JSONL files written by the obs subsystem
(``soak --trace``, ``recording_to``, shard worker ``trace_path``)::

    python -m repro.cli trace /tmp/trace.jsonl --rollup
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.adversary import (
    CoordinatorAttack,
    DegreeAttack,
    DeleteOnly,
    FlashCrowd,
    InsertOnly,
    LowLoadAttack,
    MassLeave,
    OscillatingChurn,
    RandomChurn,
    SpareDepleter,
)
from repro.harness import OVERLAY_FACTORIES, Table, run_campaign, run_churn

ADVERSARIES = {
    "random": lambda seed: RandomChurn(0.5, seed=seed),
    "insert-only": lambda seed: InsertOnly(seed=seed),
    "delete-only": lambda seed: DeleteOnly(seed=seed),
    "oscillating": lambda seed: OscillatingChurn(seed=seed),
    "degree-attack": lambda seed: DegreeAttack(seed=seed),
    "coordinator-attack": lambda seed: CoordinatorAttack(seed=seed),
    "spare-depleter": lambda seed: SpareDepleter(seed=seed),
    "low-load-attack": lambda seed: LowLoadAttack(seed=seed),
    "flash-crowd": lambda seed: FlashCrowd(seed=seed),
    "mass-leave": lambda seed: MassLeave(seed=seed),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Churn an expander overlay and report healing costs.",
    )
    parser.add_argument("--overlay", default="dex", choices=sorted(OVERLAY_FACTORIES))
    parser.add_argument("--adversary", default="random", choices=sorted(ADVERSARIES))
    parser.add_argument("--n0", type=int, default=64, help="initial network size")
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample-every", type=int, default=50)
    parser.add_argument(
        "--campaign",
        action="store_true",
        help="drive adversary batches through the batch-parallel healing "
        "engine (run_campaign) instead of one step at a time",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="batch-size cap for --campaign mode",
    )
    parser.add_argument(
        "--list", action="store_true", help="list overlays and adversaries"
    )
    return parser


def _add_overload_flags(parser: argparse.ArgumentParser) -> None:
    """The PR 7 overload-control knobs, shared by serve and soak."""
    from repro.service import POLICIES

    parser.add_argument("--policy", default="fixed", choices=sorted(POLICIES),
                        help="gateway admission/batching policy")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline; expired requests are "
                        "answered with a rejection, never healed late")
    parser.add_argument("--retries", type=int, default=0,
                        help="client retries on backpressure/shed rejections "
                        "(0 = no retry)")
    parser.add_argument("--retry-base-ms", type=float, default=2.0,
                        help="base backoff of the retry policy")
    parser.add_argument("--retry-cap-ms", type=float, default=50.0,
                        help="backoff cap of the retry policy")


def _retry_policy(args):
    from repro.service import RetryPolicy

    if args.retries <= 0:
        return None
    return RetryPolicy(
        max_retries=args.retries,
        base_ms=args.retry_base_ms,
        cap_ms=args.retry_cap_ms,
    )


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Run the membership gateway under open-loop Poisson "
        "traffic and print latency/throughput snapshots.",
    )
    parser.add_argument("--n0", type=int, default=1024, help="initial network size")
    parser.add_argument("--rate", type=float, default=1000.0,
                        help="open-loop arrival rate (requests/sec)")
    parser.add_argument("--duration", type=float, default=5.0, help="seconds of load")
    parser.add_argument("--join-fraction", type=float, default=0.6)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--window-ms", type=float, default=2.0)
    parser.add_argument("--queue-limit", type=int, default=4096,
                        help="bound of the ingestion queue (per shard "
                        "with --shards N)")
    parser.add_argument("--shards", type=int, default=1,
                        help="serve from an N-shard worker cluster behind "
                        "the id-region router instead of one gateway")
    _add_overload_flags(parser)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--report-every", type=float, default=1.0,
                        help="seconds between progress snapshots (0 = final only)")
    parser.add_argument("--checkpoint-dir", type=pathlib.Path, default=None,
                        help="write periodic snapshots into this directory")
    parser.add_argument("--checkpoint-every", type=int, default=32,
                        help="flushes between checkpoints")
    parser.add_argument("--checkpoint-keep", type=int, default=3,
                        help="newest checkpoints retained")
    parser.add_argument("--restore", action="store_true",
                        help="restore from the newest checkpoint in "
                        "--checkpoint-dir instead of bootstrapping")
    parser.add_argument("--metrics-out", type=pathlib.Path, default=None,
                        help="write the final Prometheus text exposition "
                        "of the gateway's metrics registry to this file")
    return parser


def cmd_serve(argv: list[str]) -> int:
    """``serve``: Poisson traffic against one gateway or, with
    ``--shards N``, an N-worker cluster behind the id-region router --
    one code path over the operator surface both share, ending in a
    graceful drain and a cluster audit."""
    import asyncio
    import contextlib
    import signal as signal_module

    from repro.service import open_service, poisson_load, quiesce

    args = _serve_parser().parse_args(argv)
    if args.restore and args.checkpoint_dir is None:
        print("--restore requires --checkpoint-dir", file=sys.stderr)
        return 2

    async def reporter(service) -> None:
        while True:
            await asyncio.sleep(args.report_every)
            row = service.metrics.window()
            print(
                f"  [{row['elapsed_s']:.1f}s] {row['events']} acks "
                f"({row['events_per_s']:.0f}/s)  p50={row['ack_p50_ms']}ms "
                f"p99={row['ack_p99_ms']}ms  depth={service.queue_depth}"
            )

    async def run():
        service = await open_service(
            args.n0,
            shards=args.shards,
            seed=args.seed,
            max_batch=args.max_batch,
            window_ms=args.window_ms,
            queue_limit=args.queue_limit,
            policy=args.policy,
            deadline_ms=args.deadline_ms,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep,
            restore=args.restore,
        )
        for row in service.ready.values():
            if row["restored"]:
                print(
                    f"restored step {row['step']} (n = {row['size']}) "
                    f"from {row['checkpoint']}"
                )
        print(
            f"serving n0={service.net.size} across {len(service.ready)} "
            f"shard(s) at {args.rate:.0f} req/s for {args.duration}s "
            f"(max_batch={args.max_batch}, window={args.window_ms}ms)"
        )
        # Ctrl-C / SIGTERM become a graceful drain: stop offering load,
        # answer every queued future, write the final checkpoint.  A
        # raw KeyboardInterrupt would instead tear the loop down with
        # unresolved futures.
        loop = asyncio.get_running_loop()
        interrupted = asyncio.Event()
        handled: list = []
        for signum in (signal_module.SIGINT, signal_module.SIGTERM):
            try:
                loop.add_signal_handler(signum, interrupted.set)
                handled.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        watcher = (
            asyncio.ensure_future(reporter(service))
            if args.report_every > 0
            else None
        )
        load = asyncio.ensure_future(
            poisson_load(
                service,
                rate_hz=args.rate,
                duration_s=args.duration,
                join_fraction=args.join_fraction,
                seed=args.seed + 1,
                retry=_retry_policy(args),
            )
        )
        stop = asyncio.ensure_future(interrupted.wait())
        try:
            await asyncio.wait({load, stop}, return_when=asyncio.FIRST_COMPLETED)
            stats = None
            if interrupted.is_set() and not load.done():
                print("interrupt: draining queued requests ...")
                load.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await load
            else:
                stats = await load
            # Audited once the requests queued at the interrupt have
            # healed, so the audit sees the membership the drain leaves;
            # and while the workers still exist (a cluster's are gone
            # once it has drained).
            if not await quiesce(service):
                print("requests still queued: auditing before they heal")
            audit = await service.cluster_audit()
            summary = await service.drain()
            # Let clients the cancelled generator left behind observe
            # their (already resolved) acks before the loop closes.
            for _ in range(3):
                await asyncio.sleep(0)
        finally:
            stop.cancel()
            if watcher is not None:
                watcher.cancel()
            for signum in handled:
                loop.remove_signal_handler(signum)
        if args.metrics_out is not None:
            args.metrics_out.write_text(
                service.publish_registry().render_prometheus(),
                encoding="utf-8",
            )
        return stats, service.metrics.snapshot(), audit, summary

    stats, snap, audit, summary = asyncio.run(run())
    table = Table(
        f"gateway soak (n0={args.n0}, shards={len(audit['shards'])}, "
        f"rate={args.rate:.0f}/s, seed={args.seed})",
        ["quantity", "value"],
    )
    if stats is not None:
        table.add_row("offered", stats.offered)
        table.add_row("acked ok", stats.ok)
        table.add_row("rejected", stats.rejected)
        table.add_row("backpressure", stats.backpressure)
        if stats.shed:
            table.add_row("shed", stats.shed)
        if stats.deadline_timeouts:
            table.add_row("deadline timeouts", stats.deadline_timeouts)
        if stats.retries:
            table.add_row("retries", stats.retries)
    else:
        table.add_row("interrupted", "yes (drained)")
        table.add_row("pending answered", summary["pending_answered"])
    table.add_row("events/sec", snap["events_per_s"])
    table.add_row("goodput/sec", snap["goodput_per_s"])
    table.add_row("ack p50 (ms)", snap["ack_p50_ms"])
    table.add_row("ack p99 (ms)", snap["ack_p99_ms"])
    # the flush-shape columns live where the flushes run
    engines = summary.get("per_shard") or [snap]
    table.add_row("mean batch", " / ".join(str(e["mean_batch"]) for e in engines))
    if "handoffs" in summary:
        handoffs = summary["handoffs"]
        table.add_row(
            "handoffs",
            f"{handoffs['committed']}/{handoffs['attempted']} committed",
        )
    table.add_row(
        "cluster audit", "ok" if audit["ok"] else f"FAILED {audit['errors'][:2]}"
    )
    table.add_note(
        f"audited n = {audit['total_nodes']}, "
        f"batches = {sum(e['batches'] for e in engines)}, policy = {args.policy}"
    )
    if "per_shard" in summary:
        table.add_note(
            "per-shard events/s: "
            + ", ".join(
                f"{row['shard']}: {row['events_per_s']:.0f}"
                for row in summary["per_shard"]
            )
        )
    # A drain that wrote no final checkpoint leaves every ack since the
    # previous one non-durable: a failed run, not a missing note.
    lost = args.checkpoint_dir is not None and not summary["final_checkpoint"]
    if args.checkpoint_dir is not None:
        table.add_note(
            f"checkpoints: {summary['checkpoints_written']} written "
            f"({summary['checkpoint_errors']} errors), "
            f"final {summary['final_checkpoint'] or 'NOT WRITTEN'}"
            + (" (in-flight type-2 op completed first)" if summary["op_completed"] else "")
        )
    print(table.render())
    return 0 if audit["ok"] and not lost else 1


def _soak_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli soak",
        description="Gateway soak benchmark: sustained events/sec and ack "
        "percentiles, micro-batched vs per-request, merged into "
        "BENCH_perf.json under the `service` key.",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=[4096])
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--clients", type=int, default=256)
    parser.add_argument("--max-batch", type=int, default=128)
    parser.add_argument("--window-ms", type=float, default=2.0)
    _add_overload_flags(parser)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the per-request comparison run")
    parser.add_argument("--label", default="service")
    parser.add_argument("--checkpoint-dir", type=pathlib.Path, default=None,
                        help="periodically snapshot the batched soak's "
                        "network into this directory")
    parser.add_argument("--checkpoint-every", type=int, default=32,
                        help="flushes between checkpoints")
    parser.add_argument("--checkpoint-keep", type=int, default=3,
                        help="newest checkpoints retained")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="merge results into this BENCH_perf.json (omit to skip)")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        help="record request-to-wave spans during the soak "
                        "and export them as trace JSONL to this file")
    return parser


def cmd_soak(argv: list[str]) -> int:
    import contextlib

    from repro.harness import perf
    from repro.obs import recording_to

    args = _soak_parser().parse_args(argv)
    results: dict[str, dict] = {}
    with recording_to(args.trace) if args.trace is not None else contextlib.nullcontext():
        for n in args.sizes:
            row = results[f"n{n}"] = perf.bench_service(
                n,
                duration_s=args.duration,
                max_batch=args.max_batch,
                batch_window_ms=args.window_ms,
                clients=args.clients,
                seed=args.seed,
                compare_per_request=not args.no_baseline,
                policy=args.policy,
                deadline_ms=args.deadline_ms,
                retry=_retry_policy(args),
                checkpoint_dir=(
                    str(args.checkpoint_dir / f"n{n}") if args.checkpoint_dir else None
                ),
                checkpoint_every=args.checkpoint_every,
                checkpoint_keep=args.checkpoint_keep,
            )
            speedup = (
                f"  speedup={row['service_speedup_x']}x" if "service_speedup_x" in row else ""
            )
            checkpoints = (
                f"  checkpoints={row['checkpoints_written']}"
                if "checkpoints_written" in row
                else ""
            )
            print(
                f"n{n}: {row['events']} events at {row['events_per_s']:.0f}/s "
                f"(p50={row['ack_p50_ms']}ms p99={row['ack_p99_ms']}ms, "
                f"mean batch {row['mean_batch']}){speedup}{checkpoints}"
            )
    if args.out is not None:
        perf.write_section(args.out, "service", args.label, results, merge=True)
        print(f"wrote {args.out}")
    if args.trace is not None:
        print(f"tracing {args.trace}")
    return 0


def cmd_trace(argv: list[str]) -> int:
    from repro.obs.render import main as render_main

    return render_main(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return cmd_serve(argv[1:])
    if argv and argv[0] == "soak":
        return cmd_soak(argv[1:])
    if argv and argv[0] == "trace":
        return cmd_trace(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list:
        print("overlays:   " + ", ".join(sorted(OVERLAY_FACTORIES)))
        print("adversaries: " + ", ".join(sorted(ADVERSARIES)))
        return 0

    overlay = OVERLAY_FACTORIES[args.overlay](args.n0, seed=args.seed)
    adversary = ADVERSARIES[args.adversary](args.seed)
    if args.campaign:
        result = run_campaign(
            overlay,
            adversary,
            events=args.steps,
            max_batch=args.max_batch,
            sample_every=args.sample_every,
        )
    else:
        result = run_churn(
            overlay, adversary, steps=args.steps, sample_every=args.sample_every
        )

    mode = f", batches<={args.max_batch}" if args.campaign else ""
    table = Table(
        f"{args.overlay} vs {args.adversary} "
        f"(n0={args.n0}, {args.steps} steps, seed={args.seed}{mode})",
        ["quantity", "median", "p95", "max"],
    )
    for attribute in ("rounds", "messages", "topology_changes"):
        summary = result.cost_summary(attribute)
        table.add_row(attribute, summary.median, summary.p95, summary.maximum)
    table.add_note(f"final n = {overlay.size}")
    table.add_note(
        f"spectral gap: min {result.min_gap:.4f}, final {result.final_gap():.4f}"
    )
    table.add_note(f"max degree seen: {result.max_degree_seen}")
    if args.campaign:
        table.add_note(
            f"campaign: {result.steps} events in {result.batches} batches "
            f"({result.batched_events} batch-healed, "
            f"{result.fallbacks} rejected actions)"
        )
    if result.skipped_actions:
        table.add_note(f"skipped illegal adversary actions: {result.skipped_actions}")
    print(table.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
