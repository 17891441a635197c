"""One command for the DEX benchmark.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--repeat K] [--out FILE]

Runs the selected workloads (default: all), checks that the program's
outputs are correct, and prints every metric by name with its unit and
sample count.  ``--trace 1`` is the separate traced pass that yields
the per-layer metrics.  After the table comes one JSON line per
workload -- ``{"correct", "attempted", "failed", "metrics"}`` -- so with
a single ``--workload`` the last line of stdout is that workload's
result.  ``--repeat K`` is the A/A mode.  Exits non-zero when a gate
fails.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import sys
from multiprocessing.connection import Connection
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # run as a script: replace the script's own directory, so that
    # ``bench`` is imported as a package (bench/trace.py must not shadow
    # the standard library's ``trace``) and the program under test is
    # the source in this checkout -- never an installed copy
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"{ROOT} holds no program source (src/repro): nothing to benchmark")
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench import metrics  # noqa: E402
from bench.driver import Rep, run_rep  # noqa: E402
from bench.trace import ShimTracer, write_spans  # noqa: E402
from bench.workloads import BY_NAME, JOIN, NOMINAL_SECONDS, Workload  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}


def run_untraced(workload: Workload, seed: int) -> dict:
    """The end-to-end row: ``workload.reps`` repetitions, shims off."""
    last = workload.reps - 1
    reps = [
        run_rep(workload, seed, rep, deep_gate=rep == last) for rep in range(last + 1)
    ]
    return _row(workload, seed, reps, metrics.end_to_end(reps), END_TO_END)


def run_traced(workload: Workload, seed: int, spans_path: Path | None) -> dict:
    """The per-layer row: the same schedule run once with the shims off
    (the reference for ``trace.overhead_share``) and once with them on."""
    reference = run_rep(workload, seed, deep_gate=False)
    with ShimTracer() as tracer:
        traced = run_rep(workload, seed, tracer=tracer)
    values = {
        name: {"value": value, "samples": traced.phase.ops}
        for name, value in metrics.per_layer(
            traced, tracer, reference.phase.wall_s
        ).items()
    }
    if spans_path is not None:
        with open(spans_path, "a") as stream:
            write_spans(
                stream,
                traced.spans or [],
                _request_spans(traced),
                workload=workload.name,
                seed=seed,
                unresolved=tracer.unresolved,
            )
    return _row(workload, seed, [reference, traced], values, PER_LAYER)


def run_one(workload: Workload, seed: int, trace: int, spans_path: Path | None) -> dict:
    if trace:
        return run_traced(workload, seed, spans_path)
    return run_untraced(workload, seed)


def _send_row(conn: Connection, *job: object) -> None:
    conn.send(run_one(*job))


def run_isolated(*job: object) -> dict:
    """``run_one`` in a process of its own: a workload run after
    another in one interpreter inherits its heap (steps measured 30 %
    slower after ``soak_mixed_64k``) and its ``ru_maxrss``."""
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_row, args=(sender, *job))
    child.start()
    sender.close()
    try:
        return receiver.recv()  # EOFError if the child died: the command fails
    finally:
        child.join()


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts with
    the first spawned child (workers of the cluster workload, isolated
    rows).  Python does not wait for it at exit: it outlives the command
    by the moment it takes to notice its pipe closed."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # closes its pipe, waits for it


def _request_spans(rep: Rep) -> list[dict]:
    """The driver's request spans (submit or due -> ack), each carrying
    the index of the core call that answered it."""
    phase = rep.phase
    return [
        {
            "name": "request",
            "op": op,
            "kind": "join" if phase.schedule.kinds[op] == JOIN else "leave",
            "start": phase.submit_t[op],
            "end": phase.ack_t[op],
            "core": core.core if core is not None else None,
        }
        for op, core in enumerate(metrics.answering_calls(rep))
    ]


def _row(
    workload: Workload, seed: int, reps: list[Rep], values: dict, spec: dict
) -> dict:
    if set(values) != set(spec):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(spec))}"
        )
    errors = [error for rep in reps for error in rep.gate_errors]
    return {
        "workload": workload.name,
        "seed": seed,
        "valid": not errors,
        "errors": errors,
        "attempted": sum(rep.phase.ops for rep in reps),
        "failed": sum(rep.phase.failed for rep in reps),
        "refused": sum(rep.phase.refused for rep in reps),
        "metrics": {
            name: {**values[name], "unit": spec[name]["unit"]} for name in spec
        },
    }


def print_row(row: dict) -> None:
    state = "valid" if row["valid"] else f"INVALID: {'; '.join(row['errors'])}"
    print(
        f"\n== {row['workload']}  seed={row['seed']}  attempted={row['attempted']} "
        f"failed={row['failed']} refused={row['refused']}  {state}"
    )
    for name, metric in row["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<46s} {shown:>12s} {metric['unit']:<6s} n={metric['samples']}")


def contract_line(row: dict) -> str:
    """The result object the benchmark contract asks for.  A metric
    whose boundary did not resolve is ``null`` in the table and
    ``--out`` report; here it reads 0 and ``trace.unresolved_boundaries``
    says how many there are."""
    return json.dumps(
        {
            "correct": row["valid"],
            "attempted": row["attempted"],
            "failed": row["failed"],
            "metrics": {
                name: {"value": metric["value"] or 0, "unit": metric["unit"]}
                for name, metric in row["metrics"].items()
            },
        }
    )


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median: the
    statistic the acceptance procedure applies to ten runs."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def print_repeat(name: str, rows: list[dict]) -> bool:
    """The A/A table of one workload; False when a spread exceeds its
    metric's bound (``setup_s`` is reported but not gated)."""
    print(f"\n== A/A {name}: {len(rows)} runs, seeds {[r['seed'] for r in rows]}")
    steady = True
    for metric, spec in END_TO_END.items():
        values = [row["metrics"][metric]["value"] for row in rows]
        share = spread(values)
        verdict = "ok"
        if share > spec["bound"] and metric != "setup_s":
            verdict, steady = "SPREAD ABOVE BOUND", False
        elif share > spec["bound"] / 3:
            verdict = "above a third of the bound"
        print(
            f"  {metric:<14s} min {min(values):<10.5g} median "
            f"{statistics.median(values):<10.5g} max {max(values):<10.5g} "
            f"spread {share:.4f}  bound {spec['bound']}  {verdict}"
        )
    return steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="extend", nargs="+", choices=list(BY_NAME),
        metavar="NAME", help=f"one or more of {', '.join(BY_NAME)} (default: all)",
    )  # fmt: skip
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=float, default=NOMINAL_SECONDS,
        help="scales each workload's fixed operation count linearly; the "
        f"recorded sizes apply at {NOMINAL_SECONDS}",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics) instead of the untraced one",
    )  # fmt: skip
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="K",
        help="A/A mode: K untraced runs per workload on seeds N..N+K-1",
    )  # fmt: skip
    parser.add_argument("--out", type=Path, help="write the rows as JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be positive and --repeat at least 1")
    if args.repeat > 1 and args.trace:
        parser.error("--repeat is the A/A mode of the untraced pass")

    spans_path = None
    if args.out is not None and args.trace:
        spans_path = args.out.with_suffix(".spans.jsonl")
        spans_path.write_text("")
    names = args.workload or list(BY_NAME)
    run = run_isolated if len(names) * args.repeat > 1 else run_one
    rows, ok = [], True
    for name in names:
        workload = BY_NAME[name].scaled(args.seconds)
        mine = []
        for k in range(args.repeat):
            row = run(workload, args.seed + k, args.trace, spans_path)
            print_row(row)
            mine.append(row)
            ok = ok and row["valid"]
        if args.repeat > 1:
            ok = print_repeat(name, mine) and ok
        rows.extend(mine)
    if args.out is not None:
        args.out.write_text(json.dumps(rows, indent=1) + "\n")
    print()
    for row in rows:
        print(contract_line(row))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
