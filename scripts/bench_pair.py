#!/usr/bin/env python
"""Paired head-vs-base runs of the repo's benchmark on this host.

    python scripts/bench_pair.py BASE [--workload W] [--pairs N]
                                 [--seconds S] [--seed N]

``BASE`` is a git ref, checked out into a temporary ``git worktree``
that is removed afterwards, or a directory that already holds a checkout
of the base commit (used as is).  Each pair runs ``bench/run.py`` of
base and of head (the checkout this script lives in) once, with the same
fresh ``--seed``, alternating which side goes first so that drift of the
host hits both sides alike.  The script only *calls* ``bench/run.py``;
each side runs its own copy, on its own source.

Per end-to-end metric it prints both medians, both inter-quartile
distances, how many pairs head won (ties count for neither) and the
verdict of the claim rule: ``better`` / ``worse`` only when one side
wins at least nine tenths of the pairs *and* the medians are further
apart than base's inter-quartile distance; otherwise no claim either
way.  The last column checks the regression bound ``BENCHMARK.json``
fixes for the metric: ``over`` when head's median is worse than base's
by more than that share.  Every run is listed first, so the table can be
re-derived.

Exit status: 0 when every run passed its benchmark's own gates, 1
otherwise.  The verdicts never change it -- a CI job reads them, a
person decides.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict[str, float]:
    """One untraced ``bench/run.py`` run in ``checkout``; its end-to-end
    metrics by name.  Raises ``RuntimeError`` when the run fails a gate."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0",
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
    )  # fmt: skip
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"bench/run.py failed in {checkout} (exit {done.returncode})")
    row = json.loads(lines[-1])
    if not row["correct"] or row["failed"]:
        raise RuntimeError(f"bench/run.py in {checkout}: {row['failed']} failed operations")
    return {name: entry["value"] for name, entry in row["metrics"].items()}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(base: list[float], head: list[float], higher_is_better: bool) -> tuple[int, int, str]:
    """``(head wins, base wins, verdict)`` over the paired values."""
    sign = 1 if higher_is_better else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    apart = abs(statistics.median(head) - statistics.median(base)) > iqr(base)
    need = WIN_SHARE * len(base)
    if apart and wins >= need:
        return wins, losses, "better"
    if apart and losses >= need:
        return wins, losses, "worse"
    return wins, losses, "-"


def compare(base_dir: Path, args: argparse.Namespace) -> None:
    contract = json.loads((HEAD / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict[str, float]]] = {"base": [], "head": []}
    sides = {"base": base_dir, "head": HEAD}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            row = run_once(sides[side], args.workload, args.seconds, seed)
            runs[side].append(row)
            shown = "  ".join(f"{m['name']}={row[m['name']]:.4g}" for m in contract)
            print(f"pair {pair + 1:>2} seed {seed} {side}: {shown}", flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, base = {args.base}")
    print(f"{'metric':<14}{'base med':>11}{'head med':>11}{'base IQR':>10}{'head IQR':>10}"
          f"{'head wins':>11}  {'verdict':<8}bound")  # fmt: skip
    for metric in contract:
        name = metric["name"]
        base = [row[name] for row in runs["base"]]
        head = [row[name] for row in runs["head"]]
        higher = metric["better"] == "higher"
        wins, _losses, word = verdict(base, head, higher)
        b, h = statistics.median(base), statistics.median(head)
        worse_by = (b - h if higher else h - b) / b if b else 0.0
        bound = f"{'over' if worse_by > metric['bound'] else 'ok'} ({metric['bound']:.0%})"
        print(f"{name:<14}{b:>11.4g}{h:>11.4g}{iqr(base):>10.3g}{iqr(head):>10.3g}"
              f"{f'{wins}/{len(base)}':>11}  {word:<8}{bound}")  # fmt: skip


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE", help="git ref, or directory holding a checkout")
    parser.add_argument("--workload", default="soak_mixed_4k")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair (then +1)")
    args = parser.parse_args(argv)
    try:
        if (Path(args.base) / "bench" / "run.py").is_file():
            compare(Path(args.base).resolve(), args)
            return 0
        with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
            tree = Path(tmp) / "base"
            git = ["git", "-C", str(HEAD), "worktree"]
            subprocess.run(
                [*git, "add", "--detach", str(tree), args.base], check=True, stdout=sys.stderr
            )
            try:
                compare(tree, args)
            finally:
                subprocess.run([*git, "remove", "--force", str(tree)], check=True)
        return 0
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"bench_pair: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
