"""Fault-injection harness: kill the serving tier mid-soak and prove it
comes back.

The unit under test is the whole crash-recovery story of
:mod:`repro.persist`: a **worker process** runs a live
:class:`~repro.service.gateway.MembershipGateway` under closed-loop
churn (:func:`~repro.service.loadgen.saturating_load`, the one
closed-loop generator) with periodic checkpointing, the harness SIGKILLs
it mid-load (and, per the :class:`FaultPlan`, additionally corrupts what
the crash left on disk), restores from the newest loadable checkpoint,
audits the full invariant oracle, verifies the ack journal against the
restored state, and finally *resumes* the soak on the restored network.

The honesty contract is the **ack journal**, a write-ahead log of the
checkpoint stream.  The worker records every state-changing ack in
memory tagged with the step it was healed at, and flushes the backlog
-- write + fsync -- from the gateway's ``on_before_checkpoint`` hook,
*before* the covering snapshot is written.  The journal is therefore
always durable strictly ahead of the checkpoints: when a restore lands
on step ``R``, every op with ``step <= R`` is provably in the journal
and must be reflected -- journaled joins present, journaled leaves
absent (last op per node wins).  The ordering matters: flushing *after*
the checkpoint publishes (the obvious implementation) has a real race,
where a kill between the snapshot rename and the journal flush leaves a
durable checkpoint whose last interval of ops is unjournaled, and a
node whose leave fell in that window looks like state contradicting the
log.  Journal entries *past* the restored step -- their covering
checkpoint never published, or was corrupted -- are the *bounded
in-flight loss*: at most ``checkpoint_every * max_batch`` acks ride
between two checkpoints, so a clean kill can lose at most one interval
and one corrupted checkpoint at most one more -- and the harness
asserts exactly that bound.  No silent drops: every request was either
answered and journaled, answered inside the final (bounded) interval,
or never acknowledged at all.

The plan can also inject an **overload fault** (PR 7): at
``overload_at_fraction`` of the soak a second closed-loop fleet of
``overload_clients`` piles on for the remainder, pushing offered load
past heal capacity -- optionally concurrent with the SIGKILL, or with
``kill=False`` for the saturation-without-crash scenario, whose clean
drain (plus the worker's final metrics snapshot in
``worker_final.json``) is the receipt that no client hung under
overload.

Run directly for the CI crash-recovery smoke::

    PYTHONPATH=src python -m repro.harness.faults \
        --n0 256 --duration 4 --corrupt corrupt-array --wall-budget 240

    # overload spike mid-soak under shed-oldest, no kill:
    PYTHONPATH=src python -m repro.harness.faults --no-kill \
        --n0 256 --duration 4 --overload-at 0.4 --overload-clients 512 \
        --policy shed-oldest --wall-budget 240
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import multiprocessing
import os
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError, SnapshotError
from repro.persist.snapshot import (
    MANIFEST_NAME,
    list_checkpoints,
    restore_latest,
)

JOURNAL_NAME = "journal.jsonl"
WORKER_FINAL_NAME = "worker_final.json"

#: what the plan may do to the newest checkpoint after the kill
CORRUPTIONS = ("none", "corrupt-array", "truncate-manifest", "delete-manifest")


@dataclass(frozen=True)
class FaultPlan:
    """One crash scenario: when to kill, what additional damage the
    'disk' takes, and an optional mid-soak overload spike."""

    #: SIGKILL the worker at this fraction of the soak duration (once at
    #: least one checkpoint exists -- killing before any durability
    #: exists would test nothing)
    kill_at_fraction: float = 0.5
    #: post-crash damage to the *newest* checkpoint (see ``CORRUPTIONS``)
    corruption: str = "none"
    #: whether to kill at all; ``False`` runs the soak to a clean drain
    #: (the overload-only scenario: saturation without a crash)
    kill: bool = True
    #: at this fraction of the duration, a second closed-loop fleet of
    #: ``overload_clients`` piles on for the remainder -- the
    #: offered-load spike.  ``None`` disables the spike.
    overload_at_fraction: float | None = None
    #: size of the spike fleet
    overload_clients: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.kill_at_fraction < 1.0:
            raise ValueError(
                f"kill_at_fraction must be in (0, 1), got {self.kill_at_fraction}"
            )
        if self.corruption not in CORRUPTIONS:
            raise ValueError(
                f"corruption must be one of {CORRUPTIONS}, got {self.corruption!r}"
            )
        if self.overload_at_fraction is not None and not (
            0.0 < self.overload_at_fraction < 1.0
        ):
            raise ValueError(
                "overload_at_fraction must be in (0, 1), got "
                f"{self.overload_at_fraction}"
            )
        if self.overload_clients < 1:
            raise ValueError(
                f"overload_clients must be >= 1, got {self.overload_clients}"
            )


@dataclass
class RecoveryReport:
    """Everything the recovery proved (or failed to)."""

    plan: dict
    killed: bool = False
    checkpoints_on_disk: int = 0
    corrupted: str | None = None
    restored_step: int = -1
    restored_path: str = ""
    skipped_corrupt: int = 0
    invariants_ok: bool = False
    journal_total: int = 0
    journal_checked_nodes: int = 0
    journal_lost: int = 0
    journal_lost_bound: int = 0
    journal_mismatches: list = field(default_factory=list)
    resumed_events: int = 0
    resumed_ok_events: int = 0
    final_step: int = -1
    resumed_invariants_ok: bool = False
    #: the worker's own final metrics snapshot + drain summary, present
    #: only when the worker drained cleanly (``kill=False`` plans) --
    #: the overload scenario's receipt that every future was answered
    overload: dict | None = None
    wall_s: float = 0.0
    error: str | None = None

    @property
    def passed(self) -> bool:
        kill_expected = self.plan.get("kill", True)
        return (
            (self.killed or not kill_expected)
            and self.error is None
            and self.invariants_ok
            and not self.journal_mismatches
            and self.journal_lost <= self.journal_lost_bound
            and self.resumed_invariants_ok
            and self.resumed_ok_events > 0
        )


# ----------------------------------------------------------------------
# the worker process (the thing that gets killed)
# ----------------------------------------------------------------------
def _soak_worker(cfg: dict) -> None:
    """Child-process entry: bootstrap a network, serve closed-loop churn
    with periodic checkpoints, journal every state-changing ack under
    its covering checkpoint.  The parent SIGKILLs this process; nothing
    here cleans up, by design."""
    from repro.core.config import DexConfig
    from repro.core.dex import DexNetwork
    from repro.service import MembershipGateway, saturating_load

    root = Path(cfg["root"])
    net = DexNetwork.bootstrap(
        cfg["n0"],
        DexConfig(seed=cfg["seed"]),
        seed=cfg["seed"],
    )
    pending: list[dict] = []

    def record_ack(ack) -> None:
        # Synchronous tap inside the flush, after the heal: the op is in
        # the in-memory state at `net.step_count` the moment we see it.
        if ack.ok:
            pending.append(
                {"step": net.step_count, "kind": ack.kind, "node": ack.node}
            )

    def flush_journal(_step: int) -> None:
        # Fires inside checkpoint_now *before* the snapshot is written:
        # the journal is durable strictly ahead of the checkpoint, so no
        # checkpoint can ever become durable while ops it covers are
        # missing from the journal.  (The reverse ordering is a real
        # race this harness caught: a kill between the snapshot rename
        # and a trailing journal flush leaves a durable checkpoint whose
        # last interval of ops -- leaves especially -- is unjournaled,
        # which the verifier reads as state contradicting the log.)
        # Entries whose covering checkpoint then never publishes are the
        # bounded in-flight loss the verifier counts.
        if not pending:
            return
        with open(root / JOURNAL_NAME, "a", encoding="utf-8") as handle:
            for entry in pending:
                handle.write(json.dumps(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        pending.clear()

    async def run() -> None:
        gateway = MembershipGateway(
            net,
            max_batch=cfg["max_batch"],
            queue_limit=cfg["max_batch"] * 8,
            policy=cfg.get("policy", "fixed"),
            deadline_ms=cfg.get("deadline_ms"),
            seed=cfg["seed"],
            checkpoint_dir=root,
            checkpoint_every=cfg["checkpoint_every"],
            checkpoint_keep=cfg["checkpoint_keep"],
            on_before_checkpoint=flush_journal,
            on_ack=record_ack,
        )
        await gateway.start()
        steady = saturating_load(
            gateway,
            duration_s=cfg["duration_s"],
            clients=cfg["clients"],
            join_fraction=cfg["join_fraction"],
            seed=cfg["seed"] + 1,
        )
        overload_at = cfg.get("overload_at_fraction")
        if overload_at is None:
            await steady
        else:

            async def spike() -> None:
                # The offered-load fault: after the fuse, a second fleet
                # piles on for the remainder of the soak, pushing offered
                # load past heal capacity while the steady fleet keeps
                # running (and, per the plan, a SIGKILL may land mid-spike).
                await asyncio.sleep(overload_at * cfg["duration_s"])
                await saturating_load(
                    gateway,
                    duration_s=(1.0 - overload_at) * cfg["duration_s"],
                    clients=cfg.get("overload_clients", 256),
                    join_fraction=cfg["join_fraction"],
                    seed=cfg["seed"] + 77,
                )

            await asyncio.gather(steady, spike())
        summary = await gateway.drain()
        # Only reached on a clean (un-killed) run: the worker's receipt
        # that the soak -- overload spike included -- drained with every
        # future answered.
        (root / WORKER_FINAL_NAME).write_text(
            json.dumps({"snapshot": gateway.metrics.snapshot(), "drain": summary})
        )

    asyncio.run(run())


# ----------------------------------------------------------------------
# corruption injection
# ----------------------------------------------------------------------
def _apply_corruption(root: Path, mode: str) -> str | None:
    """Damage the newest checkpoint per the plan; returns its name."""
    if mode == "none":
        return None
    checkpoints = list_checkpoints(root)
    if not checkpoints:
        return None
    target = checkpoints[-1]
    if mode == "corrupt-array":
        victim = target / "nodes.npy"
        payload = bytearray(victim.read_bytes())
        position = len(payload) // 2
        payload[position] ^= 0xFF
        victim.write_bytes(bytes(payload))
    elif mode == "truncate-manifest":
        manifest = target / MANIFEST_NAME
        payload = manifest.read_bytes()
        manifest.write_bytes(payload[: len(payload) // 2])
    elif mode == "delete-manifest":
        (target / MANIFEST_NAME).unlink()
    else:  # pragma: no cover - guarded by FaultPlan
        raise ValueError(f"unknown corruption {mode!r}")
    return target.name


# ----------------------------------------------------------------------
# journal verification
# ----------------------------------------------------------------------
def _verify_journal(
    root: Path, net, restored_step: int
) -> tuple[int, int, int, list]:
    """Check every journaled ack against the restored network.  Returns
    ``(total entries, nodes checked, lost entries, mismatches)``.  The
    journal is written ahead of each checkpoint, so ops with
    ``step <= restored_step`` are *complete* and must all be reflected;
    ops journaled past the restored step (their covering checkpoint
    never published before the kill) are the bounded in-flight loss.  A
    torn final line (the kill landed mid-write; its checkpoint cannot
    have published) counts as lost, not as corruption."""
    journal = root / JOURNAL_NAME
    if not journal.exists():
        return 0, 0, 0, []
    total = lost = 0
    last_op: dict[int, str] = {}
    with open(journal, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                total += 1
                lost += 1
                continue
            total += 1
            if entry["step"] > restored_step:
                lost += 1
                continue
            last_op[entry["node"]] = entry["kind"]
    mismatches = []
    for node, kind in last_op.items():
        present = net.graph.has_node(node)
        if kind == "join" and not present:
            mismatches.append(f"journaled join of {node} missing after restore")
        elif kind == "leave" and present:
            mismatches.append(f"journaled leave of {node} still present after restore")
    return total, len(last_op), lost, mismatches


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
def run_fault_scenario(
    *,
    n0: int = 256,
    duration_s: float = 4.0,
    plan: FaultPlan | None = None,
    checkpoint_every: int = 4,
    checkpoint_keep: int = 4,
    max_batch: int = 32,
    clients: int = 64,
    join_fraction: float = 0.55,
    resume_s: float | None = None,
    policy: str = "fixed",
    deadline_ms: float | None = None,
    seed: int = 11,
    root: str | Path | None = None,
) -> RecoveryReport:
    """One full kill-and-recover cycle; see the module docstring.  The
    returned report's :attr:`~RecoveryReport.passed` is the single
    green/red bit the CI smoke asserts."""
    plan = plan or FaultPlan()
    started = time.perf_counter()
    owns_root = root is None
    if owns_root:
        workdir = tempfile.TemporaryDirectory(prefix="dex-faults-")
        root = Path(workdir.name)
    else:
        workdir = None
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
    report = RecoveryReport(plan=dataclasses.asdict(plan))
    try:
        cfg = {
            "root": str(root),
            "n0": n0,
            "duration_s": duration_s,
            "checkpoint_every": checkpoint_every,
            "checkpoint_keep": checkpoint_keep,
            "max_batch": max_batch,
            "clients": clients,
            "join_fraction": join_fraction,
            "policy": policy,
            "deadline_ms": deadline_ms,
            "overload_at_fraction": plan.overload_at_fraction,
            "overload_clients": plan.overload_clients,
            "seed": seed,
        }
        report.killed = _run_and_kill(cfg, plan, duration_s)
        report.checkpoints_on_disk = len(list_checkpoints(root))
        report.corrupted = _apply_corruption(root, plan.corruption)
        worker_final = root / WORKER_FINAL_NAME
        if worker_final.exists():
            report.overload = json.loads(worker_final.read_text())

        net, path, skipped = restore_latest(root, verify=False)
        report.restored_step = net.step_count
        report.restored_path = str(path)
        report.skipped_corrupt = len(skipped)
        try:
            net.check_invariants()
            net.graph.verify_caches()
            report.invariants_ok = True
        except ReproError as exc:
            report.error = f"post-restore audit failed: {exc}"
            return report

        (
            report.journal_total,
            report.journal_checked_nodes,
            report.journal_lost,
            report.journal_mismatches,
        ) = _verify_journal(root, net, report.restored_step)
        # One interval of journaled-but-never-checkpointed ops can be
        # lost on any kill (the journal runs ahead of durability);
        # corrupting the newest checkpoint forfeits one interval more.
        lost_intervals = 1 if plan.corruption == "none" else 2
        report.journal_lost_bound = lost_intervals * checkpoint_every * max_batch

        report.resumed_events, report.resumed_ok_events = _resume_soak(
            net,
            root,
            duration_s=resume_s if resume_s is not None else duration_s / 4,
            checkpoint_every=checkpoint_every,
            checkpoint_keep=checkpoint_keep,
            max_batch=max_batch,
            clients=clients,
            join_fraction=join_fraction,
            seed=seed + 1000,
        )
        report.final_step = net.step_count
        try:
            net.check_invariants()
            net.graph.verify_caches()
            report.resumed_invariants_ok = True
        except ReproError as exc:
            report.error = f"post-resume audit failed: {exc}"
    except (SnapshotError, OSError, RuntimeError) as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    finally:
        report.wall_s = round(time.perf_counter() - started, 3)
        if workdir is not None:
            workdir.cleanup()
    return report


def _run_and_kill(cfg: dict, plan: FaultPlan, duration_s: float) -> bool:
    """Start the soak worker and SIGKILL it at the planned fraction of
    the duration -- but never before its first checkpoint is durable.
    Returns whether the kill actually happened (a worker that finished
    early proves nothing).  A ``kill=False`` plan just waits for the
    worker to drain cleanly (the overload-without-crash scenario) and
    returns ``False``."""
    ctx = multiprocessing.get_context("spawn")
    process = ctx.Process(target=_soak_worker, args=(cfg,), daemon=True)
    process.start()
    root = Path(cfg["root"])
    if not plan.kill:
        try:
            # Generous ceiling: a saturated drain can take a while, but a
            # hung future would hang forever -- the join timeout is the
            # harness's no-hung-clients assertion.
            process.join(timeout=duration_s + 120.0)
            if process.is_alive():
                raise RuntimeError(
                    "soak worker failed to drain within the "
                    f"{duration_s + 120.0:.0f}s ceiling (hung future?)"
                )
            if process.exitcode != 0:
                raise RuntimeError(
                    f"soak worker exited with code {process.exitcode}"
                )
            return False
        finally:
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=10.0)
    kill_at = plan.kill_at_fraction * duration_s
    # Generous ceiling: bootstrap + first checkpoint must land within it.
    deadline = time.perf_counter() + duration_s + 60.0
    t0 = time.perf_counter()
    try:
        while True:
            if not process.is_alive():
                return False
            elapsed = time.perf_counter() - t0
            if elapsed >= kill_at and list_checkpoints(root):
                break
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    "soak worker produced no checkpoint within the "
                    f"{duration_s + 60.0:.0f}s ceiling"
                )
            time.sleep(0.02)
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=30.0)
        return True
    finally:
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(timeout=10.0)


def _resume_soak(
    net,
    root: Path,
    *,
    duration_s: float,
    checkpoint_every: int,
    checkpoint_keep: int,
    max_batch: int,
    clients: int,
    join_fraction: float,
    seed: int,
) -> tuple[int, int]:
    """Continue serving on the restored network (in-process), with
    checkpointing re-enabled into the same directory, and drain."""
    from repro.service import MembershipGateway, saturating_load

    async def run() -> tuple[int, int]:
        gateway = MembershipGateway(
            net,
            max_batch=max_batch,
            queue_limit=max_batch * 8,
            seed=seed,
            checkpoint_dir=root,
            checkpoint_every=checkpoint_every,
            checkpoint_keep=checkpoint_keep,
        )
        await gateway.start()
        stats = await saturating_load(
            gateway,
            duration_s=duration_s,
            clients=clients,
            join_fraction=join_fraction,
            seed=seed,
        )
        await gateway.drain()
        return stats.completed, stats.ok

    return asyncio.run(run())


# ----------------------------------------------------------------------
# CLI (the CI crash-recovery smoke drives this)
# ----------------------------------------------------------------------
def run_shard_fault_scenario(
    *,
    n0: int = 256,
    shards: int = 2,
    duration_s: float = 4.0,
    kill_at_fraction: float = 0.4,
    kill_shard: int | None = None,
    checkpoint_every: int = 4,
    max_batch: int = 32,
    clients: int = 64,
    join_fraction: float = 0.55,
    seed: int = 11,
    root: str | Path | None = None,
) -> dict:
    """Kill one shard of a live cluster mid-load and prove the fault
    stays contained:

    * the surviving shards keep answering (events continue after the
      kill),
    * requests routed at the dead region are *answered* with rejections
      -- zero hung futures, ``completed == offered``,
    * the dead shard restarts from its own checkpoint directory and
      rejoins the routing rotation,
    * the final cluster audit (per-shard I1-I8 + cross-shard ownership)
      passes.

    Returns a flat report dict with a single ``passed`` bit for CI."""
    import asyncio

    from repro.service.loadgen import saturating_load
    from repro.service.router import start_cluster

    started = time.perf_counter()
    owns_root = root is None
    if owns_root:
        workdir = tempfile.TemporaryDirectory(prefix="dex-shard-faults-")
        root = Path(workdir.name)
    else:
        workdir = None
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
    victim = kill_shard if kill_shard is not None else shards - 1
    report: dict = {
        "shards": shards,
        "killed_shard": victim,
        "passed": False,
        "error": None,
    }

    async def drive() -> None:
        router = await start_cluster(
            n0,
            shards,
            seed=seed,
            max_batch=max_batch,
            window_ms=1.0,
            checkpoint_root=root,
            checkpoint_every=checkpoint_every,
        )
        try:
            before = await saturating_load(
                router,
                duration_s=duration_s * kill_at_fraction,
                clients=clients,
                join_fraction=join_fraction,
                seed=seed + 1,
            )
            report["events_before_kill"] = before.completed
            report["complete_before_kill"] = before.completed == before.offered
            # Wait for the victim's first durable checkpoint: a restore
            # needs something on disk, exactly like the single-gateway
            # kill path.
            victim_dir = root / f"shard-{victim}"
            for _ in range(200):
                if list_checkpoints(victim_dir):
                    break
                await asyncio.sleep(0.02)
            report["victim_checkpoints"] = len(list_checkpoints(victim_dir))
            router.handles[victim].kill()
            during = await saturating_load(
                router,
                duration_s=duration_s * (1.0 - kill_at_fraction) / 2,
                clients=clients,
                join_fraction=join_fraction,
                seed=seed + 2,
            )
            report["events_during_outage"] = during.completed
            report["complete_during_outage"] = during.completed == during.offered
            report["survivors_answered"] = during.ok > 0
            report["dead_shard_answered"] = during.rejected > 0
            report["shard_marked_down"] = not router.shard_is_live(victim)
            ready = await router.restart_shard(victim)
            report["restored"] = bool(ready.get("restored"))
            report["restored_size"] = ready.get("size")
            after = await saturating_load(
                router,
                duration_s=duration_s * (1.0 - kill_at_fraction) / 2,
                clients=clients,
                join_fraction=join_fraction,
                seed=seed + 3,
            )
            report["events_after_restore"] = after.completed
            report["complete_after_restore"] = after.completed == after.offered
            report["rejoined_rotation"] = router.shard_is_live(victim)
            audit = await router.cluster_audit()
            report["audit_ok"] = audit["ok"]
            report["audit_errors"] = audit["errors"][:8]
            report["total_nodes"] = audit["total_nodes"]
            report["handoffs"] = router.handoff_stats()
        finally:
            await router.drain()

    try:
        asyncio.run(drive())
        report["passed"] = all(
            report.get(key)
            for key in (
                "complete_before_kill",
                "complete_during_outage",
                "complete_after_restore",
                "survivors_answered",
                "dead_shard_answered",
                "shard_marked_down",
                "restored",
                "rejoined_rotation",
                "audit_ok",
            )
        )
    except Exception as exc:  # noqa: BLE001 -- the report is the verdict
        report["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        report["wall_s"] = round(time.perf_counter() - started, 3)
        if workdir is not None:
            workdir.cleanup()
    return report


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.faults",
        description="Kill a checkpointing gateway soak mid-load, restore "
        "from the surviving checkpoints, audit, and resume.",
    )
    parser.add_argument("--n0", type=int, default=256)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--kill-at", type=float, default=0.5,
                        help="kill fraction of --duration (in (0, 1))")
    parser.add_argument("--no-kill", action="store_true",
                        help="run to a clean drain instead of killing "
                        "(the overload-without-crash scenario)")
    parser.add_argument("--corrupt", choices=CORRUPTIONS, default="none",
                        help="additional damage to the newest checkpoint")
    parser.add_argument("--overload-at", type=float, default=None,
                        help="start an offered-load spike at this fraction "
                        "of --duration (in (0, 1))")
    parser.add_argument("--overload-clients", type=int, default=256,
                        help="size of the spike fleet")
    parser.add_argument("--policy", default="fixed",
                        help="gateway admission policy for the soak worker")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline for the soak worker")
    parser.add_argument("--checkpoint-every", type=int, default=4,
                        help="flushes between checkpoints")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--resume", type=float, default=None,
                        help="resumed-soak seconds (default duration/4)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--wall-budget", type=float, default=None,
                        help="fail if the whole cycle exceeds this many seconds")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    parser.add_argument("--shard-kill", action="store_true",
                        help="run the sharded-cluster scenario instead: kill "
                        "one shard of a live cluster mid-load, prove the "
                        "others keep answering, restore it from checkpoint")
    parser.add_argument("--shards", type=int, default=2,
                        help="cluster width for --shard-kill")
    parser.add_argument("--kill-shard", type=int, default=None,
                        help="which shard --shard-kill kills "
                        "(default: the last)")
    args = parser.parse_args(argv)

    if args.shard_kill:
        report = run_shard_fault_scenario(
            n0=args.n0,
            shards=args.shards,
            duration_s=args.duration,
            kill_at_fraction=args.kill_at,
            kill_shard=args.kill_shard,
            checkpoint_every=args.checkpoint_every,
            max_batch=args.max_batch,
            clients=args.clients,
            seed=args.seed,
        )
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(
                f"killed shard {report['killed_shard']}/{report['shards']}: "
                f"{report.get('events_before_kill', 0)} events before, "
                f"{report.get('events_during_outage', 0)} during outage "
                f"(survivors_answered={report.get('survivors_answered')}, "
                f"dead_shard_answered={report.get('dead_shard_answered')})"
            )
            print(
                f"restored={report.get('restored')} "
                f"size={report.get('restored_size')} "
                f"events after {report.get('events_after_restore', 0)}, "
                f"audit ok={report.get('audit_ok')}, "
                f"wall {report['wall_s']}s"
            )
            if report["error"]:
                print(f"error: {report['error']}", file=sys.stderr)
        if not report["passed"]:
            print("SHARD FAULT SCENARIO FAILED", file=sys.stderr)
            return 1
        if args.wall_budget is not None and report["wall_s"] > args.wall_budget:
            print(
                f"wall clock {report['wall_s']}s exceeded budget "
                f"{args.wall_budget}s",
                file=sys.stderr,
            )
            return 1
        print("shard fault scenario passed")
        return 0

    plan = FaultPlan(
        kill_at_fraction=args.kill_at,
        corruption=args.corrupt,
        kill=not args.no_kill,
        overload_at_fraction=args.overload_at,
        overload_clients=args.overload_clients,
    )
    report = run_fault_scenario(
        n0=args.n0,
        duration_s=args.duration,
        plan=plan,
        checkpoint_every=args.checkpoint_every,
        max_batch=args.max_batch,
        clients=args.clients,
        resume_s=args.resume,
        policy=args.policy,
        deadline_ms=args.deadline_ms,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2))
    else:
        print(
            f"killed={report.killed} corrupted={report.corrupted} "
            f"restored step {report.restored_step} "
            f"(skipped {report.skipped_corrupt} corrupt) "
            f"invariants_ok={report.invariants_ok}"
        )
        print(
            f"journal: {report.journal_total} entries, "
            f"{report.journal_checked_nodes} nodes checked, "
            f"{report.journal_lost} lost "
            f"(bound {report.journal_lost_bound}), "
            f"{len(report.journal_mismatches)} mismatches"
        )
        print(
            f"resumed: {report.resumed_ok_events}/{report.resumed_events} "
            f"acks ok, final step {report.final_step}, "
            f"audit ok={report.resumed_invariants_ok}, "
            f"wall {report.wall_s}s"
        )
        if report.error:
            print(f"error: {report.error}", file=sys.stderr)
    if not report.passed:
        print("FAULT SCENARIO FAILED", file=sys.stderr)
        return 1
    if args.wall_budget is not None and report.wall_s > args.wall_budget:
        print(
            f"wall clock {report.wall_s}s exceeded budget {args.wall_budget}s",
            file=sys.stderr,
        )
        return 1
    print("fault scenario passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
