"""The benchmark's own load generator, set-up and correctness gate.

One driver process, one thread: clients are in-process coroutines.  The
program is called only through its public surface (``DexConfig``,
``DexNetwork``, ``MembershipGateway``, ``start_cluster`` ->
``ShardRouter``); nothing is imported from ``repro.harness`` or
``repro.service.loadgen``, so a performance change cannot edit the
traffic it is measured on.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import resource
import time
from array import array
from dataclasses import dataclass
from typing import Any, Iterable

from repro import DexConfig, DexNetwork
from repro.service import MembershipGateway, start_cluster

from bench.trace import ShimTracer, Span
from bench.workloads import JOIN, Schedule, Workload, make_schedule

#: what ``repro.cli serve`` and ``service.shard.build_shard`` deploy
GATEWAY_OPTIONS = dict(
    max_batch=128, batch_window_ms=2.0, queue_limit=8192, policy="fixed"
)
CLUSTER_SHARDS = 2
SPECTRAL_GAP_FLOOR = 0.01
#: model refusals are inherent (a node whose only neighbour leaves):
#: ~0.3 % of leaves at n=4096, ~2 % at toy sizes; far above that, the
#: program is refusing work
REFUSED_SHARE_CEILING = 0.05
#: a request the program never answers must fail the command, not hang it
PHASE_TIMEOUT_S = 150.0

clock = time.perf_counter


class LiveModel:
    """The driver's model of acknowledged-live ids.  A leave's victim is
    the seeded draw's index into it and is taken out while the request
    is in flight, so no two in-flight leaves name the same node."""

    def __init__(self, ids: Iterable[int]) -> None:
        self.ids = list(ids)

    def take(self, pick: float) -> int:
        ids = self.ids
        i = int(pick * len(ids))
        victim = ids[i]
        ids[i] = ids[-1]
        ids.pop()
        return victim

    def add(self, node: int) -> None:
        self.ids.append(node)


class Phase:
    """What the driver saw during one measured phase."""

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        zeros = bytes(8 * len(schedule))
        #: instant each operation was submitted (open loop: was *due*)
        self.submit_t = array("d", zeros)
        #: open loop only: instant each operation was actually sent
        self.send_t = array("d")
        self.ack_t = array("d", zeros)
        #: times each operation was answered (the gate wants exactly 1)
        self.answered = bytearray(len(schedule))
        #: operations the service failed: exceptions, and requests
        #: turned away unhealed (backpressure, shed, deadline, closed:
        #: acks that no flush carried, ``batch_size == 0``)
        self.failed = 0
        #: leaves/joins the engine's batch validation refused as illegal
        #: under the paper's adversary model (e.g. a leave that would
        #: disconnect the overlay): answered correctly, not healed
        self.refused = 0
        self.reasons: dict[str, int] = {}
        self.start = 0.0
        self.end = 0.0

    @property
    def ops(self) -> int:
        return len(self.schedule)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def note(self, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


@dataclass
class Rep:
    """One (set-up, measured phase, gate) repetition."""

    workload: Workload
    setup_s: float
    phase: Phase
    #: StepReports appended during the measured phase (empty: cluster)
    reports: list
    #: why the correctness gate failed (empty = valid)
    gate_errors: list[str]
    final: dict[str, float]
    #: cluster only: CPU seconds of the driver (router + generator)
    #: during the phase, and of the reaped workers over their whole life
    cpu_self_s: float = 0.0
    cpu_children_s: float = 0.0
    #: boundary spans of the measured phase (traced reps only)
    spans: list[Span] | None = None
    #: the healed network, for callers that inspect it (None: cluster)
    net: DexNetwork | None = None


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
async def _request(
    target: Any, kind: int, pick: float, model: LiveModel, phase: Phase, i: int
) -> None:
    """Send operation ``i`` and record its ack; the caller has stamped
    ``phase.submit_t[i]``."""
    try:
        if kind == JOIN:
            ack = await target.join()
        else:
            victim = model.take(pick)
            ack = await target.leave(victim)
    except Exception as exc:  # noqa: BLE001 -- any error is a failed operation
        phase.ack_t[i] = clock()
        phase.answered[i] += 1
        phase.failed += 1
        phase.note(f"{type(exc).__name__}: {exc}")
        return
    phase.ack_t[i] = clock()
    phase.answered[i] += 1
    if ack.ok:
        if kind == JOIN:
            model.add(ack.node)
    else:
        if kind != JOIN:
            model.add(victim)  # refused: still live
        if ack.batch_size:
            phase.refused += 1
        else:
            phase.failed += 1
        phase.note(ack.reason or "unknown")


async def closed_loop(
    target: Any, schedule: Schedule, model: LiveModel, clients: int
) -> Phase:
    """``clients`` callers, each keeping one request in flight; the
    operations of the schedule are handed out in order."""
    phase = Phase(schedule)
    kinds, picks = schedule.kinds, schedule.picks
    todo = iter(range(len(schedule)))

    async def client() -> None:
        for i in todo:
            phase.submit_t[i] = clock()
            await _request(target, kinds[i], picks[i], model, phase, i)

    phase.start = clock()
    await asyncio.wait_for(
        asyncio.gather(*(client() for _ in range(clients))), PHASE_TIMEOUT_S
    )
    phase.end = clock()
    return phase


async def open_loop(target: Any, schedule: Schedule, model: LiveModel) -> Phase:
    """Every operation is sent at its due instant whether or not earlier
    ones were answered, and timed from when it was *due*."""
    phase = Phase(schedule)
    phase.send_t = array("d", bytes(8 * len(schedule)))
    kinds, picks, due_s = schedule.kinds, schedule.picks, schedule.due_s
    tasks: list[asyncio.Task] = []

    async def one(i: int) -> None:
        phase.send_t[i] = clock()
        await _request(target, kinds[i], picks[i], model, phase, i)

    origin = clock()
    phase.start = origin + due_s[0]
    i = 0
    while i < len(schedule):
        ahead = origin + due_s[i] - clock()
        # behind the arrival clock: still yield, so acks and the batcher run
        await asyncio.sleep(max(ahead, 0.0))
        now = clock() - origin
        while i < len(schedule) and due_s[i] <= now:
            phase.submit_t[i] = origin + due_s[i]
            tasks.append(asyncio.ensure_future(one(i)))
            i += 1
    await asyncio.wait_for(asyncio.gather(*tasks), PHASE_TIMEOUT_S)
    phase.end = max(phase.ack_t)
    return phase


def engine_steps(net: DexNetwork, schedule: Schedule, model: LiveModel) -> Phase:
    """Single ``insert()`` / ``delete()`` steps: the paper's model."""
    phase = Phase(schedule)
    submit_t, ack_t = phase.submit_t, phase.ack_t
    picks = schedule.picks
    phase.start = clock()
    for i, kind in enumerate(schedule.kinds):
        if kind == JOIN:
            submit_t[i] = clock()
            report = net.insert()
            ack_t[i] = clock()
            model.add(report.node)
        else:
            victim = model.take(picks[i])
            submit_t[i] = clock()
            net.delete(victim)
            ack_t[i] = clock()
        phase.answered[i] += 1
    phase.end = clock()
    return phase


# ----------------------------------------------------------------------
# correctness gate (outside the timed phase)
# ----------------------------------------------------------------------
def _gate_phase(phase: Phase, live: set[int], model: LiveModel) -> list[str]:
    """The checks every repetition gets: each operation answered
    exactly once, and the program's membership equal to what the acks
    told the driver."""
    errors = []
    wrong = sum(1 for count in phase.answered if count != 1)
    if wrong:
        errors.append(f"{wrong} operations not answered exactly once")
    if phase.refused > REFUSED_SHARE_CEILING * phase.ops:
        errors.append(f"{phase.refused} of {phase.ops} operations refused")
    if set(model.ids) != live or len(model.ids) != len(live):
        errors.append("driver's model of live ids differs from the program's")
    return errors


def _gate_network(net: DexNetwork, deep: bool, errors: list[str]) -> dict:
    """The structural checks.  ``check_invariants`` and the spectral gap
    are O(n) Python (5 s at n=65536), so a run pays for them on its last
    repetition only."""
    max_degree = net.max_degree()
    bound = 3 * net.config.stagger_max_load
    if max_degree > bound:
        errors.append(f"max_degree {max_degree} above the config bound {bound}")
    final = {"core.final_n": net.size, "core.final_p": net.p,
             "core.max_degree_final": max_degree, "analysis.spectral_gap_final": 0.0}  # fmt: skip
    if deep:
        try:
            net.check_invariants()
        except Exception as exc:  # noqa: BLE001 -- any violation fails the gate
            errors.append(f"check_invariants: {type(exc).__name__}: {exc}")
        gap = final["analysis.spectral_gap_final"] = net.spectral_gap()
        if not gap > SPECTRAL_GAP_FLOOR:
            errors.append(f"spectral gap {gap} not above {SPECTRAL_GAP_FLOOR}")
    return final


# ----------------------------------------------------------------------
# one repetition per mode
# ----------------------------------------------------------------------
def _program_seed(seed: int, rep: int) -> int:
    """The program's own RNG seed: distinct per repetition, so a run's
    median also averages over the program's random choices (a join-only
    schedule is the same bytes for every seed)."""
    return seed * 1000 + rep


def _children_cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def _gated(
    workload: Workload,
    setup_s: float,
    phase: Phase,
    net: DexNetwork,
    first_report: int,
    model: LiveModel,
    tracer: ShimTracer | None,
    deep: bool,
) -> Rep:
    """Gate an in-process repetition and wrap it up."""
    spans = tracer.spans if tracer is not None else None
    errors = _gate_phase(phase, set(net.nodes()), model)
    final = _gate_network(net, deep, errors)
    return Rep(
        workload, setup_s, phase, net.reports[first_report:], errors, final,
        spans=spans, net=net,
    )  # fmt: skip


async def _gateway_rep(
    workload: Workload, seed: int, rep: int, tracer: ShimTracer | None, deep: bool
) -> Rep:
    t0 = clock()
    config = DexConfig(
        seed=_program_seed(seed, rep), type2_mode="simplified", validate_every_step=False
    )
    net = DexNetwork.bootstrap(workload.n0, config, seed=config.seed)
    gc.collect()
    gc.freeze()
    model = LiveModel(net.nodes())
    warmup = make_schedule(workload, seed, "warmup", rep)
    schedule = make_schedule(workload, seed, "measure", rep)
    async with MembershipGateway(net, **GATEWAY_OPTIONS) as gateway:
        await closed_loop(gateway, warmup, model, workload.clients)
        first_report = len(net.reports)
        if tracer is not None:
            tracer.reset()
        setup_s = clock() - t0
        if workload.mode == "open":
            phase = await open_loop(gateway, schedule, model)
        else:
            phase = await closed_loop(gateway, schedule, model, workload.clients)
    return _gated(workload, setup_s, phase, net, first_report, model, tracer, deep)


async def _cluster_rep(
    workload: Workload, seed: int, rep: int, tracer: ShimTracer | None, deep: bool
) -> Rep:
    t0 = clock()
    cpu_children0 = _children_cpu_s()
    router = await start_cluster(
        workload.n0,
        CLUSTER_SHARDS,
        seed=_program_seed(seed, rep),
        max_batch=GATEWAY_OPTIONS["max_batch"],
        window_ms=GATEWAY_OPTIONS["batch_window_ms"],
    )
    try:
        gc.collect()
        gc.freeze()
        model = LiveModel(router.net.nodes())
        warmup = make_schedule(workload, seed, "warmup", rep)
        schedule = make_schedule(workload, seed, "measure", rep)
        await closed_loop(router, warmup, model, workload.clients)
        cpu_self0 = time.process_time()
        if tracer is not None:
            tracer.reset()
        setup_s = clock() - t0
        phase = await closed_loop(router, schedule, model, workload.clients)
        cpu_self_s = time.process_time() - cpu_self0
        spans = tracer.spans if tracer is not None else None
        # the workers run the structural checks (I1-I8 per shard), so
        # the audit is the deep gate and every repetition gets it
        audit = await router.cluster_audit()
        live = {u for shard in audit["shards"] for u in shard["nodes"]}
        errors = _gate_phase(phase, live, model)
        if not audit["ok"]:
            errors.append(f"cluster_audit: {audit['errors'][:3]}")
    finally:
        await router.drain()
    # RUSAGE_CHILDREN only moves when a child is reaped (drain() does
    # that), so the workers' figure covers their bootstrap and warm-up too
    cpu_children_s = _children_cpu_s() - cpu_children0
    final = {"core.final_n": audit["total_nodes"], "core.final_p": 0,
             "core.max_degree_final": 0, "analysis.spectral_gap_final": 0.0}  # fmt: skip
    return Rep(
        workload, setup_s, phase, [], errors, final, cpu_self_s, cpu_children_s, spans
    )


def _engine_rep(
    workload: Workload, seed: int, rep: int, tracer: ShimTracer | None, deep: bool
) -> Rep:
    t0 = clock()
    config = DexConfig(seed=_program_seed(seed, rep))
    net = DexNetwork.bootstrap(workload.n0, config, seed=config.seed)
    gc.collect()
    gc.freeze()
    model = LiveModel(net.nodes())
    engine_steps(net, make_schedule(workload, seed, "warmup", rep), model)
    schedule = make_schedule(workload, seed, "measure", rep)
    first_report = len(net.reports)
    if tracer is not None:
        tracer.reset()
    setup_s = clock() - t0
    phase = engine_steps(net, schedule, model)
    return _gated(workload, setup_s, phase, net, first_report, model, tracer, deep)


def run_rep(
    workload: Workload,
    seed: int,
    rep: int = 0,
    tracer: ShimTracer | None = None,
    deep_gate: bool = True,
) -> Rep:
    """One repetition of ``workload``; with ``tracer`` (already
    installed) the measured phase's boundary spans come back too."""
    try:
        if workload.mode == "engine":
            return _engine_rep(workload, seed, rep, tracer, deep_gate)
        runner = _cluster_rep if workload.mode == "cluster" else _gateway_rep
        return asyncio.run(runner(workload, seed, rep, tracer, deep_gate))
    finally:
        # no path out of a repetition leaves a worker process running:
        # start_cluster() can fail half-way, and drain() gives a worker
        # 10 s to exit and then moves on
        for worker in multiprocessing.active_children():
            worker.kill()
            worker.join()
        # the next repetition builds its own network: let this one go
        gc.unfreeze()
        gc.collect()


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` of the driver, plus that of the largest reaped
    child for the cluster workload (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0
