"""The benchmark's workloads and its seeded schedule generator.

A workload is *fixed work*: the number of requests (or engine steps) of
one measured phase is a constant of the workload, never a function of
how fast the program answered.  Everything the program is fed -- the
join/leave kind of every operation, the uniform draw that selects each
leave's victim from the driver's model of live ids, the Poisson due
instants of the open loop -- is generated here from ``--seed`` before
any clock starts.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, replace

#: ``--seconds`` value at which ``Workload.ops`` applies unscaled
#: (``run_seconds`` in BENCHMARK.json)
NOMINAL_SECONDS = 10

JOIN = 1
LEAVE = 0


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    #: "closed" / "open" drive a MembershipGateway, "cluster" a process
    #: ShardRouter (closed loop), "engine" calls DexNetwork directly
    mode: str
    n0: int
    #: operations of one measured phase at ``NOMINAL_SECONDS``
    ops: int
    #: share of joins in each equal-length segment of the phase; the
    #: counts are exact and only their order is drawn from the seed
    join_share: tuple[float, ...] = (0.5,)
    #: closed loop: callers that each keep one request in flight
    clients: int = 256
    #: open loop: Poisson arrival rate
    rate_hz: float = 0.0
    #: 50/50 operations run before the clock starts (billed to setup_s)
    warmup: int = 2048
    #: independent (set-up, measured phase, gate) repetitions in one run;
    #: the run reports the median of each metric over them
    reps: int = 3

    def scaled(self, seconds: float) -> "Workload":
        """The workload sized for a ``--seconds`` other than nominal."""
        if seconds == NOMINAL_SECONDS:
            return self
        ops = max(self.clients, round(self.ops * seconds / NOMINAL_SECONDS))
        return replace(self, ops=ops)

    def toy(self) -> "Workload":
        """Same code path at smoke-test size (n <= 128, <= 512 ops); a
        phase that shrinks the network takes away at most half of it."""
        n0 = min(self.n0, 128)
        shrink = 1.0 - 2.0 * sum(self.join_share) / len(self.join_share)
        return replace(
            self,
            n0=n0,
            ops=384 if shrink <= 0 else min(384, int(n0 / 2 / shrink)),
            clients=16,
            rate_hz=4000.0 if self.rate_hz else 0.0,
            warmup=64,
            reps=1,
        )


WORKLOADS: tuple[Workload, ...] = (
    # The reference serving load: gateway bookkeeping, core.multi,
    # net.walks, net.topology and net.flood all do comparable work, so
    # every other service workload is read against this one.
    Workload(
        name="soak_mixed_4k",
        mode="closed",
        n0=4096,
        ops=10240,
        reps=5,
    ),
    # Per-flush O(n) terms (survivor-connectivity check, CSR patch,
    # floods) do most of the work at this size and little at 4k: an
    # O(nnz)->O(dirty) change must show here and barely move
    # soak_mixed_4k.  Three reps: set-up is O(n) too.
    Workload(
        name="soak_mixed_64k",
        mode="closed",
        n0=65536,
        ops=6144,
        warmup=512,
        reps=3,
    ),
    # Independent users at 250 req/s: batches of ~2, so per-flush fixed
    # cost (a 4 ms survivor-connectivity check per delete flush) and the
    # batch window set latency, not wave throughput; the core is ~45 %
    # busy (a flush costs the same for 2 requests as for 3, so halving
    # the rate barely idles it).  Pipelining/window/admission changes show here; batch-engine
    # speed-ups mostly do not.  Latency is timed from the due instant
    # and the generator's own lateness is reported.  The rate sits where
    # waiting behind other flushes is a small part of the latency
    # (interleaved p95: 17.2 ms at 125 req/s, 18.5 at 250, 23.5 at 500):
    # closer to the knee every slow-down of the host is amplified --
    # at 500 req/s a host 14 % slower read p95 32 % worse, at 1000 req/s
    # p95 spread 20 % run to run, at 2000 req/s the same seed's median
    # swung 18-32 ms.
    Workload(
        name="open_poisson_4k",
        mode="open",
        n0=4096,
        ops=800,
        rate_hz=250.0,
        reps=5,
    ),
    # Flash crowd / insert-heavy adversary: Spare depletes, so
    # compute_spare floods and one simplified_inflate dominate and
    # delete validation does nothing.  The "writes" to mass_leave's
    # "reads" of core.
    Workload(
        name="join_surge_2k",
        mode="closed",
        n0=2048,
        ops=9216,
        join_share=(1.0,),
        warmup=1024,
        reps=7,
    ),
    # ROADMAP open item (mass-leave ~1.7x only): Low depletes, so
    # compute_low floods, simplified_deflate and delete-batch validation
    # dominate and the insert path does nothing.  A gain for leaves that
    # taxes joins shows as a loss on join_surge_2k.
    Workload(
        name="mass_leave_8k",
        mode="closed",
        n0=8192,
        ops=6656,
        join_share=(0.0,),
        warmup=512,
        reps=4,
    ),
    # The only workload where service.router, service.shard and the
    # pipe do work; against soak_mixed_4k it is the shard speed-up.
    # Three processes on two cores: counts are not bit-exact.
    Workload(
        name="cluster2_soak_4k",
        mode="cluster",
        n0=4096,
        ops=24576,
        reps=4,
    ),
    # Bypasses the service tier entirely (prediction for any service/
    # change: no movement).  The median is the pure type-1 step; p95
    # and throughput are set by the steps that carry a staggered
    # inflate/deflate chunk (~6 % of them) -- Theorem 1's worst case.
    # n 128 -> ~2500 -> 128, p 521 -> 2087 -> 8353 -> 1049.  Cost counts
    # repeat exactly per seed.
    Workload(
        name="engine_sawtooth_128",
        mode="engine",
        n0=128,
        ops=8000,
        join_share=(0.8, 0.2),
        warmup=128,
        reps=5,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Schedule:
    """Everything the program is fed in one phase."""

    #: JOIN/LEAVE per operation
    kinds: bytes
    #: uniform [0, 1) per operation: index of a leave's victim in the
    #: driver's list of acknowledged-live ids (unused by joins)
    picks: array
    #: open loop only: due instant of each operation, seconds from the
    #: start of the phase (empty otherwise)
    due_s: array

    def __len__(self) -> int:
        return len(self.kinds)

    def to_bytes(self) -> bytes:
        return self.kinds + self.picks.tobytes() + self.due_s.tobytes()


def _stream(seed: int, workload: str, phase: str, what: str) -> random.Random:
    # str seeds hash through SHA-512: stable across processes and hosts
    return random.Random(f"dex-bench/{seed}/{workload}/{phase}/{what}")


def make_schedule(
    workload: Workload, seed: int, phase: str = "measure", rep: int = 0
) -> Schedule:
    """The schedule of one phase (``"warmup"`` or ``"measure"``) of one
    repetition: same arguments, same bytes."""
    phase_key = f"{phase}/{rep}"
    if phase == "warmup":
        count, shares, rate_hz = workload.warmup, (0.5,), 0.0
    else:
        count, shares, rate_hz = workload.ops, workload.join_share, workload.rate_hz
    kind_rng = _stream(seed, workload.name, phase_key, "kinds")
    kinds = bytearray()
    for k, share in enumerate(shares):
        length = count * (k + 1) // len(shares) - count * k // len(shares)
        joins = round(share * length)
        segment = [JOIN] * joins + [LEAVE] * (length - joins)
        kind_rng.shuffle(segment)
        kinds.extend(segment)
    pick_rng = _stream(seed, workload.name, phase_key, "picks")
    picks = array("d", (pick_rng.random() for _ in range(count)))
    due_s = array("d")
    if rate_hz:
        due_rng = _stream(seed, workload.name, phase_key, "due")
        at = 0.0
        for _ in range(count):
            at += due_rng.expovariate(rate_hz)
            due_s.append(at)
    return Schedule(bytes(kinds), picks, due_s)
