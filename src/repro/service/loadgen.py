"""Client-side load generators for the membership gateway.

Two traffic shapes, both driving real concurrent clients (one
coroutine per in-flight request) against a
:class:`~repro.service.gateway.MembershipGateway`:

* :func:`poisson_load` -- **open loop**: arrivals follow an exponential
  inter-arrival clock at ``rate_hz`` regardless of how fast the gateway
  answers, the standard model for independent users.  Ack latency under
  an open loop is the honest number -- a slow gateway builds queue and
  the percentiles show it.
* :func:`saturating_load` -- **closed loop**: ``clients`` workers each
  keep exactly one request in flight, back to back.  This measures
  sustained capacity (events/sec at full pressure) -- the number the
  soak benchmark compares micro-batched vs. per-request gateways on.

Every generator takes an optional :class:`RetryPolicy`: real clients do
not give up on the first backpressure rejection, they back off and try
again, and a shedding server only sees its true offered load when the
fleet models that.  Retries use capped jittered exponential backoff and
fire only on *load-related* rejections (backpressure, shed) -- an
engine rejection ("stale attach hint", "victim would disconnect") is a
fact about the request, not about load, and retrying it would just
repeat the answer.

:class:`LoadStats` reports **goodput** (healed requests) separately
from raw completion throughput: under saturation most completions may
be door rejections answered in microseconds, so counting them as
"sustained events/s" would overstate served load by the shed rate.

Leave targets come from a shared :class:`Population` tracking ids the
generator believes are alive (bootstrap members plus its own healed
joins).  The view is deliberately optimistic -- concurrent leaves race,
and a stale victim exercises exactly the per-request rejection path the
partial-batch engine exists for.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.service.flush import (
    BACKPRESSURE_REASON,
    DEADLINE_REASON,
    SHED_REASON,
    reason_class,
)
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.gateway import Ack, MembershipGateway

_BACKPRESSURE = reason_class(BACKPRESSURE_REASON)
_SHED = reason_class(SHED_REASON)
_DEADLINE = reason_class(DEADLINE_REASON)

#: rejection-reason prefixes a retrying client treats as transient
#: load shedding (worth backing off and retrying) rather than a verdict
#: about the request itself
RETRYABLE_PREFIXES = (_BACKPRESSURE, _SHED)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped jittered exponential backoff for load-related rejections.

    Attempt ``k`` (1-based) sleeps ``min(base_ms * 2**(k-1), cap_ms)``
    scaled by a uniform jitter in ``[1 - jitter, 1]`` -- full
    synchronized retry waves are exactly the thundering herd a shedding
    server is trying to spread out."""

    max_retries: int = 4
    base_ms: float = 2.0
    cap_ms: float = 50.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_ms <= 0 or self.cap_ms < self.base_ms:
            raise ValueError(
                f"need 0 < base_ms <= cap_ms, got [{self.base_ms}, {self.cap_ms}]"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        raw_ms = min(self.base_ms * 2 ** (attempt - 1), self.cap_ms)
        return raw_ms * (1.0 - self.jitter * rng.random()) / 1e3

    @staticmethod
    def retryable(reason: str | None) -> bool:
        return reason is not None and reason.startswith(RETRYABLE_PREFIXES)


@dataclass
class LoadStats:
    """What one generator run offered and what came back."""

    offered: int = 0
    completed: int = 0
    #: healed requests -- the goodput numerator (a completion can also
    #: be a rejection answered at the door in microseconds)
    ok: int = 0
    rejected: int = 0
    backpressure: int = 0
    shed: int = 0
    deadline_timeouts: int = 0
    #: retry attempts made by clients (not counted in ``offered``: a
    #: retried request is the same logical request)
    retries: int = 0
    #: wall-clock of the generator run, set once on return
    elapsed_s: float = 0.0
    #: rejection reason -> count (backpressure included)
    reasons: dict[str, int] = field(default_factory=dict)

    def record(self, ack: "Ack") -> None:
        self.completed += 1
        if ack.ok:
            self.ok += 1
            return
        self.rejected += 1
        reason = ack.reason or "unknown"
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if reason.startswith(_BACKPRESSURE):
            self.backpressure += 1
        elif reason.startswith(_SHED):
            self.shed += 1
        elif reason.startswith(_DEADLINE):
            self.deadline_timeouts += 1

    @property
    def completed_per_s(self) -> float:
        """Raw completion throughput: every answered request per second,
        door rejections included."""
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def goodput_per_s(self) -> float:
        """Healed requests per second -- the served-load number."""
        return self.ok / self.elapsed_s if self.elapsed_s > 0 else 0.0


class Population:
    """The generator's optimistic view of live node ids: uniform victim
    sampling in O(1) via swap-remove over a list + index map."""

    def __init__(self, ids: Iterable[NodeId], rng: random.Random) -> None:
        self._ids = list(ids)
        self._index = {node: i for i, node in enumerate(self._ids)}
        self._rng = rng

    def __len__(self) -> int:
        return len(self._ids)

    def sample(self) -> NodeId | None:
        if not self._ids:
            return None
        return self._ids[self._rng.randrange(len(self._ids))]

    def add(self, node: NodeId | None) -> None:
        if node is not None and node not in self._index:
            self._index[node] = len(self._ids)
            self._ids.append(node)

    def discard(self, node: NodeId) -> None:
        i = self._index.pop(node, None)
        if i is None:
            return
        last = self._ids.pop()
        if i < len(self._ids):
            self._ids[i] = last
            self._index[last] = i


async def _client(
    gateway: "MembershipGateway",
    kind: str,
    victim: NodeId | None,
    population: Population,
    stats: LoadStats,
    retry: RetryPolicy | None = None,
    rng: random.Random | None = None,
) -> None:
    attempt = 0
    while True:
        if kind == "join":
            ack = await gateway.join()
            if ack.ok:
                population.add(ack.node)
        else:
            ack = await gateway.leave(victim)
            if ack.ok:
                population.discard(victim)
        if (
            ack.ok
            or retry is None
            or attempt >= retry.max_retries
            or not RetryPolicy.retryable(ack.reason)
        ):
            stats.record(ack)
            return
        attempt += 1
        stats.retries += 1
        gateway.metrics.record_retry()
        await asyncio.sleep(retry.backoff_s(attempt, rng or random))


def _pick(
    rng: random.Random, join_fraction: float, population: Population
) -> tuple[str, object]:
    if rng.random() < join_fraction or not len(population):
        return "join", None
    return "leave", population.sample()


async def poisson_load(
    gateway: "MembershipGateway",
    *,
    rate_hz: float,
    duration_s: float,
    join_fraction: float = 0.6,
    seed: int = 0,
    retry: RetryPolicy | None = None,
) -> LoadStats:
    """Open-loop Poisson arrivals at ``rate_hz`` for ``duration_s``
    seconds; returns the aggregated :class:`LoadStats` once every
    spawned client resolved.

    The arrival clock is absolute: the loop sleeps until the next
    scheduled arrival instant and then spawns *every* arrival already
    due, so the offered count tracks ``rate_hz * duration_s`` even when
    the event loop lags under load -- an open-loop generator whose
    offered rate silently sagged with gateway pressure would be a
    closed loop in disguise."""
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive, got {rate_hz}")
    rng = random.Random(seed)
    stats = LoadStats()
    population = Population(gateway.net.nodes(), rng)
    loop = asyncio.get_running_loop()
    started = loop.time()
    deadline = started + duration_s
    clients: list[asyncio.Task] = []

    def spawn() -> None:
        kind, victim = _pick(rng, join_fraction, population)
        stats.offered += 1
        clients.append(
            asyncio.ensure_future(
                _client(gateway, kind, victim, population, stats, retry, rng)
            )
        )

    next_at = started + rng.expovariate(rate_hz)
    while next_at < deadline:
        delay = next_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            # Lagging behind the arrival clock: yield so the batcher
            # and resolving clients run between spawn bursts.
            await asyncio.sleep(0)
        now = loop.time()
        while next_at < deadline and next_at <= now:
            spawn()
            next_at += rng.expovariate(rate_hz)
    if clients:
        await asyncio.gather(*clients)
    stats.elapsed_s = loop.time() - started
    return stats


async def saturating_load(
    gateway: "MembershipGateway",
    *,
    duration_s: float,
    clients: int = 256,
    join_fraction: float = 0.5,
    seed: int = 0,
    retry: RetryPolicy | None = None,
) -> LoadStats:
    """Closed-loop saturation: ``clients`` workers each keep one request
    in flight back to back until the deadline.  Sustained completed
    events/sec under this load is the gateway's capacity."""
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    rng = random.Random(seed)
    stats = LoadStats()
    population = Population(gateway.net.nodes(), rng)
    loop = asyncio.get_running_loop()
    started = loop.time()
    deadline = started + duration_s

    async def worker() -> None:
        while loop.time() < deadline:
            kind, victim = _pick(rng, join_fraction, population)
            stats.offered += 1
            await _client(gateway, kind, victim, population, stats, retry, rng)
            # A door rejection resolves its future synchronously, so a
            # worker whose every attempt is rejected would otherwise spin
            # without suspending and starve the batcher off the loop.
            await asyncio.sleep(0)

    await asyncio.gather(*(worker() for _ in range(clients)))
    stats.elapsed_s = loop.time() - started
    return stats
