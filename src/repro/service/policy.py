"""Admission/batching policies: closed-loop overload control for the
flush core (every gateway and every shard runs one).

PR 5's backpressure is a fixed-size queue with reject-at-the-door and a
static ``batch_window_ms`` -- under the adversarial regime of Xheal
(repeated attack faster than repair, arXiv:1104.0882) that degrades as
*unbounded ack latency*: the queue stays pinned at its limit and every
admitted request waits a full queue-drain behind it.  The policies here
make both knobs adaptive, and turn saturation into **controlled
shedding** with bounded latency for the requests that are served:

* :class:`FixedPolicy` -- PR 5 behaviour, the baseline every frontier
  sweep compares against.
* :class:`AdaptiveWindowPolicy` -- widens ``batch_window_ms`` as queue
  depth / heal utilization grow (bigger waves amortize per-flush
  overhead when backlogged) and narrows it toward a floor when idle
  (a lone request shouldn't wait a saturation-tuned window).
* :class:`ShedOldestPolicy` -- drops the *oldest* queued requests with a
  rejected :class:`~repro.service.gateway.Ack` whenever depth crosses a
  high-water mark.  Oldest-first is deliberate: under sustained
  overload the oldest request has already waited longest and is the
  most likely to be past its caller's patience; shedding it bounds the
  queueing delay of everything still admitted to
  ``high_water / heal_rate``.

At-the-door admission is the hard ``queue_limit`` alone, the same for
every policy.  The flush core consults its policy at three points, all
synchronous (policies are per-core state, never shared):

* ``window_s()`` whenever it decides whether a flush is due (the window
  runs from the oldest queued request's receipt);
* ``shed_count(depth)`` after every enqueue and before every flush --
  how many of the oldest queued requests to answer-and-drop right now;
* ``observe_flush(...)`` after every flush, with the post-flush queue
  depth, the flush size, the heal wall-clock and the elapsed interval
  since the previous flush -- the closed-loop feedback input.

Per-request deadlines are orthogonal to the policy and live in the
flush core itself (:class:`~repro.service.gateway.MembershipGateway`'s
``deadline_ms``): a queued request whose deadline passes is answered
with a rejected ack, never healed late and never left hanging.
"""

from __future__ import annotations

from repro.errors import PolicyError


class AdmissionPolicy:
    """Base policy: admit while the queue has room, fixed window, no
    shedding.  Subclasses override the hooks they care about and keep
    per-gateway mutable state (a policy instance must not be shared
    between gateways -- :func:`make_policy` builds a fresh one from a
    name for exactly this reason)."""

    name = "fixed"

    def __init__(self) -> None:
        self.base_window_s = 0.0
        self.max_batch = 1
        self.queue_limit = 1

    def bind(self, *, base_window_s: float, max_batch: int, queue_limit: int) -> None:
        """Called by the owning flush core with its static tuning."""
        self.base_window_s = base_window_s
        self.max_batch = max_batch
        self.queue_limit = queue_limit

    # ------------------------------------------------------------------
    # the three hooks
    # ------------------------------------------------------------------
    def window_s(self) -> float:
        """How long the oldest queued request may wait for its batch to
        fill."""
        return self.base_window_s

    def shed_count(self, depth: int) -> int:
        """How many of the *oldest* queued requests to shed right now."""
        return 0

    def observe_flush(
        self, *, depth: int, batch_size: int, heal_s: float, interval_s: float
    ) -> None:
        """Closed-loop feedback after every flush: ``depth`` is the
        post-flush queue depth, ``interval_s`` the wall-clock since the
        previous flush ended (so ``heal_s / interval_s`` is the heal
        utilization of that interval)."""

    def describe(self) -> dict:
        """Small JSON-able state summary for benchmark rows."""
        return {"policy": self.name}


class FixedPolicy(AdmissionPolicy):
    """PR 5 behaviour: static window, reject-at-the-door only when the
    queue is full.  The frontier baseline."""

    name = "fixed"


class AdaptiveWindowPolicy(AdmissionPolicy):
    """Scale the batch window from observed queue depth and heal
    utilization.

    The window only matters while the gatherable batch is *smaller*
    than ``max_batch`` (a full batch flushes immediately), so the
    adaptation targets the two regimes where a static window is wrong:
    a busy-but-not-saturated gateway wants a *wider* window (fill the
    wave, amortize per-flush overhead), an idle one wants a *narrower*
    window (a lone request should not wait a saturation-tuned 2 ms).
    The scale moves multiplicatively per flush and is clamped to
    ``[floor_scale, cap_scale]`` times the configured base window.
    """

    name = "adaptive-window"

    def __init__(
        self,
        *,
        widen: float = 1.5,
        narrow: float = 0.6,
        cap_scale: float = 8.0,
        floor_scale: float = 0.125,
        high_utilization: float = 0.75,
        low_utilization: float = 0.25,
    ) -> None:
        super().__init__()
        if not widen > 1.0:
            raise PolicyError(f"widen must be > 1, got {widen}")
        if not 0.0 < narrow < 1.0:
            raise PolicyError(f"narrow must be in (0, 1), got {narrow}")
        if not floor_scale <= 1.0 <= cap_scale:
            raise PolicyError(
                f"need floor_scale <= 1 <= cap_scale, got "
                f"[{floor_scale}, {cap_scale}]"
            )
        self.widen = widen
        self.narrow = narrow
        self.cap_scale = cap_scale
        self.floor_scale = floor_scale
        self.high_utilization = high_utilization
        self.low_utilization = low_utilization
        self._scale = 1.0

    def window_s(self) -> float:
        return self.base_window_s * self._scale

    def observe_flush(
        self, *, depth: int, batch_size: int, heal_s: float, interval_s: float
    ) -> None:
        utilization = heal_s / interval_s if interval_s > 0 else 1.0
        backlogged = depth >= max(1, self.max_batch // 2)
        idle = depth <= max(1, self.max_batch // 8)
        if backlogged or utilization >= self.high_utilization:
            self._scale = min(self._scale * self.widen, self.cap_scale)
        elif idle and utilization <= self.low_utilization:
            self._scale = max(self._scale * self.narrow, self.floor_scale)

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "window_scale": round(self._scale, 4),
            "window_ms": round(self.window_s() * 1e3, 4),
        }


class ShedOldestPolicy(AdmissionPolicy):
    """Bound queueing delay by dropping the oldest queued requests once
    depth crosses ``high_water`` (default ``queue_limit / 8``, never
    below one full batch).  Every shed request is *answered* with a
    rejected ack -- controlled shedding, not silent dropping -- and the
    survivors' queueing delay is bounded by ``high_water`` service
    times instead of ``queue_limit``."""

    name = "shed-oldest"

    def __init__(
        self,
        *,
        high_water: int | None = None,
        high_water_fraction: float = 0.125,
    ) -> None:
        super().__init__()
        if high_water is not None and high_water < 1:
            raise PolicyError(f"high_water must be >= 1, got {high_water}")
        if not 0.0 < high_water_fraction <= 1.0:
            raise PolicyError(
                f"high_water_fraction must be in (0, 1], got {high_water_fraction}"
            )
        self._explicit_high_water = high_water
        self.high_water_fraction = high_water_fraction
        self.high_water = high_water or 1
        self.shed_total = 0

    def bind(self, *, base_window_s: float, max_batch: int, queue_limit: int) -> None:
        super().bind(
            base_window_s=base_window_s,
            max_batch=max_batch,
            queue_limit=queue_limit,
        )
        if self._explicit_high_water is not None:
            self.high_water = min(self._explicit_high_water, queue_limit)
        else:
            self.high_water = min(
                queue_limit,
                max(max_batch, int(queue_limit * self.high_water_fraction), 1),
            )

    def shed_count(self, depth: int) -> int:
        excess = depth - self.high_water
        if excess > 0:
            self.shed_total += excess
            return excess
        return 0

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "high_water": self.high_water,
            "shed_total": self.shed_total,
        }


#: name -> class; the CLI's ``--policy`` choices
POLICIES: dict[str, type[AdmissionPolicy]] = {
    FixedPolicy.name: FixedPolicy,
    AdaptiveWindowPolicy.name: AdaptiveWindowPolicy,
    ShedOldestPolicy.name: ShedOldestPolicy,
}


def make_policy(spec: "str | AdmissionPolicy") -> AdmissionPolicy:
    """A fresh policy instance from a registry name (policies are
    stateful, so a name always builds a new one), or the given instance
    verbatim (caller owns not sharing it between gateways)."""
    if isinstance(spec, AdmissionPolicy):
        return spec
    try:
        return POLICIES[spec]()
    except KeyError:
        raise PolicyError(
            f"unknown admission policy {spec!r}; known: {sorted(POLICIES)}"
        ) from None
