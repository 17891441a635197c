"""The asyncio membership-service gateway (the serving layer).

Everything below :mod:`repro.harness` replays recorded adversary
scripts; this module is the first *online* surface: many concurrent
clients call :meth:`MembershipGateway.join` / ``leave`` and await an
answer, and the gateway turns that request stream into the
congestion-synchronous batch waves the healing engine already speaks.
DEX's healing is local and concurrent by construction (Corollary 2), so
the serving layer's whole job is coalescing:

* **Ingestion** -- a bounded FIFO queue.  A request arriving at a full
  queue is *answered* with a rejected outcome, never silently dropped:
  backpressure is an explicit contract with the client, not a timeout.
* **Adaptive micro-batching** -- each flush is kind-segregated (it maps
  to exactly one ``insert_batch_partial`` or ``delete_batch_partial``
  wave), led by the oldest queued request and gathered *across* the
  queue behind same-id barriers.  The flush fires as soon as the gather
  reaches ``max_batch`` or the oldest queued request has waited
  ``batch_window_ms``; under saturation the gateway therefore heals
  ``max_batch``-sized waves, while at low arrival rates a request waits
  at most one window.
  ``batch_window_ms=0`` with ``max_batch=1`` degenerates to a
  per-request gateway -- the baseline the soak benchmark compares
  against.
* **Partial-batch outcomes** -- every client's future resolves with its
  *individual* :class:`Ack`: healed requests learn their assigned node
  id; illegal ones (stale attach hint, duplicate leave, victim that
  would disconnect the remainder) learn the engine's per-request
  rejection reason while the legal majority of their batch still heals
  in one wave.

**Adapter and core.**  The queue, the selection, the sweeps, the heal
call and the acks are :class:`~repro.service.flush.FlushCore`, shared
verbatim with the shard worker.  What lives here is what only an
asyncio front needs: futures in, the lifecycle
(``start``/``close``/``drain``/``from_checkpoint``), the operator
surface it shares with :class:`~repro.service.router.ShardRouter` (a
gateway is a cluster of one; :func:`repro.service.open_service` opens
either and documents the surface) -- and the *waiting*: the batcher
sleeps on its wake event for as long as
:meth:`~repro.service.flush.FlushCore.due_in` says, the same rule a
shard worker waits on, and re-asks whenever a request arrives.
The heal call itself runs synchronously on the event loop -- the engine
is CPU-bound Python over one shared graph, so handing it to a thread
would serialize on the same state anyway (an overlapped, thread-backed
flush loop was measured and removed; see ``benchmarks/README.md``); the
batcher yields between flushes so clients keep enqueueing while a wave
heals.
"""

from __future__ import annotations

import asyncio
import contextlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.errors import GatewayClosed
from repro.obs import trace as _trace
from repro.service import flush as _flush
from repro.service.flush import Ack, FlushCore, Request
from repro.service.metrics import ServiceMetrics
from repro.service.policy import AdmissionPolicy
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dex import DexNetwork
    from repro.obs.registry import MetricsRegistry

__all__ = ["Ack", "MembershipGateway"]


class MembershipGateway(FlushCore[Request]):
    """Async facade over one :class:`~repro.core.dex.DexNetwork`.

    Use as an async context manager (or call :meth:`start` /
    :meth:`close` explicitly)::

        async with MembershipGateway(net, max_batch=64) as gateway:
            ack = await gateway.join()
            assert ack.ok and net.graph.has_node(ack.node)

    ``policy`` selects the admission/batching controller (a name from
    :data:`~repro.service.policy.POLICIES` or a ready
    :class:`~repro.service.policy.AdmissionPolicy` instance) and
    ``deadline_ms`` an optional default per-request deadline: a queued
    request whose deadline passes is answered with a rejected ack
    (:data:`DEADLINE_REASON`), never healed late and never left hanging
    -- the sweep runs before every flush, across :meth:`drain` and
    across checkpoint pauses.
    """

    span_prefix = "gateway"

    #: the service-level reason strings (defined once, beside the core)
    BACKPRESSURE_REASON = _flush.BACKPRESSURE_REASON
    SHED_REASON = _flush.SHED_REASON
    DEADLINE_REASON = _flush.DEADLINE_REASON

    def __init__(
        self,
        net: "DexNetwork",
        *,
        max_batch: int = 64,
        batch_window_ms: float = 2.0,
        queue_limit: int = _flush.DEFAULT_QUEUE_LIMIT,
        policy: "str | AdmissionPolicy" = "fixed",
        deadline_ms: float | None = None,
        seed: int | None = None,
        metrics: ServiceMetrics | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 32,
        checkpoint_keep: int = 3,
        on_before_checkpoint: Callable[[int], None] | None = None,
        on_checkpoint: Callable[[int, Path], None] | None = None,
        on_ack: Callable[[Ack], None] | None = None,
    ) -> None:
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        super().__init__(
            net,
            max_batch=max_batch,
            window_s=batch_window_ms / 1e3,
            queue_limit=queue_limit,
            policy=policy,
            seed=seed,
            metrics=metrics,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            checkpoint_keep=checkpoint_keep,
            on_before_checkpoint=on_before_checkpoint,
            on_checkpoint=on_checkpoint,
            on_ack=on_ack,
        )
        self.deadline_s = deadline_ms / 1e3 if deadline_ms is not None else None
        self._wake = asyncio.Event()
        self._batcher: asyncio.Task | None = None
        #: partition -> its start report (here: one), taken by start()
        self.ready: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MembershipGateway":
        if self._batcher is None:
            self.ready = {0: {"shard": 0, **self.ready_report()}}
            self.anchor_clocks()
            self._batcher = asyncio.ensure_future(self._run())
        return self

    async def close(self) -> None:
        """Stop accepting requests, drain the queue (every queued
        request still gets its outcome), and join the batcher."""
        self._closing = True
        self._wake.set()
        try:
            if self._batcher is not None:
                await self._batcher
        finally:
            self._batcher = None

    async def drain(self) -> dict:
        """Graceful shutdown: stop accepting new requests, answer
        **every** queued future (the batcher keeps flushing until the
        queue is empty -- no client is left hanging), then settle: run
        an in-flight staggered op to completion and write one final
        checkpoint.  Returns a small summary the caller can log.
        The final checkpoint happens strictly *after* the last flush, so
        it captures every acknowledged request."""
        pending = len(self._queue)
        await self.close()
        return {"pending_answered": pending, **self.settle()}

    @classmethod
    def from_checkpoint(
        cls, checkpoint_root: str | Path, **kwargs: object
    ) -> "MembershipGateway":
        """Build a gateway over the newest loadable checkpoint under
        ``checkpoint_root``.  The restored gateway checkpoints back into
        the same directory unless ``checkpoint_dir`` overrides it, and
        its metrics windows are re-anchored *after* the restore
        completes -- ``perf_counter`` anchors from the previous process
        (or from before a multi-second restore) would otherwise corrupt
        the first reported rates."""
        from repro.persist.snapshot import restore_latest

        net, path, _skipped = restore_latest(checkpoint_root)
        kwargs.setdefault("checkpoint_dir", checkpoint_root)
        gateway = cls(net, **kwargs)
        gateway.last_checkpoint = path
        gateway.anchor_clocks()
        return gateway

    async def __aenter__(self) -> "MembershipGateway":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # the client surface
    # ------------------------------------------------------------------
    async def join(
        self,
        node_id: NodeId | None = None,
        attach_hint: NodeId | None = None,
        *,
        deadline_ms: float | None = None,
    ) -> Ack:
        """Request membership: a new node (gateway-assigned id unless
        ``node_id`` pins one) attached at ``attach_hint`` (a uniformly
        sampled live node unless pinned).  Resolves when the request's
        micro-batch healed.  ``deadline_ms`` overrides the gateway
        default deadline for this request only."""
        return await self._submit("join", node_id, attach_hint, deadline_ms)

    async def leave(
        self, node_id: NodeId, *, deadline_ms: float | None = None
    ) -> Ack:
        """Request departure of ``node_id``; resolves when the request's
        micro-batch healed (or with the per-victim rejection reason)."""
        return await self._submit("leave", node_id, None, deadline_ms)

    def _submit(
        self,
        kind: str,
        node: NodeId | None,
        attach_hint: NodeId | None,
        deadline_ms: float | None = None,
    ) -> asyncio.Future:
        if self._closing or self._batcher is None:
            raise GatewayClosed(
                f"{kind} request arrived while the gateway is "
                f"{'closing' if self._closing else 'not started'}"
            )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        deadline_s = deadline_ms / 1e3 if deadline_ms is not None else self.deadline_s
        if self.enqueue(Request(kind, node, attach_hint, future), deadline_s):
            self._wake.set()
        return future

    def _emit(self, request: Request, ack: Ack) -> None:
        if not request.ticket.done():
            request.ticket.set_result(ack)

    def _fail(self, request: Request, exc: BaseException) -> None:
        if not request.ticket.done():
            request.ticket.set_exception(exc)

    # ------------------------------------------------------------------
    # the batcher: waiting here, everything else in the core
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            due = self.due_in()
            if due is None:
                if self._closing:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            rec = _trace.current()
            root: "_trace.Span | None" = None
            csp: "_trace.Span | None" = None
            if rec.enabled:
                root = rec.start("gateway.flush")
                csp = rec.start(
                    "gateway.flush.collect",
                    trace_id=root.trace_id,
                    parent_id=root.span_id,
                )
            # Wait until the flush is due; an arrival (or close) wakes
            # the wait early to re-ask.  A queue emptied by the deadline
            # sweep ends the wait too (due is None: an empty flush).
            while due:
                self._wake.clear()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._wake.wait(), due)
                due = self.due_in()
            if csp is not None:
                rec.finish(csp)
            self.flush_once(root)
            # Yield so awaiting clients resolve and new arrivals land
            # before the next flush decision.
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # the operator surface (shared with ShardRouter: a cluster of one)
    # ------------------------------------------------------------------
    async def reset_metrics(self) -> None:
        """Zero the counters and re-anchor the clocks (benchmarks call
        this after a warmup phase)."""
        self.metrics.reset()

    async def cluster_audit(self, include_nodes: bool = True) -> dict:
        """The core's audit row in the router's cluster-audit shape.
        Runs on the event loop, hence between flushes."""
        row = {"shard": 0, **self.audit(include_nodes)}
        return {
            "ok": row["invariants_ok"],
            "errors": [f"shard 0: {row['errors']}"] if row["errors"] else [],
            "shards": [row],
            "total_nodes": row["size"],
            "handoffs": {},
        }

    def publish_registry(self) -> "MetricsRegistry":
        """The registry every gateway instrument lives in, with the
        gauges of live state -- queue depth, admission-policy state --
        set now (the ``serve --metrics-out`` exposition surface)."""
        registry = self.metrics.registry
        registry.gauge(
            "dex.queue_depth", "requests currently queued"
        ).set(len(self._queue))
        for key, value in self.policy.describe().items():
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                registry.gauge(
                    f"dex.policy.{key}", f"admission policy state: {key}"
                ).set(value)
        return registry
