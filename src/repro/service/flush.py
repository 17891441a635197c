"""The flush core: queue -> kind-segregated batch -> one partial-batch
heal call -> one :class:`Ack` per caller.

DEX heals a Section-5 batch as one congestion-synchronous wave (Lemma
11, Corollary 2), so everything a serving tier does between "a request
arrived" and "its caller was answered" is the same whoever carries the
request: pick a batch, make one ``*_batch_partial`` call, answer each
caller.  :class:`FlushCore` is that job, once.  It is synchronous and
clock-injected; it never waits.  It also decides *when* a flush is due
(:meth:`FlushCore.due_in`, one rule for every adapter); only the waiting
itself is the adapters' business --
:class:`~repro.service.gateway.MembershipGateway` waits on the event
loop, :class:`~repro.service.shard.ShardServer` on its pipe -- and both
then call :meth:`FlushCore.flush_once`:

1. **shed / sweep** -- the admission policy's excess and every queued
   request whose deadline passed are *answered* with a rejected ack
   (never dropped, never healed late);
2. **select** -- up to ``max_batch`` requests of the oldest request's
   kind, gathered across the queue.  Reordering around the other kind
   is only observable when two requests name the same node id, so a
   *skipped* request's id is a barrier: later requests naming it stay
   queued and per-node operation order is preserved;
3. **screen** -- the adapter's pre-heal hook (a shard refuses reserved
   ids and pinned victims here);
4. **heal** -- exactly one ``insert_batch_partial`` /
   ``delete_batch_partial`` call, the only thing ``heal_s`` times.  An
   engine exception is not a per-request rejection: it fails the
   flushed batch *and* everything still queued, leaves the core
   closing, and re-raises;
5. **resolve** -- one individual ack per flushed request, then policy
   feedback and the guarded checkpoint, which therefore only ever
   happens *between* flushes (never mid-heal).
"""

from __future__ import annotations

import contextlib
import random
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Container,
    ContextManager,
    Generic,
    TypeVar,
)

from repro.errors import SnapshotError
from repro.net.metrics import CostLedger
from repro.obs import trace as _trace
from repro.service.metrics import ServiceMetrics
from repro.service.policy import AdmissionPolicy, make_policy
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dex import DexNetwork

#: the service-level rejection reasons (tested verbatim).  The leading
#: word classifies the reason for clients (:func:`reason_class`).
BACKPRESSURE_REASON = "backpressure: ingestion queue full"
SHED_REASON = "shed: queue above high-water mark"
DEADLINE_REASON = "deadline exceeded before heal"

DEFAULT_QUEUE_LIMIT = 4096

_NO_SPAN: ContextManager[None] = contextlib.nullcontext()


def reason_class(reason: str) -> str:
    """The leading word of a rejection reason (``"backpressure"``,
    ``"shed"``, ``"deadline"``, ...): what retry and accounting logic
    keys on instead of re-spelling the reason strings."""
    return reason.split(" ", 1)[0].rstrip(":")


@dataclass(frozen=True)
class Ack:
    """One client's outcome: the resolution of a ``join``/``leave``."""

    ok: bool
    kind: str  # "join" | "leave"
    #: the (assigned) node id the request was about; joins learn their
    #: id here even when the service chose it
    node: NodeId | None
    #: rejection reason (``None`` on success) -- the engine's per-request
    #: reason, or one of the service-level reasons above
    reason: str | None
    #: enqueue-to-resolution seconds as measured by the core
    latency_s: float
    #: size of the flush that carried the request (0 for requests no
    #: flush carried: door rejections, shed, deadline expiry)
    batch_size: int


@dataclass(eq=False)  # identity semantics: each request is unique
class Request:
    kind: str
    node: NodeId | None
    attach_hint: NodeId | None
    #: the adapter's reply handle: an event-loop future (gateway) or the
    #: router's request id (shard)
    ticket: Any
    submitted_at: float = 0.0
    #: absolute clock instant after which the request must be answered
    #: with a deadline rejection instead of healed (``None`` = none)
    deadline_at: float | None = None
    #: upstream ``(trace_id, parent_span_id)`` this request's spans
    #: continue (shipped over the shard pipe; ``None`` = fresh trace)
    trace: tuple[str, str] | None = None
    #: the open ``<prefix>.request`` span while tracing is enabled
    span: "_trace.Span | None" = None


R = TypeVar("R", bound=Request)


class FlushCore(Generic[R]):
    """The request queue and the one flush implementation.  Adapters
    subclass it (over their own :class:`Request` type), set
    :attr:`span_prefix`, implement :meth:`_emit`, wait for
    :meth:`due_in` and then call :meth:`flush_once`."""

    #: span-name prefix (``gateway.*`` / ``shard.*``): a constant of
    #: each adapter, not an option
    span_prefix = "flush"

    def __init__(
        self,
        net: "DexNetwork",
        *,
        max_batch: int,
        window_s: float,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        policy: "str | AdmissionPolicy" = "fixed",
        seed: int | None = None,
        clock: Callable[[], float] = time.perf_counter,
        metrics: ServiceMetrics | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 32,
        checkpoint_keep: int = 3,
        on_before_checkpoint: Callable[[int], None] | None = None,
        on_checkpoint: Callable[[int, Path], None] | None = None,
        on_ack: Callable[[Ack], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window_s < 0:
            raise ValueError(f"batch window must be >= 0, got {window_s}s")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if checkpoint_keep < 1:
            raise ValueError(f"checkpoint_keep must be >= 1, got {checkpoint_keep}")
        self.net = net
        self.max_batch = max_batch
        self.batch_window_s = window_s
        self._clock = clock
        self.metrics = metrics or ServiceMetrics(clock=clock)
        self.bind_policy(policy, queue_limit)
        self._rng = random.Random(
            seed if seed is not None else getattr(net.config, "seed", 0)
        )
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_every = checkpoint_every
        self.checkpoint_keep = checkpoint_keep
        #: fired with the step about to be checkpointed, *before* the
        #: snapshot is written or published.  A subscriber that must
        #: stay ahead of durable state (e.g. a write-ahead journal:
        #: flush + fsync here, so no checkpoint can become durable with
        #: the journal lagging it) does its work here; raising OSError
        #: vetoes the checkpoint (counted in ``checkpoint_errors``).
        self.on_before_checkpoint = on_before_checkpoint
        self.on_checkpoint = on_checkpoint
        #: synchronous ack tap, fired the moment an outcome is decided
        #: (inside the flush, before control returns to the caller).  At
        #: checkpoint time every ack issued so far is therefore visible
        #: to the tap -- the property the fault harness's journal relies
        #: on.  Must not raise.
        self.on_ack = on_ack
        self._checkpoints_written = self.metrics.registry.counter(
            "dex.checkpoints_written_total", "checkpoints written"
        )
        self._checkpoint_errors = self.metrics.registry.counter(
            "dex.checkpoint_errors_total", "checkpoint attempts that failed"
        )
        self.last_checkpoint: Path | None = None
        self._flushes_since_checkpoint = 0
        self._queue: deque[R] = deque()
        #: set by a draining adapter and by an engine failure: a closing
        #: core heals its backlog rather than shedding it
        self._closing = False
        #: set on the first request that carries a deadline; keeps the
        #: per-flush sweep O(1) for deadline-free workloads
        self._deadlines_active = False
        self._last_flush_end = clock()
        #: ids :meth:`_join_payload` must not mint (a shard's
        #: reservation table; nothing for a gateway)
        self._reserved: Container[NodeId] = ()
        #: constant attributes of every request/flush span
        self._span_attrs: dict[str, Any] = {}

    def bind_policy(self, policy: "str | AdmissionPolicy", queue_limit: int) -> None:
        """Install the admission policy and the hard queue bound (at
        construction; a worker config re-binds its shard before the
        first request)."""
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit
        self.policy = make_policy(policy)
        self.policy.bind(
            base_window_s=self.batch_window_s,
            max_batch=self.max_batch,
            queue_limit=queue_limit,
        )

    # ------------------------------------------------------------------
    # adapter hooks
    # ------------------------------------------------------------------
    def _emit(self, request: R, ack: Ack) -> None:
        """Deliver ``ack`` to whoever waits on ``request``."""
        raise NotImplementedError

    def _fail(self, request: R, exc: BaseException) -> None:
        """Deliver an engine failure to whoever waits on ``request``."""

    def _screen(
        self, kind: str, batch: list[R]
    ) -> tuple[list[R], list[tuple[R, str]]]:
        """Pre-heal admission: the requests to heal, and the ones to
        answer with a rejection reason instead."""
        return batch, []

    def _on_resolved(self, request: R, ok: bool) -> None:
        """Called per flushed request once the engine's verdict is in,
        before its ack is emitted."""

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def checkpoints_written(self) -> int:
        return int(self._checkpoints_written.value)

    @property
    def checkpoint_errors(self) -> int:
        return int(self._checkpoint_errors.value)

    def enqueue(self, request: R, deadline_s: float | None = None) -> bool:
        """Admit ``request`` (deadline ``deadline_s`` seconds from now)
        or answer it at the door -- a full queue is a counted
        backpressure rejection; then shed what the policy wants gone.
        ``False`` means it was turned away -- answered, not queued."""
        now = request.submitted_at = self._clock()
        if len(self._queue) >= self.queue_limit:
            self.metrics.record_backpressure()
            self._answer_unhealed(request, BACKPRESSURE_REASON)
            return False
        if deadline_s is not None:
            request.deadline_at = now + deadline_s
            self._deadlines_active = True
        rec = _trace.current()
        if rec.enabled:
            trace_id, parent_id = request.trace or (None, None)
            request.span = rec.start(
                f"{self.span_prefix}.request",
                trace_id=trace_id,
                parent_id=parent_id,
                kind=request.kind,
                node=request.node,
                **self._span_attrs,
            )
        self._queue.append(request)
        self.metrics.record_enqueue(len(self._queue))
        self._shed_excess()
        return True

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def _answer(self, request: R, ack: Ack) -> None:
        self._emit(request, ack)
        sp = request.span
        if sp is not None:
            request.span = None
            sp.set(ok=ack.ok, reason=ack.reason, batch=ack.batch_size)
            _trace.current().finish(sp)
        if self.on_ack is not None:
            self.on_ack(ack)

    def _answer_unhealed(self, request: R, reason: str) -> None:
        """Resolve a request no flush will carry (door rejection, shed,
        deadline expiry) with a rejected ack -- answered, never
        dropped."""
        latency = self._clock() - request.submitted_at
        self._answer(
            request, Ack(False, request.kind, request.node, reason, latency, 0)
        )

    def _shed_excess(self) -> None:
        """Answer-and-drop the oldest queued requests the policy wants
        gone.  Skipped while closing: a draining core heals its backlog
        rather than shedding it (deadlines still apply)."""
        if self._closing:
            return
        count = self.policy.shed_count(len(self._queue))
        for _ in range(min(count, len(self._queue))):
            self.metrics.record_shed()
            self._answer_unhealed(self._queue.popleft(), SHED_REASON)

    def sweep_deadlines(self) -> None:
        """Answer every queued request whose deadline has passed with a
        deadline rejection.  Runs at the start of every flush --
        including while closing and right after a checkpoint pause -- so
        an expired request is never healed late and never left
        hanging."""
        if not self._deadlines_active:
            return
        now = self._clock()
        if not any(
            r.deadline_at is not None and r.deadline_at <= now
            for r in self._queue
        ):
            return
        survivors: deque[R] = deque()
        for request in self._queue:
            if request.deadline_at is not None and request.deadline_at <= now:
                self.metrics.record_timeout()
                self._answer_unhealed(request, DEADLINE_REASON)
            else:
                survivors.append(request)
        self._queue = survivors

    # ------------------------------------------------------------------
    # when a flush is due: the one rule every adapter waits on
    # ------------------------------------------------------------------
    def anchor_clocks(self) -> None:
        """Start the flush clock and the metrics windows at *now*.  An
        adapter calls this when serving begins, so neither the first
        flush's ``observe_flush`` interval nor the first rates span the
        bootstrap (or a shard's wait for the rest of its cluster)."""
        self._last_flush_end = self._clock()
        self.metrics.reset_windows()

    def due_in(self) -> float | None:
        """Seconds until the next flush is due: ``0`` when it is due
        now, ``None`` when the queue is empty.  Expired deadlines are
        swept first.  A flush is due when the core is closing, when the
        selection holds ``max_batch`` requests, or when the oldest
        queued request has waited the policy's window; otherwise the
        answer is the time to the sooner of that window's end and the
        soonest queued deadline (a deadline that comes first is swept
        on the next call; it does not make a flush due)."""
        self.sweep_deadlines()
        if not self._queue:
            return None
        now = self._clock()
        due_at = self._queue[0].submitted_at + self.policy.window_s()
        if self._closing or now >= due_at:
            return 0.0
        if len(self._queue) >= self.max_batch and len(self._selection()) >= self.max_batch:
            return 0.0
        if self._deadlines_active:
            deadlines = [r.deadline_at for r in self._queue if r.deadline_at is not None]
            due_at = min([due_at, *deadlines])
        return due_at - now

    # ------------------------------------------------------------------
    # the flush
    # ------------------------------------------------------------------
    def _selection(self) -> list[R]:
        """The next flush, selected non-destructively (:meth:`due_in`
        sizes it without dequeuing): up to ``max_batch``
        requests of the lead kind, gathered across the queue, with every
        skipped request's node id barring later requests that name
        it."""
        kind = self._queue[0].kind
        barriers: set[NodeId] = set()
        batch: list[R] = []
        for request in self._queue:
            if (
                len(batch) < self.max_batch
                and request.kind == kind
                and (request.node is None or request.node not in barriers)
            ):
                batch.append(request)
            elif request.node is not None:
                barriers.add(request.node)
        return batch

    def _gather(self) -> tuple[str, list[R]]:
        """Dequeue the selection and screen it: the flush's kind and the
        requests to heal (none when the queue is empty or the screen
        refused the whole batch -- those are answered here)."""
        if not self._queue:
            return "", []
        batch = self._selection()
        selected = set(batch)  # Request hashes by identity
        self._queue = deque(r for r in self._queue if r not in selected)
        kind = batch[0].kind
        requests, refused = self._screen(kind, batch)
        for request, reason in refused:
            latency = self._clock() - request.submitted_at
            self.metrics.record_ack(latency, ok=False)
            self._answer(
                request, Ack(False, kind, request.node, reason, latency, len(batch))
            )
        return kind, requests

    def _phase(self, root: "_trace.Span | None", name: str) -> ContextManager[Any]:
        """Ambient child span of the flush root: the engine's ``core.*``
        / ``net.wave`` spans nest under the heal phase.  Nothing with
        tracing off."""
        if root is None:
            return _NO_SPAN
        return _trace.span(
            f"{self.span_prefix}.flush.{name}",
            trace_id=root.trace_id,
            parent_id=root.span_id,
        )

    def flush_once(self, root: "_trace.Span | None" = None) -> None:
        """One micro-batch -> one partial-batch heal call -> one
        individual ack per caller (module docstring, steps 1-5).
        ``root`` is the flush span an adapter already opened around its
        wait; otherwise the core opens one, continuing the trace of the
        first request that carries one."""
        self._shed_excess()
        self.sweep_deadlines()
        rec = _trace.current()
        kind, requests = self._gather()
        if not requests:
            if root is not None:
                rec.finish(root.set(empty=True))
            return
        if root is None and rec.enabled:
            lead = next((r for r in requests if r.trace is not None), None)
            root = rec.start(
                f"{self.span_prefix}.flush",
                trace_id=lead.trace[0] if lead is not None else None,
                parent_id=(
                    lead.span.span_id
                    if lead is not None and lead.span is not None
                    else None
                ),
            )
        if root is not None:
            root.set(kind=kind, batch=len(requests), **self._span_attrs)
        try:
            if kind == "join":
                payload: list = self._join_payload(requests)
                nodes = [new_id for new_id, _attach in payload]
                heal: Callable = self.net.insert_batch_partial
            else:
                payload = [request.node for request in requests]
                nodes = list(payload)
                heal = self.net.delete_batch_partial
            t0 = self._clock()
            with self._phase(root, "heal"):
                outcome = heal(payload)
            heal_s = self._clock() - t0
        except BaseException as exc:
            if root is not None:
                rec.finish(root.set(error=type(exc).__name__))
            self._fail_pending(requests, exc)
            raise
        with self._phase(root, "resolve"):
            reasons = {r.index: r.reason for r in outcome.rejected}
            now = self._clock()
            size = len(requests)
            for index, request in enumerate(requests):
                reason = reasons.get(index)
                latency = now - request.submitted_at
                self.metrics.record_ack(latency, ok=reason is None)
                self._on_resolved(request, reason is None)
                self._answer(
                    request,
                    Ack(reason is None, kind, nodes[index], reason, latency, size),
                )
            self.metrics.record_flush(size, heal_s)
        if root is not None:
            rec.finish(root)
        now = self._clock()
        self.policy.observe_flush(
            depth=len(self._queue),
            batch_size=size,
            heal_s=heal_s,
            interval_s=now - self._last_flush_end,
        )
        self._last_flush_end = now
        # Checkpoints sit *between* flushes: the heal call above has
        # returned, so the network is never mid-heal.  A staggered op may
        # still be in flight; ``checkpoint`` then postpones.
        if self.checkpoint_dir is not None:
            self._flushes_since_checkpoint += 1
            if self._flushes_since_checkpoint >= self.checkpoint_every:
                self.checkpoint()

    def _fail_pending(self, requests: list[R], exc: BaseException) -> None:
        """Engine-failure path: an engine exception (e.g. RecoveryError)
        is not a per-request rejection.  Surface it to every waiting
        caller -- the flushed batch AND everything still queued (the
        adapter's loop dies with the re-raise, so a queued caller would
        otherwise hang forever) -- and leave the core closing."""
        self._closing = True
        rec = _trace.current()
        requests = requests + list(self._queue)
        self._queue.clear()
        for request in requests:
            self._fail(request, exc)
            if request.span is not None:
                rec.finish(request.span.set(error=type(exc).__name__))
                request.span = None

    def _join_payload(self, requests: list[R]) -> list[tuple[NodeId, NodeId]]:
        """Concrete ``(new_id, attach_to)`` pairs: pinned ids kept,
        fresh consecutive ids otherwise (skipping pinned, reserved and
        live ones); missing attach hints filled with uniform live
        samples from the core's own rng (stale pinned hints are left for
        the engine to reject per-request)."""
        explicit = {r.node for r in requests if r.node is not None}
        reserved = self._reserved
        has_node = self.net.graph.has_node
        pairs: list[tuple[NodeId, NodeId]] = []
        nid: NodeId | None = None
        for request in requests:
            if request.node is not None:
                new_id = request.node
            else:
                nid = self.net.fresh_id() if nid is None else nid + 1
                while nid in explicit or nid in reserved or has_node(nid):
                    nid += 1
                new_id = nid
            attach = (
                request.attach_hint
                if request.attach_hint is not None
                else self.net.sample_node(self._rng)
            )
            pairs.append((new_id, attach))
        return pairs

    # ------------------------------------------------------------------
    # operator surface: start report, audit
    # ------------------------------------------------------------------
    def ready_report(self) -> dict:
        """What this core is about to serve and where it came from (the
        row ``serve`` prints and a worker ships as its ``ready``
        message).  Taken before the first flush, when a
        ``last_checkpoint`` can only be the one ``net`` was restored
        from."""
        source = self.last_checkpoint
        return {
            "size": self.net.size,
            "step": self.net.step_count,
            "restored": source is not None,
            "checkpoint": str(source) if source is not None else None,
        }

    def audit(self, include_nodes: bool = False) -> dict:
        """The full I1-I8 + cache + coordinator oracle over ``net``, as
        one row of a cluster audit.  Reports, never raises; callers must
        know the engine is idle (between flushes)."""
        from repro.core import invariants

        errors: list[str] = []
        try:
            invariants.check_all(self.net.overlay, self.net.config)
            invariants.check_cached_aggregates(self.net.overlay)
            if not self.net.coordinator.verify():
                errors.append("coordinator counters diverged")
        except Exception as exc:  # noqa: BLE001 -- audit reports, never raises
            errors.append(f"{type(exc).__name__}: {exc}")
        row: dict = {
            "size": self.net.size,
            "invariants_ok": not errors,
            "errors": errors,
            "queue_depth": len(self._queue),
        }
        if include_nodes:
            row["nodes"] = sorted(self.net.nodes())
        return row

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint_now(self) -> Path:
        """Write one checkpoint synchronously (callers outside a flush
        loop must know the engine is idle -- the core itself only calls
        this between flushes).  Prunes to ``checkpoint_keep`` and fires
        ``on_checkpoint`` *after* the snapshot is durable, so a
        subscriber's bookkeeping (e.g. the fault harness's ack journal)
        is always covered by an on-disk checkpoint."""
        if self.checkpoint_dir is None:
            raise SnapshotError("no checkpoint_dir configured")
        from repro.persist.snapshot import prune_checkpoints, save_snapshot

        if self.on_before_checkpoint is not None:
            self.on_before_checkpoint(self.net.step_count)
        path = save_snapshot(self.net, self.checkpoint_dir)
        prune_checkpoints(self.checkpoint_dir, self.checkpoint_keep)
        self._checkpoints_written.inc()
        self.last_checkpoint = path
        if self.on_checkpoint is not None:
            self.on_checkpoint(self.net.step_count, path)
        return path

    def checkpoint(self) -> Path | None:
        """A checkpoint attempt that cannot take the service down: a
        full disk or a snapshot refusal is counted
        (``checkpoint_errors``) and serving goes on -- losing durability
        is strictly better than hanging every queued caller.  A
        staggered type-2 op advances one chunk per event, so it stays in
        flight across flushes, and its two-layer state cannot be
        snapshotted: while one is in flight the attempt is postponed --
        nothing fired or counted, the checkpoint still due at the next
        flush.  ``None`` when it failed, was postponed or no
        ``checkpoint_dir`` is configured."""
        if self.net.staggered is not None:
            return None
        self._flushes_since_checkpoint = 0
        if self.checkpoint_dir is None:
            return None
        try:
            return self.checkpoint_now()
        except (SnapshotError, OSError):
            self._checkpoint_errors.inc()
            return None

    def settle(self) -> dict:
        """The last step of a drain, once the queue is empty: run an
        in-flight staggered op to completion (``force_complete``; no
        caller waits on it any more, so the per-step bound is not at
        stake) and write the final checkpoint.  The op is left alone
        when there is no ``checkpoint_dir`` to write to."""
        op = self.net.staggered
        completed = op is not None and self.checkpoint_dir is not None
        if completed:
            op.force_complete(CostLedger())
        final = self.checkpoint()
        return {
            "final_checkpoint": str(final) if final is not None else None,
            "op_completed": completed,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_errors": self.checkpoint_errors,
        }
