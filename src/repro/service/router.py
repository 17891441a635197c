"""The shard router: one asyncio process fronting N single-threaded
shard workers, each owning a contiguous id region of the overlay
(:mod:`repro.service.shard`).

The router presents the *gateway's* client surface -- ``await join()``
/ ``await leave()`` resolving to :class:`~repro.service.gateway.Ack`,
plus ``metrics`` and a ``net.nodes()`` view -- so every load generator
in :mod:`repro.service.loadgen` drives a sharded cluster unchanged, and
the gateway's *operator* surface (the one
:func:`repro.service.open_service` documents), so ``serve``, the soak
harness and the fault drills do too.  Under the surface each request is
hashed to its owning shard (ownership is pure id arithmetic,
:class:`~repro.service.shard.ShardMap`), batched per shard, and
correlated back by request id.

**Routing rules.**  A ``leave`` goes to the victim's owner.  A pinned
join goes to the pinned id's owner; if its attach hint lives on a
*different* shard the join becomes a two-phase reserve-then-commit
handoff (see the :mod:`~repro.service.shard` module docstring).  An
unpinned join follows its hint's owner when hinted, else round-robins
over the *live* shards -- which is also the whole rebalancing story:
a dead shard drops out of the rotation (its region's requests are
*answered* with ``shard N unavailable`` rejections, never hung), and a
shard restarted from its checkpoint rejoins it.

**Failure containment.**  A worker death surfaces as pipe EOF (or a
``fatal`` message); the router marks the shard down, fails its
in-flight requests with answered rejections, and keeps serving the
other regions.  A router-side deadline sweeper backstops requests
parked anywhere -- including mid-handoff -- so no future ever hangs.

The :class:`ShardHandle` seam keeps all of this testable without
processes: :class:`InlineShardHandle` drives a real
:class:`~repro.service.shard.ShardServer` synchronously (fake clocks
and deterministic kills included), while :class:`ProcessShardHandle`
speaks the same message protocol over a spawn-context pipe.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.errors import GatewayClosed, ShardError
from repro.obs import trace as _trace
from repro.obs.registry import MetricsRegistry
from repro.service.flush import DEADLINE_REASON, DEFAULT_QUEUE_LIMIT, Ack
from repro.service.metrics import ServiceMetrics, aggregate_snapshots
from repro.service.shard import (
    MSG_ACKS,
    MSG_CONTROL,
    MSG_CTL_REPLY,
    MSG_DRAINED,
    MSG_FATAL,
    MSG_READY,
    MSG_REQUESTS,
    ShardMap,
    ShardServer,
    finish_drain,
    handle_message,
)
from repro.types import NodeId

_EOF = object()


class InlineShardHandle:
    """A :class:`~repro.service.shard.ShardServer` behind the worker
    message protocol, processed synchronously in the caller's thread.
    The reply queue is read exactly like a pipe (blocking ``recv`` with
    an EOF sentinel), so the router cannot tell it from a process --
    which is the point: every router behavior short of true parallelism
    is testable deterministically, including crashes (:meth:`kill`
    makes ``send`` raise and ``recv`` report EOF, exactly like a dead
    worker's pipe)."""

    def __init__(self, server: ShardServer) -> None:
        self.server = server
        self.index = server.index
        self._replies: queue.Queue = queue.Queue()
        self._alive = True
        self._replies.put((MSG_READY, server.ready_report()))

    def send(self, msg: tuple[str, Any]) -> None:
        if not self._alive:
            raise BrokenPipeError(f"shard {self.index} killed")
        kind, payload = msg
        if handle_message(self.server, kind, payload, self._replies.put):
            finish_drain(self.server, self._replies.put)
            self.close()
        elif kind == MSG_REQUESTS:
            self.pump()

    def pump(self) -> None:
        """Run due flushes/sweeps and ship whatever was answered (door
        rejections included).  Also called outside a ``send`` -- how
        tests make time-driven behavior (deadlines, TTL expiry)
        observable."""
        acks = self.server.sweep()
        while self.server.due_in() == 0:
            acks.extend(self.server.flush())
        acks.extend(self.server.take_acks())  # what due_in swept
        if acks:
            self._replies.put((MSG_ACKS, acks))

    def recv(self) -> tuple[str, Any]:
        item = self._replies.get()
        if item is _EOF:
            raise EOFError(f"shard {self.index} closed")
        return item

    def close(self) -> None:
        self._alive = False
        self._replies.put(_EOF)

    #: a simulated worker crash is the same thing: in-server state
    #: (reservations included) dies with it; the router sees EOF
    kill = close

    def join_process(self) -> None:  # protocol parity with processes
        return None


class ProcessShardHandle:
    """One spawn-context worker process running
    :func:`~repro.service.shard.shard_worker_main`, reached over a
    duplex pipe.  ``recv`` blocks (the router runs it on the executor);
    a dead worker closes the pipe, which ``recv`` reports as EOF."""

    def __init__(self, index: int, cfg: dict, *, ctx: Any = None) -> None:
        import multiprocessing as mp

        from repro.service.shard import shard_worker_main

        ctx = ctx or mp.get_context("spawn")
        self.index = index
        self.cfg = cfg
        parent, child = ctx.Pipe()
        self._conn = parent
        self.process = ctx.Process(
            target=shard_worker_main, args=(child, cfg), daemon=True
        )
        self.process.start()
        child.close()

    def send(self, msg: tuple[str, Any]) -> None:
        self._conn.send(msg)

    def recv(self) -> tuple[str, Any]:
        return self._conn.recv()

    def poll(self, timeout: float = 0.0) -> bool:
        return self._conn.poll(timeout)

    def fileno(self) -> int:
        return self._conn.fileno()

    def kill(self) -> None:
        self.process.kill()

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass

    def join_process(self, timeout: float = 10.0) -> None:
        self.process.join(timeout)
        self.close()


@dataclass(eq=False)
class _Pending:
    future: asyncio.Future
    shard: int
    kind: str
    node: NodeId | None
    submitted_at: float
    deadline_at: float | None
    #: the open router-side span for this request (tracing on only);
    #: finished wherever the future resolves
    span: "_trace.Span | None" = None


@dataclass(eq=False)
class _PendingCtl:
    """An outstanding control verb.  ``deadline_at`` is never ``None``:
    a control future a *wedged* (alive but silent) shard never answers
    would otherwise hang its caller forever -- and a handoff awaiting
    ``reserve``/``pin`` would hang the client with it, past any client
    deadline.  The sweeper answers expired entries with ``None``, the
    same "no answer" outcome as a dead shard."""

    future: asyncio.Future
    shard: int
    deadline_at: float


#: control verbs that are phases of a client-facing handoff: bounded by
#: the handoff TTL (a reply arriving later is protocol-stale anyway --
#: the server-side reservation/pin it refers to has expired)
_HANDOFF_VERBS = frozenset({"reserve", "pin", "release", "unpin"})


class ShardRouter:
    """Client-facing front of a sharded membership cluster.  Built over
    a list of :class:`ShardHandle`-shaped objects; :func:`start_cluster`
    is the process-backed convenience constructor."""

    def __init__(
        self,
        handles: Sequence[Any],
        *,
        shard_map: ShardMap | None = None,
        cfgs: list[dict] | None = None,
        deadline_ms: float | None = None,
        handoff_ttl_s: float = 2.0,
        sweep_interval_s: float = 0.05,
        ctl_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.perf_counter,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        handles = list(handles)
        if not handles:
            raise ShardError("a router needs at least one shard handle")
        self.shard_map = shard_map or ShardMap(len(handles))
        if len(handles) != self.shard_map.shards:
            raise ShardError(
                f"router built over {len(handles)} handles for a map of "
                f"{self.shard_map.shards} shards"
            )
        self.handles: dict[int, object] = {h.index: h for h in handles}
        if sorted(self.handles) != list(range(self.shard_map.shards)):
            raise ShardError("shard handle indices must cover 0..shards-1")
        self._cfgs = {c["index"]: c for c in cfgs} if cfgs else {}
        self.deadline_ms = deadline_ms
        self.handoff_ttl_s = handoff_ttl_s
        self.sweep_interval_s = sweep_interval_s
        #: answer bound for operator controls (stats/audit/...) toward a
        #: wedged shard; handoff phases use the tighter ``handoff_ttl_s``
        self.ctl_timeout_s = ctl_timeout_s
        self._clock = clock
        self.metrics = metrics or ServiceMetrics(clock=clock)
        self._rids = itertools.count(1)
        self._pending: dict[int, _Pending] = {}
        self._pending_ctl: dict[int, _PendingCtl] = {}
        self._outbox: dict[int, list] = {i: [] for i in self.handles}
        self._outbox_scheduled: set[int] = set()
        self._down: dict[int, str] = {}
        self._drained: dict[int, dict] = {}
        self._drain_event: asyncio.Event | None = None
        self._readers: dict[int, asyncio.Task] = {}
        self._sweeper: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closing = False
        self._rr = 0
        self.net = _ClusterView()
        #: shard -> its latest start report (``nodes`` dropped: the
        #: cluster view absorbed them) -- size, step, restored-from
        self.ready: dict[int, dict] = {}
        #: the handoff ledger, one registry counter per outcome (audited:
        #: attempted == terminal outcomes + in flight) plus shard failures
        self._handoffs = {
            name: self.metrics.registry.counter(
                f"dex.handoffs.{name}", f"two-phase handoff ledger: {name}"
            )
            for name in ("attempted", "committed", "rejected", "expired", "shard_failures")
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Consume every shard's ready report (bootstrap membership
        seeds the cluster view), then run one reader task per shard and
        the deadline sweeper."""
        self._loop = asyncio.get_running_loop()
        for index in sorted(self.handles):
            await self._consume_ready(index)
        for index in sorted(self.handles):
            self._readers[index] = self._loop.create_task(
                self._reader(index), name=f"shard-reader-{index}"
            )
        self._drain_event = asyncio.Event()
        self._sweeper = self._loop.create_task(
            self._sweep_deadlines(), name="router-deadline-sweeper"
        )
        # Re-anchor the elapsed clock now that every worker has finished
        # bootstrapping: throughput reads as events over *serving* time,
        # not bootstrap + serving time (at large n the bootstrap wait
        # would otherwise dominate and understate events/s).
        self.metrics.reset_windows()

    async def _consume_ready(self, index: int) -> dict:
        handle = self.handles[index]
        while True:
            kind, payload = await self._loop.run_in_executor(None, handle.recv)
            if kind == MSG_READY:
                self.net.absorb(payload.pop("nodes"))
                self.ready[index] = payload
                return payload
            if kind == MSG_FATAL:
                raise ShardError(
                    f"shard {index} died during bootstrap:\n{payload}"
                )

    async def _reader(self, index: int) -> None:
        handle = self.handles[index]
        if hasattr(handle, "fileno"):
            await self._reader_fd(index, handle)
        else:
            await self._reader_executor(index, handle)

    async def _reader_fd(self, index: int, handle: Any) -> None:
        """Event-loop-native reader for pipe-backed handles: the fd is
        registered with ``add_reader`` and every available message is
        drained per wakeup.  No thread-pool hop per message -- at
        saturation the executor dispatch alone costs more than the
        pickle it delivers."""
        fd = handle.fileno()
        wakeup = asyncio.Event()
        self._loop.add_reader(fd, wakeup.set)
        try:
            while True:
                await wakeup.wait()
                wakeup.clear()
                while True:
                    try:
                        if not handle.poll(0):
                            break
                        kind, payload = handle.recv()
                    except (EOFError, OSError, BrokenPipeError):
                        self._mark_down(index, "pipe closed")
                        return
                    if not self._dispatch(index, kind, payload):
                        return
        finally:
            try:
                self._loop.remove_reader(fd)
            except (OSError, ValueError):  # pragma: no cover - closed fd
                pass

    async def _reader_executor(self, index: int, handle: Any) -> None:
        """Blocking-recv reader for handles without a file descriptor
        (the in-process test handles)."""
        while True:
            try:
                kind, payload = await self._loop.run_in_executor(
                    None, handle.recv
                )
            except (EOFError, OSError, BrokenPipeError):
                self._mark_down(index, "pipe closed")
                return
            if not self._dispatch(index, kind, payload):
                return

    def _dispatch(self, index: int, kind: str, payload: Any) -> bool:
        """Process one worker message; False ends the reader task."""
        if kind == MSG_ACKS:
            for ack in payload:
                self._resolve_ack(ack)
        elif kind == MSG_CTL_REPLY:
            entry = self._pending_ctl.pop(payload["rid"], None)
            if entry is not None and not entry.future.done():
                entry.future.set_result(payload)
        elif kind == MSG_DRAINED:
            self._drained[index] = payload
            if self._drain_event is not None:
                self._drain_event.set()
        elif kind == MSG_FATAL:
            self._mark_down(index, f"worker fatal: {payload.splitlines()[-1]}")
            return False
        return True

    def _mark_down(self, index: int, why: str) -> None:
        """A shard stopped talking.  During shutdown that is the normal
        end of a drained worker; otherwise it is a crash: take the shard
        out of rotation and *answer* everything in flight toward it."""
        if index in self._drained or self._closing:
            self._down.setdefault(index, "drained")
            return
        if index in self._down:
            return
        self._down[index] = why
        self._handoffs["shard_failures"].inc()
        reason = f"shard {index} unavailable ({why})"
        for rid in [r for r, p in self._pending.items() if p.shard == index]:
            self._answer_pending(self._pending.pop(rid), reason)
        for rid in [r for r, c in self._pending_ctl.items() if c.shard == index]:
            self._answer_ctl(rid)

    def _answer_ctl(self, rid: int) -> None:
        """Resolve a control future its shard will not answer (down,
        drained, wedged past its deadline) with ``None``."""
        entry = self._pending_ctl.pop(rid)
        if not entry.future.done():
            entry.future.set_result(None)

    def _live_shards(self) -> list[int]:
        return [i for i in self.handles if i not in self._down]

    def shard_is_live(self, index: int) -> bool:
        return index in self.handles and index not in self._down

    async def restart_shard(self, index: int, handle: Any = None) -> dict:
        """Bring a dead shard back -- from its checkpoint directory when
        process-backed (``restore=True`` worker config), or from a
        caller-built handle in inline tests -- and fold it back into the
        routing rotation."""
        if index not in self._down:
            raise ShardError(f"shard {index} is not down")
        old = self.handles[index]
        try:
            old.close()
        except Exception:  # noqa: BLE001 -- already dead
            pass
        if handle is None:
            cfg = self._cfgs.get(index)
            if cfg is None or not cfg.get("checkpoint_dir"):
                raise ShardError(
                    f"shard {index} has no checkpoint directory to restore from"
                )
            handle = ProcessShardHandle(index, {**cfg, "restore": True})
        self.handles[index] = handle
        self._outbox[index] = []
        ready = await self._consume_ready(index)
        del self._down[index]
        self._readers[index] = self._loop.create_task(
            self._reader(index), name=f"shard-reader-{index}"
        )
        return ready

    async def drain(self) -> dict:
        """Stop intake, drain every live shard (each queued request
        answered, final covering checkpoints written), and reap the
        workers.  Returns router + per-shard final stats around the
        gateway's drain summary (checkpoint columns summed over
        shards)."""
        pending = len(self._pending)
        self._closing = True
        for index in self._live_shards():
            self._flush_outbox(index)
            try:
                self.handles[index].send((MSG_CONTROL, ("drain", {})))
            except (BrokenPipeError, OSError):
                self._mark_down(index, "pipe closed")
        expected = set(self.handles)
        while expected - set(self._drained) - set(self._down):
            self._drain_event.clear()
            try:
                await asyncio.wait_for(self._drain_event.wait(), timeout=30.0)
            except asyncio.TimeoutError as exc:  # pragma: no cover
                raise ShardError(
                    f"shards {sorted(expected - set(self._drained))} "
                    "did not drain within 30s"
                ) from exc
        if self._sweeper is not None:
            self._sweeper.cancel()
        for index, handle in self.handles.items():
            try:
                handle.close()
            except Exception:  # noqa: BLE001
                pass
            handle.join_process()
        for task in self._readers.values():
            task.cancel()
        # Shutdown answers everything: anything still pending raced the
        # drain and is resolved here rather than left hanging.
        for rid in list(self._pending):
            self._answer_pending(self._pending.pop(rid), "gateway closed before heal")
        for rid in list(self._pending_ctl):
            self._answer_ctl(rid)
        per_shard = [self._drained[i] for i in sorted(self._drained)]
        finals = [row.get("final_checkpoint") for row in per_shard]
        return {
            "pending_answered": pending,
            "final_checkpoint": (
                ", ".join(finals) if finals and all(finals) else None
            ),
            "op_completed": any(row.get("op_completed") for row in per_shard),
            "checkpoints_written": sum(row.get("checkpoints_written", 0) for row in per_shard),
            "checkpoint_errors": sum(row.get("checkpoint_errors", 0) for row in per_shard),
            "router": self.metrics.snapshot(),
            "per_shard": per_shard,
            "handoffs": self.handoff_stats(),
        }

    # ------------------------------------------------------------------
    # client surface (the gateway's)
    # ------------------------------------------------------------------
    async def join(
        self,
        node_id: NodeId | None = None,
        attach_hint: NodeId | None = None,
        *,
        deadline_ms: float | None = None,
    ) -> Ack:
        """Route a join to the shard owning its pinned id (two-phase
        handoff when the hint lives elsewhere), to its hint's owner, or
        round-robin over live shards."""
        if self._closing:
            raise GatewayClosed("router is draining; no new requests accepted")
        deadline_ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        if node_id is None:
            if attach_hint is not None:
                try:
                    shard = self.shard_map.owner(attach_hint)
                except ShardError:
                    return self._door_ack(
                        "join",
                        None,
                        f"attach point {attach_hint} does not exist",
                    )
                return await self._submit(
                    shard, "join", None, attach_hint, deadline_ms
                )
            shard = self._next_live_shard()
            if shard is None:
                return self._door_ack("join", None, "no live shards")
            return await self._submit(shard, "join", None, None, deadline_ms)
        try:
            owner = self.shard_map.owner(node_id)
        except ShardError as exc:
            return self._door_ack("join", node_id, str(exc))
        if attach_hint is None:
            return await self._submit(owner, "join", node_id, None, deadline_ms)
        try:
            hint_owner = self.shard_map.owner(attach_hint)
        except ShardError:
            return self._door_ack(
                "join", node_id, f"attach point {attach_hint} does not exist"
            )
        if hint_owner == owner:
            return await self._submit(
                owner, "join", node_id, attach_hint, deadline_ms
            )
        return await self._handoff(
            node_id, attach_hint, owner, hint_owner, deadline_ms
        )

    async def leave(
        self, node_id: NodeId, *, deadline_ms: float | None = None
    ) -> Ack:
        if self._closing:
            raise GatewayClosed("router is draining; no new requests accepted")
        deadline_ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        try:
            owner = self.shard_map.owner(node_id)
        except ShardError as exc:
            return self._door_ack("leave", node_id, str(exc))
        return await self._submit(owner, "leave", node_id, None, deadline_ms)

    def _next_live_shard(self) -> int | None:
        live = self._live_shards()
        if not live:
            return None
        self._rr += 1
        return live[self._rr % len(live)]

    def _door_ack(self, kind: str, node: NodeId | None, reason: str) -> Ack:
        self.metrics.record_ack(0.0, ok=False)
        return Ack(False, kind, node, reason, 0.0, 0)

    def _submit(
        self,
        shard: int,
        kind: str,
        node: NodeId | None,
        attach_hint: NodeId | None,
        deadline_ms: float | None,
        *,
        rid: int | None = None,
        commit: bool = False,
        parent: "_trace.Span | None" = None,
    ) -> asyncio.Future:
        if not self.shard_is_live(shard):
            future = self._loop.create_future()
            future.set_result(
                self._door_ack(kind, node, f"shard {shard} unavailable")
            )
            return future
        rid = next(self._rids) if rid is None else rid
        now = self._clock()
        deadline_s = deadline_ms / 1e3 if deadline_ms is not None else None
        future = self._loop.create_future()
        rec = _trace.current()
        span: "_trace.Span | None" = None
        trace: tuple[str, str] | None = None
        if rec.enabled:
            # Explicit start/finish, never the ambient stack: the event
            # loop interleaves many requests on one thread.
            if parent is not None:
                span = rec.start(
                    "router.handoff.commit",
                    trace_id=parent.trace_id,
                    parent_id=parent.span_id,
                    shard=shard,
                )
            else:
                span = rec.start(
                    "router.request", kind=kind, node=node, shard=shard
                )
            trace = (span.trace_id, span.span_id)
        self._pending[rid] = _Pending(
            future,
            shard,
            kind,
            node,
            now,
            now + deadline_s if deadline_s is not None else None,
            span,
        )
        self._post(
            shard, (rid, kind, node, attach_hint, deadline_s, commit, trace)
        )
        return future

    def _answer_pending(self, pending: _Pending, reason: str) -> None:
        """Resolve an in-flight request router-side -- its shard will
        not (down, drained) or not in time (deadline) -- with a
        rejected ack no flush carried."""
        if pending.future.done():
            return
        latency = self._clock() - pending.submitted_at
        self.metrics.record_ack(latency, ok=False)
        ack = Ack(False, pending.kind, pending.node, reason, latency, 0)
        pending.future.set_result(ack)
        self._finish_pending_span(pending, ack)

    def _finish_pending_span(self, pending: _Pending, ack: Ack) -> None:
        sp = pending.span
        if sp is not None:
            pending.span = None
            sp.set(ok=ack.ok, reason=ack.reason)
            _trace.current().finish(sp)

    def _post(self, shard: int, req: tuple) -> None:
        """Coalesce sends: every request posted within one loop tick
        travels as a single pipe message."""
        self._outbox[shard].append(req)
        if shard not in self._outbox_scheduled:
            self._outbox_scheduled.add(shard)
            self._loop.call_soon(self._flush_outbox, shard)

    def _flush_outbox(self, shard: int) -> None:
        self._outbox_scheduled.discard(shard)
        batch = self._outbox[shard]
        if not batch or not self.shard_is_live(shard):
            self._outbox[shard] = []
            return
        self._outbox[shard] = []
        try:
            self.handles[shard].send((MSG_REQUESTS, batch))
        except (BrokenPipeError, OSError):
            self._mark_down(shard, "pipe closed")

    def _resolve_ack(self, ack: dict) -> None:
        pending = self._pending.pop(ack["rid"], None)
        if pending is None or pending.future.done():
            return  # already answered (deadline sweep / shard-down)
        latency = self._clock() - pending.submitted_at
        self.metrics.record_ack(latency, ok=ack["ok"])
        if ack["ok"] and ack["node"] is not None and pending.kind == "join":
            self.net.add(ack["node"])
        if ack["ok"] and pending.kind == "leave" and pending.node is not None:
            self.net.discard(pending.node)
        resolved = Ack(
            ack["ok"],
            ack["kind"],
            ack["node"],
            ack["reason"],
            latency,
            ack["batch_size"],
        )
        pending.future.set_result(resolved)
        self._finish_pending_span(pending, resolved)

    async def _sweep_deadlines(self) -> None:
        """Backstop: a request whose deadline passed is answered here
        even if its shard never speaks again (the acceptance bar is
        *zero hung futures*, under faults included).  Control futures
        are swept too: a shard that is alive but silent (wedged worker,
        stalled pipe) would otherwise hang a handoff at its ``reserve``
        or ``pin`` await forever -- the exact mid-handoff hole the
        async-safety static rule polices."""
        while True:
            await asyncio.sleep(self.sweep_interval_s)
            now = self._clock()
            expired = [
                rid
                for rid, p in self._pending.items()
                if p.deadline_at is not None and p.deadline_at <= now
            ]
            for rid in expired:
                pending = self._pending.pop(rid)
                if not pending.future.done():
                    self.metrics.record_timeout()
                    self._answer_pending(pending, DEADLINE_REASON)
            for rid in [r for r, c in self._pending_ctl.items() if c.deadline_at <= now]:
                self._answer_ctl(rid)

    # ------------------------------------------------------------------
    # two-phase handoff
    # ------------------------------------------------------------------
    async def _handoff(
        self,
        node: NodeId,
        hint: NodeId,
        owner: int,
        hint_owner: int,
        deadline_ms: float | None,
    ) -> Ack:
        """reserve(owner) -> pin(hint owner) -> commit(owner); each
        refusal or expiry unwinds what the previous phase acquired.  See
        :mod:`repro.service.shard` for why the committed attach point is
        a local sample (the hint is a liveness precondition, not an
        edge: DEX drops the adversarial attachment edge after healing,
        Algorithm 4.2 line 3)."""
        rec = _trace.current()
        if not rec.enabled:
            return await self._handoff_impl(
                node, hint, owner, hint_owner, deadline_ms, None
            )
        root = rec.start(
            "router.request",
            kind="join",
            node=node,
            shard=owner,
            handoff=True,
        )
        try:
            ack = await self._handoff_impl(
                node, hint, owner, hint_owner, deadline_ms, root
            )
            root.set(ok=ack.ok, reason=ack.reason)
            return ack
        finally:
            rec.finish(root)

    async def _handoff_phase(
        self,
        root: "_trace.Span | None",
        phase: str,
        shard: int,
        op: str,
        **args: Any,
    ) -> dict | None:
        """One traced handoff control leg: a ``router.handoff.<phase>``
        span (explicit parentage -- async code never uses the ambient
        stack) whose ids travel to the shard in ``args['trace']``."""
        rec = _trace.current()
        if root is None or not rec.enabled:
            return await self._control(shard, op, **args)
        sp = rec.start(
            f"router.handoff.{phase}",
            trace_id=root.trace_id,
            parent_id=root.span_id,
            shard=shard,
        )
        args["trace"] = (root.trace_id, sp.span_id)
        try:
            return await self._control(shard, op, **args)
        finally:
            rec.finish(sp)

    async def _handoff_impl(
        self,
        node: NodeId,
        hint: NodeId,
        owner: int,
        hint_owner: int,
        deadline_ms: float | None,
        root: "_trace.Span | None",
    ) -> Ack:
        self._handoffs["attempted"].inc()
        started_at = self._clock()
        deadline_at = (
            started_at + deadline_ms / 1e3 if deadline_ms is not None else None
        )
        rid = next(self._rids)
        reserve = await self._handoff_phase(
            root,
            "reserve",
            owner,
            "reserve",
            rid=rid,
            node=node,
            ttl_s=self.handoff_ttl_s,
            deadline_at=self._phase_deadline(deadline_at),
        )
        if reserve is None:
            if self._handoff_expired(deadline_at):
                # the reserve may have landed server-side after all;
                # fire-and-forget the unwind (the TTL backstops it)
                self._control(owner, "release", rid=rid, node=node)
                return self._expire_handoff(node, started_at)
            self._handoffs["rejected"].inc()
            return self._door_ack("join", node, f"shard {owner} unavailable")
        if not reserve["ok"]:
            self._handoffs["rejected"].inc()
            return self._door_ack("join", node, reserve["reason"])
        if self._handoff_expired(deadline_at):
            await self._control(owner, "release", rid=rid, node=node)
            return self._expire_handoff(node, started_at)
        pin = await self._handoff_phase(
            root,
            "pin",
            hint_owner,
            "pin",
            rid=rid,
            node=hint,
            ttl_s=self.handoff_ttl_s,
            deadline_at=self._phase_deadline(deadline_at),
        )
        if pin is None or not pin["ok"]:
            await self._control(owner, "release", rid=rid, node=node)
            if pin is None and self._handoff_expired(deadline_at):
                return self._expire_handoff(node, started_at)
            self._handoffs["rejected"].inc()
            reason = (
                pin["reason"]
                if pin is not None
                else f"shard {hint_owner} unavailable"
            )
            return self._door_ack("join", node, reason)
        if self._handoff_expired(deadline_at):
            await self._control(owner, "release", rid=rid, node=node)
            await self._control(hint_owner, "unpin", rid=rid, node=hint)
            return self._expire_handoff(node, started_at)
        remaining_ms = (
            max(0.0, (deadline_at - self._clock()) * 1e3)
            if deadline_at is not None
            else None
        )
        ack = await self._submit(
            owner,
            "join",
            node,
            None,
            remaining_ms,
            rid=rid,
            commit=True,
            parent=root,
        )
        await self._control(hint_owner, "unpin", rid=rid, node=hint)
        if ack.ok:
            self._handoffs["committed"].inc()
        elif ack.reason == DEADLINE_REASON:
            self._handoffs["expired"].inc()
        else:
            self._handoffs["rejected"].inc()
        return ack

    def _handoff_expired(self, deadline_at: float | None) -> bool:
        return deadline_at is not None and self._clock() >= deadline_at

    def _phase_deadline(self, deadline_at: float | None) -> float:
        """The answer bound of one handoff phase: the handoff TTL,
        tightened to the client's remaining budget when that is
        sooner."""
        ttl_at = self._clock() + self.handoff_ttl_s
        return ttl_at if deadline_at is None else min(ttl_at, deadline_at)

    def _expire_handoff(self, node: NodeId, started_at: float) -> Ack:
        self._handoffs["expired"].inc()
        self.metrics.record_timeout()
        latency = self._clock() - started_at
        self.metrics.record_ack(latency, ok=False)
        return Ack(False, "join", node, DEADLINE_REASON, latency, 0)

    def _control(
        self,
        shard: int,
        op: str,
        *,
        deadline_at: float | None = None,
        **args: Any,
    ) -> asyncio.Future:
        """Send one control verb; resolves with the reply dict, or
        ``None`` when the shard is (or goes) down *or never answers* --
        control callers always get an answer.  The default deadline is
        the handoff TTL for handoff phases (a later reply refers to
        server-side state that has already expired) and
        ``ctl_timeout_s`` for operator verbs; pass ``deadline_at`` to
        tighten it (e.g. to a client's remaining budget)."""
        future = self._loop.create_future()
        if not self.shard_is_live(shard):
            future.set_result(None)
            return future
        if deadline_at is None:
            budget = (
                self.handoff_ttl_s
                if op in _HANDOFF_VERBS
                else self.ctl_timeout_s
            )
            deadline_at = self._clock() + budget
        rid = args.get("rid")
        if rid is None:
            rid = next(self._rids)
            args["rid"] = rid
        self._pending_ctl[rid] = _PendingCtl(future, shard, deadline_at)
        self._flush_outbox(shard)  # keep request/control ordering
        try:
            self.handles[shard].send((MSG_CONTROL, (op, args)))
        except (BrokenPipeError, OSError):
            self._pending_ctl.pop(rid, None)
            self._mark_down(shard, "pipe closed")
            if not future.done():
                future.set_result(None)
        return future

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests in flight toward the shards (queued or healing)."""
        return len(self._pending)

    async def reset_metrics(self) -> None:
        """Re-anchor the router's and every live shard's elapsed/window
        clocks at *now*.  Benchmarks call this after a warmup phase so
        steady-state events/s excludes cold-cache CSR rebuilds."""
        waits = [
            self._control(index, "reset-metrics")
            for index in self._live_shards()
        ]
        for wait in waits:
            await wait
        self.metrics.reset()

    def publish_registry(self) -> MetricsRegistry:
        """The registry every router instrument lives in (end-to-end
        service metrics, the handoff ledger), with the gauges of live
        state -- handoffs in flight, rid bookkeeping, down shards -- set
        now."""
        registry = self.metrics.registry
        registry.gauge(
            "dex.handoffs.in_flight", "two-phase handoff ledger: in_flight"
        ).set(self.handoff_stats()["in_flight"])
        registry.gauge(
            "dex.router.pending_rids", "rid-correlated requests in flight"
        ).set(len(self._pending))
        registry.gauge(
            "dex.router.pending_ctl", "control verbs awaiting replies"
        ).set(len(self._pending_ctl))
        registry.gauge(
            "dex.router.down_shards", "shards out of rotation"
        ).set(len(self._down))
        return registry

    def handoff_stats(self) -> dict:
        count = {name: int(c.value) for name, c in self._handoffs.items()}
        terminal = count["committed"] + count["rejected"] + count["expired"]
        return {
            "attempted": count["attempted"],
            "committed": count["committed"],
            "rejected": count["rejected"],
            "expired": count["expired"],
            "in_flight": count["attempted"] - terminal,
            "shard_failures": count["shard_failures"],
        }

    async def stats(self) -> dict:
        """Router end-to-end snapshot + per-shard worker snapshots +
        the cross-shard rollup (counters summed, quantiles upper-bounded
        by the worst shard)."""
        per_shard = []
        for index in self._live_shards():
            reply = await self._control(index, "stats")
            if reply is not None and reply.get("ok"):
                per_shard.append(reply["stats"])
        return {
            "router": self.metrics.snapshot(),
            "per_shard": per_shard,
            "rollup": aggregate_snapshots(per_shard) if per_shard else None,
            "handoffs": self.handoff_stats(),
            "down_shards": dict(self._down),
        }

    async def cluster_audit(self, include_nodes: bool = True) -> dict:
        """The differential acceptance check, cluster-wide: every live
        shard passes its local I1-I8 + coordinator oracle, every live id
        is inside its owner's region (hence owned by *exactly one*
        shard), node sets are pairwise disjoint, no reserved id is live
        anywhere, and the handoff ledger balances (nothing duplicated,
        nothing lost)."""
        errors: list[str] = []
        rows = []
        for index in self._live_shards():
            reply = await self._control(
                index, "audit", include_nodes=include_nodes
            )
            if reply is None or not reply.get("ok"):
                errors.append(f"shard {index} unreachable during audit")
                continue
            rows.append(reply["audit"])
        for row in rows:
            if not row["invariants_ok"]:
                errors.append(f"shard {row['shard']}: {row['errors']}")
        if include_nodes:
            seen: dict[NodeId, int] = {}
            for row in rows:
                for u in row.get("nodes", []):
                    if u in seen:
                        errors.append(
                            f"id {u} owned by both shard {seen[u]} "
                            f"and shard {row['shard']}"
                        )
                    seen[u] = row["shard"]
                    if self.shard_map.owner(u) != row["shard"]:
                        errors.append(
                            f"id {u} lives on shard {row['shard']} but is "
                            f"owned by shard {self.shard_map.owner(u)}"
                        )
                for r in row.get("reservations", []):
                    if r in seen and seen[r] != row["shard"]:
                        errors.append(
                            f"reserved id {r} is already live on shard {seen[r]}"
                        )
        ledger = self.handoff_stats()
        if ledger["in_flight"] < 0:
            errors.append(f"handoff ledger overdrawn: {ledger}")
        return {
            "ok": not errors,
            "errors": errors,
            "shards": rows,
            "total_nodes": sum(row["size"] for row in rows),
            "handoffs": ledger,
        }


class _ClusterView:
    """The ``gateway.net``-shaped membership view the load generators
    sample from: bootstrap ids absorbed at start, then maintained from
    acks.  Approximate by design (the shards own the truth); the
    generators only need a plausible victim/hint population."""

    def __init__(self) -> None:
        self._ids: set[NodeId] = set()

    def absorb(self, ids: Iterable[NodeId]) -> None:
        self._ids.update(ids)

    def add(self, node: NodeId) -> None:
        self._ids.add(node)

    def discard(self, node: NodeId) -> None:
        self._ids.discard(node)

    def nodes(self) -> list[NodeId]:
        return sorted(self._ids)

    @property
    def size(self) -> int:
        return len(self._ids)


async def start_cluster(
    total_n: int,
    shards: int,
    *,
    seed: int = 0,
    max_batch: int = 64,
    window_ms: float = 2.0,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    policy: str = "fixed",
    checkpoint_root: str | Path | None = None,
    checkpoint_every: int = 32,
    deadline_ms: float | None = None,
    handoff_ttl_s: float = 2.0,
    checkpoint_keep: int = 3,
    restore: bool = False,
) -> ShardRouter:
    """Spawn ``shards`` worker processes and return a started router
    over them.  ``total_n`` bootstrap nodes are split across the worker
    configs (remainder to the low shards), each with its own seed
    stream, id region and ``checkpoint_root/shard-<i>`` directory; with
    ``restore`` every worker starts from the newest checkpoint there
    instead.  ``queue_limit`` and the admission ``policy`` name apply
    per shard: a shard's door rejections and sheds travel back as
    ordinary rejected acks."""
    shard_map = ShardMap(shards)
    base, rem = divmod(total_n, shards)
    if base < 3:
        raise ShardError(
            f"{total_n} nodes over {shards} shards leaves fewer than the "
            "3-node minimum per shard"
        )
    cfgs = [
        {
            "index": index,
            "shards": shards,
            "n_local": base + (1 if index < rem else 0),
            "seed": seed + 1000 * index,
            "max_batch": max_batch,
            "window_ms": window_ms,
            "queue_limit": queue_limit,
            "policy": policy,
            "checkpoint_dir": (
                str(Path(checkpoint_root) / f"shard-{index}")
                if checkpoint_root is not None
                else None
            ),
            "checkpoint_every": checkpoint_every,
            "checkpoint_keep": checkpoint_keep,
            "restore": restore,
        }
        for index in range(shards)
    ]
    handles = [ProcessShardHandle(cfg["index"], cfg) for cfg in cfgs]
    router = ShardRouter(
        handles,
        shard_map=shard_map,
        cfgs=cfgs,
        deadline_ms=deadline_ms,
        handoff_ttl_s=handoff_ttl_s,
    )
    await router.start()
    return router
