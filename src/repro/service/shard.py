"""One shard of the sharded membership service: a contiguous id region
with its own :class:`~repro.core.dex.DexNetwork` partition.

A cluster of S shards serves S independent DEX overlays: each shard
heals only its own, no edge joins two shards, and the union is *not*
one expander -- the cluster partitions the membership, not one overlay.
A shard owns the contiguous id region
``[index * SHARD_STRIDE, (index+1) * SHARD_STRIDE)``, bootstrapped via
``DexNetwork.bootstrap(id_base=...)`` so every id the shard ever mints
(``fresh_id`` is monotone from the bootstrap ids) stays inside the
region.  Ownership is therefore a pure function of the id
(:meth:`ShardMap.owner`), the property the router's hashing relies on.

A :class:`ShardServer` is deliberately *synchronous*: one thread, one
network, and the same :class:`~repro.service.flush.FlushCore` the
gateway runs (queue, selection, admission policy, deadline sweep, heal
call, acks, checkpoints) -- the event-loop machinery lives in the router
process, and a lean worker keeps the per-event overhead of the sharded
path close to the engine cost.  This module adds what is shard-specific:
the reservation/pin table and its pre-heal screen, commit consumption,
the region check on top of the core's audit, the control verbs and the
pipe loop, which polls its pipe for as long as
:meth:`~repro.service.flush.FlushCore.due_in` says (the gateway's rule:
one rule, two ways of waiting).  The operator surface of
:func:`repro.service.open_service` reaches a shard only as router
verbs.  It is driven two ways, both through :func:`handle_message`:

* in-process (tests, :class:`~repro.service.router.InlineShardHandle`):
  call :meth:`submit` / :meth:`flush` / the control verbs directly, with
  an injectable clock for deterministic TTL tests;
* as a worker process (:func:`shard_worker_main`): the same server
  behind a duplex pipe, speaking the small tuple protocol of
  :data:`MSG_REQUESTS` / :data:`MSG_CONTROL`, modeled on the
  one-process-per-point fan-out of ``repro.harness.perf --sweep`` and
  checkpointing into its own ``persist``-format directory for crash
  safety.

**Two-phase cross-shard handoff.**  A join that pins an id owned by
shard A while hinting at a node owned by shard B resolves as
reserve-then-commit:

1. ``reserve`` on A parks the id in a TTL'd reservation table -- a
   concurrent join of the same id is rejected cleanly, and if the
   router (or either shard) dies mid-handoff the reservation simply
   expires: the id is *never stranded*.
2. ``pin`` on B proves the hint is live and protects it from deletion
   for the TTL (a delete flush answers a pinned victim with a clean
   per-request rejection), so the liveness fact the commit relies on
   cannot be invalidated mid-handoff.
3. ``commit`` on A turns the reservation into an ordinary pinned join
   through the normal flush path (attached at a *local* sample -- DEX
   drops the adversarial attachment edge after healing anyway,
   Algorithm 4.2 line 3, so the hint is a liveness precondition, not
   an edge).  Either side's refusal unwinds the other: a nak from B
   releases A's reservation, a commit rejection drops it.

Reservation and pin sweeps run at every flush, so expiry needs no extra
timer.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ShardError
from repro.obs import trace as _trace
from repro.service.flush import (
    DEADLINE_REASON,  # noqa: F401  (re-export: tests and older callers read it here)
    DEFAULT_QUEUE_LIMIT,
    Ack,
    FlushCore,
    Request,
)
from repro.service.metrics import ServiceMetrics
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dex import DexNetwork

#: width of each shard's id region.  Large enough that a shard can mint
#: fresh ids monotonically for the lifetime of any deployment without
#: leaving its region; small enough that region arithmetic stays exact
#: in a float-free int world.
SHARD_STRIDE = 1 << 40

#: message kinds of the worker pipe protocol (parent -> child)
MSG_REQUESTS = "req"
MSG_CONTROL = "ctl"
#: child -> parent
MSG_ACKS = "acks"
MSG_CTL_REPLY = "ctl-reply"
MSG_READY = "ready"
MSG_DRAINED = "drained"
MSG_FATAL = "fatal"

#: reason strings of shard-level rejections (tested verbatim)
RESERVED_REASON = "reserved by an in-flight handoff"
PINNED_REASON = "pinned by an in-flight handoff"


class ShardMap:
    """Pure id-region arithmetic: which shard owns which ids."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ShardError(f"need at least one shard, got {shards}")
        self.shards = shards

    def owner(self, node: NodeId) -> int:
        """The index of the shard owning ``node``; raises
        :class:`~repro.errors.ShardError` for ids outside every
        region."""
        if node < 0 or node >= self.shards * SHARD_STRIDE:
            raise ShardError(
                f"id {node} is outside every shard region "
                f"(shards={self.shards}, stride=2^40)"
            )
        return node // SHARD_STRIDE

    def id_base(self, index: int) -> NodeId:
        return self._checked(index) * SHARD_STRIDE

    def region(self, index: int) -> tuple[NodeId, NodeId]:
        """Half-open id interval ``[lo, hi)`` owned by shard
        ``index``."""
        base = self.id_base(index)
        return base, base + SHARD_STRIDE

    def _checked(self, index: int) -> int:
        if not 0 <= index < self.shards:
            raise ShardError(
                f"shard index {index} out of range for {self.shards} shards"
            )
        return index


@dataclass(eq=False)
class _ShardRequest(Request):
    """A core request whose ``ticket`` is the router's request id."""

    #: set on commit joins: resolving this request (either way) consumes
    #: the reservation it rode in on
    commit: bool = False


class ShardServer(FlushCore[_ShardRequest]):
    """One shard: a region-owning network partition behind the shared
    flush core, plus what only a shard has -- the TTL'd reservation/pin
    table and its screening, the region audit, and acks serialised to
    rid-correlated pipe dicts.  Everything the worker process does is a
    method here, so tests drive shards in-process with a fake clock."""

    span_prefix = "shard"

    def __init__(
        self,
        index: int,
        net: "DexNetwork",
        *,
        shard_map: ShardMap,
        max_batch: int = 64,
        window_ms: float = 2.0,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 32,
        checkpoint_keep: int = 3,
        seed: int | None = None,
        clock: Callable[[], float] = time.perf_counter,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        super().__init__(
            net,
            max_batch=max_batch,
            window_s=window_ms / 1e3,
            seed=seed,
            clock=clock,
            metrics=metrics,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            checkpoint_keep=checkpoint_keep,
        )
        self.index = index
        self.shard_map = shard_map
        self.region = shard_map.region(index)
        self._span_attrs = {"shard": index}
        #: pinned id -> (reserving rid, expiry instant); fresh-id minting
        #: skips these (a reservation holds the id for its handoff)
        self.reservations: dict[NodeId, tuple[int, float]] = {}
        self._reserved = self.reservations
        #: protected attach hints -> {pinning rid -> expiry instant}.
        #: Keyed per handoff so two concurrent handoffs sharing one
        #: attach hint each hold their own pin: one side's unpin (or
        #: expiry) never drops the other's deletion protection.
        self.pins: dict[NodeId, dict[int, float]] = {}
        self.reservations_expired = 0
        #: set by the first request message (:func:`handle_message`)
        self.serving = False
        self.handoffs_committed = 0
        #: answered since the last :meth:`take_acks`, in pipe form
        self._acks: list[dict] = []

    # ------------------------------------------------------------------
    # intake / answers
    # ------------------------------------------------------------------
    def submit(
        self,
        rid: int,
        kind: str,
        node: NodeId | None,
        attach_hint: NodeId | None,
        deadline_s: float | None = None,
        commit: bool = False,
        trace: tuple[str, str] | None = None,
    ) -> None:
        """Queue one request (or answer it at the door).  ``deadline_s``
        is *remaining* seconds at send time -- wall clocks are not
        comparable across processes, so the worker re-anchors the
        deadline on its own clock at receipt.  ``trace`` is the router's
        ``(trace_id, parent_span_id)`` pair: the shard's spans for this
        request continue that trace, so a cross-shard join is one
        coherent timeline."""
        self.enqueue(
            _ShardRequest(kind, node, attach_hint, rid, trace=trace, commit=commit),
            deadline_s,
        )

    def _emit(self, request: _ShardRequest, ack: Ack) -> None:
        self._acks.append({"rid": request.ticket, **vars(ack)})

    def take_acks(self) -> list[dict]:
        """The rid-correlated ack dicts of everything answered since the
        last call -- flushed, swept, shed or refused at the door."""
        acks, self._acks = self._acks, []
        return acks

    # ------------------------------------------------------------------
    # the flush loop: FlushCore.due_in says when, the caller waits
    # ------------------------------------------------------------------
    def _expire_holds(self) -> None:
        """Drop reservations and pins past their TTL.  Runs at every
        flush and sweep, so expiry needs no extra timer."""
        now = self._clock()
        expired = [
            node
            for node, (_rid, expires) in self.reservations.items()
            if expires <= now
        ]
        for node in expired:
            del self.reservations[node]
        self.reservations_expired += len(expired)
        for node, holders in list(self.pins.items()):
            for rid in [r for r, expires in holders.items() if expires <= now]:
                del holders[rid]
            if not holders:
                del self.pins[node]

    def sweep(self) -> list[dict]:
        """Expire reservations, pins and queued deadlines on demand;
        returns the acks answered so far."""
        self._expire_holds()
        self.sweep_deadlines()
        return self.take_acks()

    def flush(self) -> list[dict]:
        """One micro-batch through the core; returns the ack dicts for
        everything answered, sweeps included."""
        self._expire_holds()
        self.flush_once()
        return self.take_acks()

    def _screen(
        self, kind: str, batch: list[_ShardRequest]
    ) -> tuple[list[_ShardRequest], list[tuple[_ShardRequest, str]]]:
        """Shard-level admission ahead of the engine: a join naming a
        *reserved* id is refused unless it is the reserving handoff's
        own commit; a leave naming a *pinned* hint is refused while the
        pin lives.  Both answers are clean per-request rejections."""
        survivors: list[_ShardRequest] = []
        refused: list[tuple[_ShardRequest, str]] = []
        for request in batch:
            reason = None
            if kind == "join" and request.node is not None:
                held = self.reservations.get(request.node)
                if held is not None and not (
                    request.commit and held[0] == request.ticket
                ):
                    reason = f"node id {request.node} {RESERVED_REASON}"
                elif request.commit and held is None:
                    reason = (
                        f"reservation for node id {request.node} expired "
                        "before commit"
                    )
            elif kind == "leave" and request.node in self.pins:
                reason = f"node {request.node} {PINNED_REASON}"
            if reason is None:
                survivors.append(request)
            else:
                refused.append((request, reason))
        return survivors, refused

    def _on_resolved(self, request: _ShardRequest, ok: bool) -> None:
        if request.commit and request.node is not None:
            # The handoff ends with this answer either way: consume the
            # reservation so the id is immediately free again on a
            # rejection (never stranded).
            self.reservations.pop(request.node, None)
            if ok:
                self.handoffs_committed += 1

    def drain(self) -> tuple[list[dict], dict]:
        """Flush until the queue is empty (every queued request
        answered, the backlog healed rather than shed), then settle (an
        in-flight op completed, a final covering checkpoint written):
        the backlog's acks and the settle summary."""
        self._closing = True
        acks = self.take_acks()
        while self._queue:
            acks.extend(self.flush())
        return acks, self.settle()

    # ------------------------------------------------------------------
    # handoff control verbs
    # ------------------------------------------------------------------
    def reserve(self, rid: int, node: NodeId, ttl_s: float) -> dict:
        """Phase 1 (owner side): park ``node`` for handoff ``rid``.  The
        reservation self-expires after ``ttl_s`` -- a crash anywhere in
        the handoff can only ever *delay* the id, never strand it."""
        self._expire_holds()
        lo, hi = self.region
        if not lo <= node < hi:
            return self._nak(rid, f"shard {self.index} does not own id {node}")
        if self.net.graph.has_node(node):
            return self._nak(rid, f"node id {node} already exists")
        held = self.reservations.get(node)
        if held is not None and held[0] != rid:
            return self._nak(rid, f"node id {node} {RESERVED_REASON}")
        self.reservations[node] = (rid, self._clock() + ttl_s)
        return {"rid": rid, "ok": True, "reason": None}

    def release(self, rid: int, node: NodeId) -> dict:
        """Abort path of phase 1: drop the reservation if this handoff
        still holds it."""
        held = self.reservations.get(node)
        if held is not None and held[0] == rid:
            del self.reservations[node]
        return {"rid": rid, "ok": True, "reason": None}

    def pin(self, rid: int, node: NodeId, ttl_s: float) -> dict:
        """Phase 2 (hint side): prove the attach hint is live and
        protect it from deletion for the TTL.  The pin belongs to this
        handoff alone: concurrent handoffs pinning the same hint each
        hold (and release) their own entry."""
        self._expire_holds()
        if not self.net.graph.has_node(node):
            return self._nak(rid, f"attach point {node} does not exist")
        self.pins.setdefault(node, {})[rid] = self._clock() + ttl_s
        return {"rid": rid, "ok": True, "reason": None}

    def unpin(self, rid: int, node: NodeId) -> dict:
        holders = self.pins.get(node)
        if holders is not None:
            holders.pop(rid, None)
            if not holders:
                del self.pins[node]
        return {"rid": rid, "ok": True, "reason": None}

    @staticmethod
    def _nak(rid: int, reason: str) -> dict:
        return {"rid": rid, "ok": False, "reason": reason}

    # ------------------------------------------------------------------
    # observability / persistence
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        row = self.metrics.snapshot()
        row["shard"] = self.index
        row["size"] = self.net.size
        row["queue_depth"] = len(self._queue)
        row["reservations"] = len(self.reservations)
        row["reservations_expired"] = self.reservations_expired
        row["handoffs_committed"] = self.handoffs_committed
        row["checkpoints_written"] = self.checkpoints_written
        row["checkpoint_errors"] = self.checkpoint_errors
        row["last_checkpoint"] = (
            str(self.last_checkpoint) if self.last_checkpoint else None
        )
        return row

    def ready_report(self) -> dict:
        """The ``ready`` message: the core's start report plus the
        region and the membership the router seeds its view from."""
        row = super().ready_report()
        row["shard"] = self.index
        row["region"] = list(self.region)
        row["nodes"] = sorted(self.net.nodes())
        return row

    def audit(self, include_nodes: bool = False) -> dict:
        """The shard's slice of the cluster audit: the core's I1-I8 +
        cache + coordinator oracle over the local partition, plus the
        region-ownership check (every live id inside the owned region --
        the fact that makes cross-shard ownership disjoint by
        construction) and the ids held by reservations."""
        row = super().audit(include_nodes)
        lo, hi = self.region
        strays = [u for u in self.net.nodes() if not lo <= u < hi]
        if strays:
            row["errors"].append(f"ids outside owned region: {strays[:8]}")
            row["invariants_ok"] = False
        row["shard"] = self.index
        row["region"] = [lo, hi]
        row["reservations"] = sorted(self.reservations)
        return row


def build_shard(cfg: dict) -> ShardServer:
    """Construct one shard from a worker config: restore from its
    checkpoint directory when ``cfg["restore"]`` (the post-crash path),
    bootstrap its id region otherwise."""
    from repro.core.config import DexConfig
    from repro.core.dex import DexNetwork

    shard_map = ShardMap(cfg["shards"])
    index = cfg["index"]
    checkpoint_dir = cfg.get("checkpoint_dir")
    if cfg.get("restore"):
        from repro.persist.snapshot import restore_latest

        net, restored_from, _skipped = restore_latest(checkpoint_dir)
    else:
        net = DexNetwork.bootstrap(
            cfg["n_local"],
            DexConfig(seed=cfg["seed"]),
            seed=cfg["seed"],
            id_base=shard_map.id_base(index),
        )
        restored_from = None
    server = ShardServer(
        index,
        net,
        shard_map=shard_map,
        max_batch=cfg.get("max_batch", 64),
        window_ms=cfg.get("window_ms", 2.0),
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=cfg.get("checkpoint_every", 32),
        checkpoint_keep=cfg.get("checkpoint_keep", 3),
        seed=cfg["seed"],
    )
    server.bind_policy(
        cfg.get("policy", "fixed"), cfg.get("queue_limit", DEFAULT_QUEUE_LIMIT)
    )
    server.last_checkpoint = restored_from
    return server


def _handle_control(server: ShardServer, op: str, args: dict) -> dict:
    """Dispatch one control verb.  Handoff verbs may carry a
    ``trace`` pair from the router; the shard-side work then records a
    ``shard.<op>`` span continuing that trace."""
    trace = args.pop("trace", None)
    traced = trace is not None and _trace.current().enabled
    with (
        _trace.span(f"shard.{op}", trace_id=trace[0], parent_id=trace[1], shard=server.index)
        if traced
        else contextlib.nullcontext()
    ):
        if op in ("reserve", "release", "pin", "unpin"):  # args: rid, node[, ttl_s]
            return getattr(server, op)(**args)
        if op == "stats":
            return {"rid": args["rid"], "ok": True, "stats": server.stats()}
        if op == "reset-metrics":
            server.metrics.reset()
            return {"rid": args["rid"], "ok": True}
        if op == "audit":
            audit = server.audit(include_nodes=args.get("include_nodes", False))
            return {"rid": args["rid"], "ok": True, "audit": audit}
        if op == "checkpoint":
            path = server.checkpoint()
            return {"rid": args["rid"], "ok": path is not None, "path": str(path) if path else None}
        raise ShardError(f"unknown shard control op {op!r}")


def handle_message(
    server: ShardServer,
    kind: str,
    payload: Any,
    reply: Callable[[tuple[str, Any]], None],
) -> bool:
    """Apply one router message to ``server``: requests are queued (or
    answered at the door), a control verb's answer goes out through
    ``reply``.  ``True`` means the message was the ``drain`` verb -- the
    caller finishes with :func:`finish_drain`.  The one dispatch of the
    pipe protocol: the worker loop and
    :class:`~repro.service.router.InlineShardHandle` both run it."""
    if kind == MSG_REQUESTS:
        if not server.serving:
            # First traffic: start the shard's clocks here, so neither
            # its rates nor its policy's first flush interval span the
            # bootstrap and the wait for the rest of the cluster.
            server.serving = True
            server.anchor_clocks()
        for req in payload:
            server.submit(*req)
    elif kind == MSG_CONTROL:
        op, args = payload
        if op == "drain":
            return True
        reply((MSG_CTL_REPLY, _handle_control(server, op, args)))
    return False


def finish_drain(
    server: ShardServer, reply: Callable[[tuple[str, Any]], None]
) -> None:
    """Answer the ``drain`` verb: the backlog's acks, then the final
    stats with the settle summary (sent strictly after the covering
    checkpoint)."""
    acks, settled = server.drain()
    if acks:
        reply((MSG_ACKS, acks))
    reply((MSG_DRAINED, {**server.stats(), **settled}))


def shard_worker_main(conn: Any, cfg: dict) -> None:
    """Worker-process entry (spawn context): serve one shard over a
    duplex pipe until a ``drain`` control arrives or the pipe closes.
    A dead router closes the pipe -> the worker exits; an engine
    failure is reported as a ``fatal`` message (the router answers the
    shard's in-flight requests with shard-unavailable rejections).

    ``cfg["trace_path"]`` installs a *streaming* span recorder writing
    that JSONL file as spans finish: a SIGKILL'd worker still leaves a
    parseable trace with at most a truncated tail."""
    import signal

    # The router owns shutdown (the ``drain`` verb, or pipe EOF).  A
    # terminal's Ctrl-C reaches the whole process group; a worker dying
    # of it would miss the drain and its final covering checkpoint.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stream = None
    if cfg.get("trace_path"):
        out = Path(cfg["trace_path"])
        out.parent.mkdir(parents=True, exist_ok=True)
        stream = open(out, "w")
        _trace.install(_trace.SpanRecorder(stream=stream, flush_every=8))
    try:
        _worker_loop(conn, cfg)
    finally:
        if stream is not None:
            _trace.uninstall()
            try:
                stream.flush()
                stream.close()
            except OSError:  # pragma: no cover - disk full on last words
                pass


def _worker_loop(conn: Any, cfg: dict) -> None:
    import gc
    import traceback

    try:
        server = build_shard(cfg)
        # The bootstrap network is millions of long-lived objects (one
        # Counter per node); moving them to the permanent generation
        # keeps every later cyclic-GC pass off them.  Worth ~30% of
        # steady-state throughput at shard sizes >= 2^16, and safe only
        # because a worker process is dedicated to its shard for life.
        gc.collect()
        gc.freeze()
        conn.send((MSG_READY, server.ready_report()))
        draining = False
        while True:
            # Take the message that ended the wait and everything
            # already buffered behind it before flushing.
            pending = conn.poll(server.due_in())
            while pending:
                kind, payload = conn.recv()
                if handle_message(server, kind, payload, conn.send):
                    draining = True
                pending = conn.poll(0)
            if draining:
                finish_drain(server, conn.send)
                return
            # Door rejections, sheds and swept deadlines are answered
            # before any flush: ship them now even when none is due yet.
            acks = server.flush() if server.due_in() == 0 else server.take_acks()
            if acks:
                conn.send((MSG_ACKS, acks))
    except EOFError:
        return
    except Exception:  # noqa: BLE001 -- last words beat a silent exit
        try:
            conn.send((MSG_FATAL, traceback.format_exc()))
        except (OSError, BrokenPipeError):
            pass
