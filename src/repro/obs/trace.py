"""Monotonic-clock tracing spans: the request-to-wave evidence spine.

A **span** is one timed phase of work -- a gateway flush, one healing
wave, one handoff leg -- with a name, a start offset, a duration, and
free-form JSON-serializable attributes.  Spans belong to a **trace**
(one request's journey, or one flush cycle), identified by a trace id
that survives process boundaries: the shard router generates it at the
client surface and ships it across the worker pipe protocol, so a
cross-shard join renders as one coherent timeline.

Design constraints, in priority order:

1. **Disabled tracing must be free.**  The module-level recorder
   defaults to a no-op whose ``enabled`` attribute is ``False``; hot
   paths guard with a single attribute check (``current().enabled``)
   and the :func:`span` context manager short-circuits to a shared
   no-op span.  The perf harness measures this cost and
   ``scripts/check_report.py tracing`` fails CI if it exceeds ~1%.
2. **Tracing must not perturb the engine.**  Span timing uses
   ``time.perf_counter`` (monotonic) only -- the staticcheck
   determinism rule enforces this for the ``obs`` layer -- and span
   bookkeeping never touches an engine rng, so transcripts are
   bit-identical with the recorder on or off (a differential test
   holds this).
3. **A killed process must leave evidence.**  A recorder opened with a
   stream appends finished spans as JSONL lines (flushed every
   ``flush_every`` spans), so a SIGKILL'd soak worker leaves a
   parseable file with at most a truncated tail -- which the loader
   tolerates.

Synchronous code uses the ambient context manager (parents nest via a
thread-local stack)::

    with span("shard.flush", shard=0) as sp:
        with span("shard.flush.heal"):       # child of shard.flush
            outcome = net.insert_batch_partial(payload)
        sp.set(batch=len(payload))

Async code (the router) uses explicit start/finish with explicit
parentage -- the thread-local stack would cross-contaminate
interleaved tasks::

    rec = current()
    sp = rec.start("router.handoff.pin", trace_id=tid, parent_id=root)
    ack = await self._control(owner, "pin", ...)
    rec.finish(sp)
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Any, Callable, Iterator

#: JSONL trace artifact schema (header line + one span object per line)
TRACE_SCHEMA = "dex-trace/1"


def _created_stamp() -> str:
    """User-facing wall-clock stamp of the export header -- the one
    allowlisted wall-clock site of the ``obs`` layer (the determinism
    rule names this function; span *timing* stays monotonic)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class Span:
    """One timed phase.  Mutable until :meth:`~SpanRecorder.finish`
    seals it into the recorder's ring (and stream, when one is open)."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "t_s", "dur_s", "attrs")

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        t_s: float,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_s = t_s
        self.dur_s = 0.0
        self.attrs = attrs

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; values must be
        JSON-serializable."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t_s": round(self.t_s, 6),
            "dur_s": round(self.dur_s, 6),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _NoopSpan:
    """The shared span handed out while tracing is disabled: every
    operation is a no-op, so instrumented code never branches."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class _NoopRecorder:
    """Stands in for :class:`SpanRecorder` while tracing is off.
    ``enabled`` is the hot-path guard: one attribute check, nothing
    else ever runs."""

    __slots__ = ()

    enabled = False

    def start(self, name: str, **kwargs: Any) -> _NoopSpan:
        return NOOP_SPAN

    def finish(self, span: Any) -> None:
        return None

    def new_trace_id(self) -> None:
        return None


NOOP_RECORDER = _NoopRecorder()


class SpanRecorder:
    """Bounded ring-buffer span sink with optional JSONL streaming.

    ``capacity`` bounds in-memory retention (oldest spans evicted);
    ``stream`` (a writable text file) additionally receives every
    finished span as one JSON line, flushed every ``flush_every``
    spans so a killed process loses at most a buffer's tail.  Ids are
    prefixed with the owning pid, so per-process files never collide
    when inspected side by side."""

    enabled = True

    def __init__(
        self,
        capacity: int = 65_536,
        *,
        clock: Callable[[], float] = time.perf_counter,
        stream: IO[str] | None = None,
        flush_every: int = 32,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.spans: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.clock = clock
        self._t0 = clock()
        self._tag = f"{os.getpid():x}"
        self._seq = 0
        self._lock = threading.Lock()
        self._stream = stream
        self._flush_every = max(1, flush_every)
        self._unflushed = 0
        if stream is not None:
            stream.write(
                json.dumps({"schema": TRACE_SCHEMA, "created": _created_stamp()})
                + "\n"
            )
            stream.flush()

    # ------------------------------------------------------------------
    # ids
    # ------------------------------------------------------------------
    def _next_id(self, kind: str) -> str:
        with self._lock:
            self._seq += 1
            return f"{kind}{self._tag}-{self._seq:x}"

    def new_trace_id(self) -> str:
        return self._next_id("t")

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.  Omitted ``trace_id`` starts a fresh trace;
        ``parent_id`` is the caller's span id (or ``None`` for a
        root)."""
        return Span(
            name,
            trace_id if trace_id is not None else self.new_trace_id(),
            self._next_id("s"),
            parent_id,
            self.clock() - self._t0,
            dict(attrs),
        )

    def finish(self, span: Span) -> None:
        """Seal ``span``: compute its duration and record it."""
        span.dur_s = self.clock() - self._t0 - span.t_s
        record = span.as_dict()
        self.spans.append(record)
        stream = self._stream
        if stream is not None:
            with self._lock:
                stream.write(json.dumps(record, separators=(",", ":")) + "\n")
                self._unflushed += 1
                if self._unflushed >= self._flush_every:
                    stream.flush()
                    self._unflushed = 0

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def flush_stream(self) -> None:
        if self._stream is not None:
            with self._lock:
                self._stream.flush()
                self._unflushed = 0

    def export_jsonl(self, path: str | Path) -> Path:
        """Write the retained ring as a fresh JSONL artifact (header
        line first).  Streaming recorders usually just
        :meth:`flush_stream` instead -- their file already holds every
        span, including ones the ring has evicted."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            fh.write(
                json.dumps({"schema": TRACE_SCHEMA, "created": _created_stamp()})
                + "\n"
            )
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        return out


# ----------------------------------------------------------------------
# the module-level recorder and the ambient span stack
# ----------------------------------------------------------------------
_RECORDER: SpanRecorder | _NoopRecorder = NOOP_RECORDER
_AMBIENT = threading.local()


def current() -> SpanRecorder | _NoopRecorder:
    """The active recorder.  Hot paths keep the result local and guard
    on ``.enabled`` -- the whole cost of disabled tracing."""
    return _RECORDER


def enabled() -> bool:
    return _RECORDER.enabled


def install(recorder: SpanRecorder | _NoopRecorder) -> SpanRecorder | _NoopRecorder:
    """Make ``recorder`` the process-wide sink; returns the previous
    one so callers can restore it."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


def uninstall() -> None:
    """Back to the no-op recorder (disabled tracing)."""
    install(NOOP_RECORDER)


def _stack() -> list[Span]:
    stack = getattr(_AMBIENT, "stack", None)
    if stack is None:
        stack = []
        _AMBIENT.stack = stack
    return stack


def current_span() -> Span | None:
    """The innermost ambient span of this thread, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def span(
    name: str,
    *,
    trace_id: str | None = None,
    parent_id: str | None = None,
    **attrs: Any,
) -> Iterator[Span | _NoopSpan]:
    """Ambient span context manager (synchronous code).  Parentage
    defaults to the innermost open span of this thread; pass
    ``trace_id``/``parent_id`` explicitly to continue a remote trace
    (e.g. one shipped over the shard pipe).  While tracing is disabled
    this yields the shared no-op span and records nothing."""
    rec = _RECORDER
    if not rec.enabled:
        yield NOOP_SPAN
        return
    stack = _stack()
    if trace_id is None and parent_id is None and stack:
        ambient = stack[-1]
        trace_id, parent_id = ambient.trace_id, ambient.span_id
    sp = rec.start(name, trace_id=trace_id, parent_id=parent_id, **attrs)
    stack.append(sp)
    try:
        yield sp
    finally:
        stack.pop()
        rec.finish(sp)


@contextmanager
def recording_to(
    path: str | Path | None = None,
    *,
    capacity: int = 65_536,
    flush_every: int = 32,
) -> Iterator[SpanRecorder]:
    """Install a fresh recorder for the duration of the block; restore
    the previous one (and close the stream) on exit.  With ``path`` the
    recorder streams spans to that JSONL file as they finish --
    kill-tolerant; without, spans stay in the ring (export them with
    :meth:`SpanRecorder.export_jsonl`)."""
    stream: IO[str] | None = None
    if path is not None:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        stream = open(out, "w")
    recorder = SpanRecorder(capacity, stream=stream, flush_every=flush_every)
    previous = install(recorder)
    try:
        yield recorder
    finally:
        install(previous)
        if stream is not None:
            recorder.flush_stream()
            stream.close()
