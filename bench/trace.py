"""Boundary-shim tracer: per-layer spans measured from outside the program.

The program's own tracer (``repro.obs``) stays off.  Instead the
benchmark wraps the public functions that sit on layer boundaries --
resolved by dotted name at install time -- and records one span per
call: name, start, end, the span that caused it (a per-thread stack)
and the index of the enclosing core call, which is the identifier all
spans of one flush share.  Spans stay in memory; ``write_spans`` dumps
them once at the end.

A class attribute is patched on the class.  A module-level function is
patched on every loaded ``repro.*`` module attribute that *is* the
original, so ``from repro.net.walks import run_wave`` aliases (e.g.
``repro.core.multi.run_wave``) are covered too.  A name that no longer
resolves is listed in ``unresolved`` and never fails the run: a later
refactor that renames a function is not blocked by this directory.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types
from typing import IO, Any, Callable, Iterable

#: leaf spans of one name beyond this many under one parent are folded
#: into a single child carrying ``count`` and ``total``
FOLD_AFTER = 64

#: boundaries whose calls are "core calls": the unit a flush (or an
#: engine step) maps to, and the shared identifier of the spans below it
CORE_CALLS = (
    "repro.core.dex.DexNetwork.insert_batch_partial",
    "repro.core.dex.DexNetwork.delete_batch_partial",
    "repro.core.dex.DexNetwork.insert",
    "repro.core.dex.DexNetwork.delete",
)

BOUNDARIES = CORE_CALLS + (
    "repro.core.multi.partition_insert_batch",
    "repro.core.multi.partition_delete_batch",
    "repro.core.type2_simplified.simplified_inflate",
    "repro.core.type2_simplified.simplified_deflate",
    "repro.core.type2_staggered.StaggeredOp.advance",
    "repro.core.type2_staggered.StaggeredOp.redistribute_after_deletion",
    "repro.net.flood.flood_echo_analytic",
    "repro.net.flood.flood_echo_engine",
    "repro.net.walks.run_wave",
    "repro.net.walks.random_walk",
    "repro.net.topology.DynamicMultigraph.survivors_connected",
    "repro.net.topology.DynamicMultigraph.to_sparse_adjacency",
    "repro.net.topology.DynamicMultigraph.csr_wave_view",
    "repro.net.topology.DynamicMultigraph.bfs_distances",
)


class Span:
    """One call through a boundary (or ``count`` folded leaf calls)."""

    __slots__ = (
        "name", "start", "end", "parent", "core", "size",
        "count", "total", "child_s", "folds",
    )  # fmt: skip

    def __init__(self, name: str, parent: "Span | None", core: int) -> None:
        self.name = name
        self.parent = parent
        self.core = core
        #: batch length of a core call (``None`` elsewhere)
        self.size: int | None = None
        self.count = 1
        self.start = 0.0
        self.end = 0.0
        #: seconds inside the call(s); ``end - start`` unless folded
        self.total = 0.0
        #: seconds covered by child spans
        self.child_s = 0.0
        #: per child name: leaf calls seen so far, then their fold span
        self.folds: dict[str, int | Span] | None = None

    @property
    def self_s(self) -> float:
        return self.total - self.child_s


def _resolve(dotted: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` of a dotted boundary name; the
    owner is a module or a class.  Raises LookupError when the name no
    longer resolves to a plain Python function."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            original = vars(owner)[parts[-1]]
        except (AttributeError, KeyError) as exc:
            raise LookupError(dotted) from exc
        if not isinstance(original, types.FunctionType):
            raise LookupError(dotted)
        return owner, parts[-1], original
    raise LookupError(dotted)


class ShimTracer:
    """Installs the shims on ``__enter__`` and restores every original
    on ``__exit__``."""

    def __init__(self, boundaries: Iterable[str] = BOUNDARIES) -> None:
        self.boundaries = tuple(boundaries)
        self.spans: list[Span] = []
        self.unresolved: list[str] = []
        self.core_calls = 0
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # install / restore
    # ------------------------------------------------------------------
    def __enter__(self) -> "ShimTracer":
        for dotted in self.boundaries:
            try:
                owner, attr, original = _resolve(dotted)
            except LookupError:
                self.unresolved.append(dotted)
                continue
            shim = self._shim(dotted, original, dotted in CORE_CALLS)
            if isinstance(owner, types.ModuleType):
                targets = [
                    (module, alias)
                    for modname, module in list(sys.modules.items())
                    if module is not None
                    and (modname == "repro" or modname.startswith("repro."))
                    for alias, value in list(vars(module).items())
                    if value is original
                ]
            else:
                targets = [(owner, attr)]
            for target, alias in targets:
                self._patched.append((target, alias, original))
                setattr(target, alias, shim)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._patched:
            target, alias, original = self._patched.pop()
            setattr(target, alias, original)

    def reset(self) -> None:
        """Drop everything recorded so far (called when the measured
        phase starts, so set-up and warm-up leave no spans)."""
        self.spans = []
        self.core_calls = 0

    # ------------------------------------------------------------------
    # the shim
    # ------------------------------------------------------------------
    def _shim(self, name: str, fn: Callable, is_core: bool) -> Callable:
        local = self._local
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if parent is not None:
                core = parent.core
            elif is_core:
                core = tracer.core_calls
                tracer.core_calls = core + 1
            else:
                core = -1
            span = Span(name, parent, core)
            if is_core and len(args) > 1 and hasattr(args[1], "__len__"):
                span.size = len(args[1])
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = end = clock()
                stack.pop()
                span.total = took = end - span.start
                if parent is None:
                    tracer.spans.append(span)
                else:
                    parent.child_s += took
                    tracer._record_child(parent, span, took)

        return shim

    def _record_child(self, parent: Span, span: Span, took: float) -> None:
        """Append ``span`` under ``parent``; a leaf whose name already
        occurred ``FOLD_AFTER`` times there is folded instead."""
        if span.folds is not None or span.child_s:
            self.spans.append(span)
            return
        folds = parent.folds
        if folds is None:
            folds = parent.folds = {}
        seen = folds.get(span.name, 0)
        if isinstance(seen, int):
            if seen < FOLD_AFTER:
                folds[span.name] = seen + 1
            else:
                folds[span.name] = span  # becomes the fold span
            self.spans.append(span)
        else:
            seen.count += 1
            seen.total += took
            seen.end = span.end


def self_time_by_name(spans: Iterable[Span]) -> dict[str, tuple[int, float]]:
    """``name -> (calls, self seconds)`` over ``spans``."""
    out: dict[str, tuple[int, float]] = {}
    for span in spans:
        calls, self_s = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + span.count, self_s + span.self_s)
    return out


def write_spans(
    stream: IO[str], spans: Iterable[Span], requests: Iterable[dict], **header: object
) -> None:
    """One JSON object per line: a header, the boundary spans (``parent``
    is the line's ``id`` of the causing span), then the driver's request
    spans, each linked to the core call that answered it."""
    spans = list(spans)
    ids = {id(span): i for i, span in enumerate(spans)}
    stream.write(json.dumps({"format": "dex-bench-spans/1", **header}) + "\n")
    for i, span in enumerate(spans):
        row = {
            "id": i,
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "parent": ids.get(id(span.parent)) if span.parent is not None else None,
            "core": span.core,
        }
        if span.size is not None:
            row["size"] = span.size
        if span.count > 1:
            row["count"] = span.count
            row["total"] = span.total
        stream.write(json.dumps(row) + "\n")
    for request in requests:
        stream.write(json.dumps(request) + "\n")
