"""Type-1 recovery: Algorithms 4.2 (``insertion``) and 4.3 (``deletion``).

Insertion: the attach point ``v`` walks a token of length O(log n)
(excluding the fresh node ``u``) to find a node in Spare, which donates
one virtual vertex to ``u``.  Deletion: a surviving neighbor ``v`` adopts
the deleted node's vertices and walks one token per vertex to spread them
onto Low nodes.  Redistribution walks run sequentially with live load
updates, which is what makes Lemma 3(a)'s 4*zeta bound hold exactly
(substitution 4 of ``docs/substitutions.md``).

Token *resolution* (:func:`resolve_insertion` /
:func:`resolve_redistribution`: the vertex transfer, after re-checking
the target still qualifies) is separate from the walk that finds the
target.  The sequential recoveries below walk one token at a time
through :func:`walk_for`; the batch engine of :mod:`repro.core.multi`
schedules a whole batch's tokens through
:func:`~repro.net.walks.run_wave` under the Lemma 11 congestion rule and
resolves each wave in order through the same two functions.

On walk failure :func:`decide_type2` decides between retrying and
type-2 recovery, for single steps and batches alike: in ``simplified``
mode by flooding ``computeSpare`` / ``computeLow`` (Fact 2 thresholds,
:func:`spare_depleted` / :func:`low_depleted`), in ``staggered`` mode by
asking the coordinator (Algorithm 4.7), whose counters trigger at
``3*theta*n``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.core import type2_simplified
from repro.core.aggregation import compute_low, compute_spare
from repro.errors import RecoveryError
from repro.net.metrics import CostLedger
from repro.net.walks import random_walk
from repro.obs import trace as _trace
from repro.types import Layer, NodeId, RecoveryType, Vertex

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dex import DexNetwork


def walk_budget(dex: "DexNetwork", attempt: int = 0) -> int:
    """Walk length for the given retry attempt.

    Lemma 2 says a ``c * log n`` walk succeeds w.h.p. whenever the target
    set holds a theta fraction -- with a large analysis constant ``c``.
    We run with a practical constant and instead *double* the walk budget
    every few failed attempts (capped at 8x, still O(log n)), which
    recovers the lemma's success probability without paying the long walk
    on the common path."""
    boost = min(8, 1 << (attempt // 4))
    return boost * dex.config.walk_length(dex.size)


def walk_for(
    dex: "DexNetwork",
    start: NodeId,
    predicate: Callable[[NodeId], bool],
    ledger: CostLedger,
    exclude: frozenset[NodeId] = frozenset(),
    attempt: int = 0,
) -> NodeId | None:
    """One sequential token walk; returns the found node or None."""
    result = random_walk(
        dex.graph,
        start,
        walk_budget(dex, attempt),
        dex.rng,
        stop=predicate,
        excluded=exclude,
    )
    ledger.charge_walk(result.hops)
    return result.end if result.found else None


# ----------------------------------------------------------------------
# token resolution (shared with the batch engine's waves)
# ----------------------------------------------------------------------
def resolve_insertion(dex: "DexNetwork", u: NodeId, w: NodeId) -> bool:
    """Resolve an insertion token that landed on ``w``: if ``w`` is
    (still) in Spare it donates one transferable vertex to ``u``.
    Returns False when a concurrently resolved token already drained
    ``w`` below the Spare threshold -- the caller retries next round."""
    old = dex.overlay.old
    if not old.in_spare(w):
        return False
    z = old.pick_transferable(w, dex.rng)
    dex.overlay.move(Layer.OLD, z, u)
    return True


def resolve_redistribution(
    dex: "DexNetwork", z: Vertex, w: NodeId
) -> bool:
    """Resolve a redistribution token for vertex ``z`` landing on ``w``:
    re-check ``w`` is still Low (a previous token of the same wave may
    have filled it) and move ``z`` there."""
    if not dex.overlay.old.in_low(w):
        return False
    dex.overlay.move(Layer.OLD, z, w)
    return True


# ----------------------------------------------------------------------
# the type-2 decision (Fact 2 / Algorithm 4.7), one for every caller
# ----------------------------------------------------------------------
def spare_depleted(dex: "DexNetwork", origin: NodeId, ledger: CostLedger) -> bool:
    """Flood ``computeSpare`` from ``origin``; True when |Spare| fell
    below the ``theta * n`` threshold (time for type-2 inflation)."""
    n, spare = compute_spare(dex.overlay, origin, dex.config, ledger)
    return spare < dex.config.type1_threshold(n)


def low_depleted(dex: "DexNetwork", origin: NodeId, ledger: CostLedger) -> bool:
    """Flood ``computeLow`` from ``origin``; True when |Low| fell below
    the ``theta * n`` threshold (time for type-2 deflation)."""
    n, low = compute_low(dex.overlay, origin, dex.config, ledger)
    return low < dex.config.type1_threshold(n)


def decide_type2(
    dex: "DexNetwork",
    want: str,
    pending: "Sequence[tuple[int, NodeId]]",
    ledger: CostLedger,
    attempt: int = 0,
) -> RecoveryType | None:
    """The one type-2 decision, made once per round for every token of
    the round that found no target.

    ``want`` is the rebuild a shortage calls for: ``"inflate"`` (Spare,
    insertions), ``"deflate"`` (Low, redistributions) or ``"either"``
    (a step's early trigger, ``pending`` empty).  ``pending`` holds the
    unresolved tokens as ``(entry, start node)`` pairs: the fresh node
    and its attach point, or the adopted vertex and its adopter; the
    first start node originates the flood or the coordinator update.

    ``simplified`` mode floods ``computeSpare`` / ``computeLow`` and,
    below the Fact 2 threshold, rebuilds at once; the inflation gives
    every pending insertion its vertex.  ``staggered`` mode reports to
    the coordinator and starts a staggered op past its ``3*theta*n``
    counters; while one is in flight the pending tokens seek its targets
    instead.  Returns the rebuild that healed the pending tokens, or
    None; each pending token counts one retry unless a type-2 began."""
    if dex.config.type2_mode == "simplified":
        if not pending:  # the early trigger is the coordinator's
            return None
        depleted = spare_depleted if want == "inflate" else low_depleted
        if depleted(dex, pending[0][1], ledger):
            with _trace.span(f"core.type2.{want}", wave=attempt, pending=len(pending)):
                if want == "inflate":
                    type2_simplified.simplified_inflate(dex, ledger, pending=pending)
                    return RecoveryType.TYPE2_INFLATE
                type2_simplified.simplified_deflate(dex, ledger)
                return RecoveryType.TYPE2_DEFLATE
    elif dex.staggered is None:  # else the op in flight has the targets
        coordinator = dex.coordinator
        if pending:
            coordinator.charge_update(pending[0][1], ledger)
        if want != "deflate" and coordinator.wants_inflate():
            dex.start_staggered_inflate(ledger)
            return None
        if want != "inflate" and coordinator.wants_deflate() and dex.can_deflate():
            dex.start_staggered_deflate(ledger)
            return None
    ledger.retries += len(pending)
    return None


# ----------------------------------------------------------------------
# insertion (Algorithm 4.2)
# ----------------------------------------------------------------------
def insertion_recovery(
    dex: "DexNetwork", u: NodeId, v: NodeId, ledger: CostLedger
) -> RecoveryType:
    """Heal the insertion of ``u`` attached to ``v``."""
    for attempt in range(dex.config.max_type1_retries + 1):
        op = dex.staggered
        if op is not None:
            # During an op the token seeks the op's donors (Section 4.4.1).
            w = walk_for(dex, v, op.__contains__, ledger, frozenset((u,)))
            if w is not None and op.give(u, w):
                return RecoveryType.TYPE1_DURING_STAGGER
            ledger.retries += 1
            continue
        # The Algorithm 4.2 token: from the attach point ``v``, seek a
        # node in Spare, never stepping onto the fresh node ``u``.
        w = walk_for(dex, v, dex.overlay.old.spare.__contains__, ledger, frozenset((u,)), attempt)
        if w is not None and resolve_insertion(dex, u, w):
            return RecoveryType.TYPE1
        # Walk failed: type-2 recovery or a retry (after a staggered
        # inflate starts, the next iteration assigns u from its chunk).
        healed = decide_type2(dex, "inflate", ((u, v),), ledger, attempt)
        if healed is not None:
            return healed
    raise RecoveryError(
        f"insertion of node {u} not healed within "
        f"{dex.config.max_type1_retries} type-1 attempts"
    )


# ----------------------------------------------------------------------
# deletion (Algorithm 4.3)
# ----------------------------------------------------------------------
def adopt_deleted(
    dex: "DexNetwork",
    u: NodeId,
    ledger: CostLedger,
    adopter: NodeId | None = None,
) -> tuple[NodeId, list[Vertex], list[Vertex]]:
    """Structural half of Algorithm 4.3: a surviving neighbor adopts all
    of ``u``'s vertices (old and new layer) and ``u`` leaves the graph.
    Returns ``(adopter, adopted old vertices, adopted new vertices)``;
    the caller redistributes the old vertices (sequentially here, or in
    congestion-synchronous waves in the batch engine)."""
    overlay = dex.overlay
    if adopter is None:
        neighbors = overlay.graph.distinct_neighbors(u)
        if not neighbors:
            raise RecoveryError(
                f"deleted node {u} had no neighbor to adopt its load"
            )
        v = min(neighbors)
    else:
        v = adopter

    old_vertices = sorted(overlay.old.vertices_of(u))
    new_vertices = (
        sorted(overlay.new.vertices_of(u)) if overlay.new is not None else []
    )
    was_coordinator = dex.coordinator.node == u

    # v attaches all of u's edges to itself == u's vertices move to v.
    for z in old_vertices:
        if dex.staggered is not None:
            dex.staggered.move_old(z, v)
        else:
            overlay.move(Layer.OLD, z, v)
    for z in new_vertices:
        overlay.move(Layer.NEW, z, v)
    overlay.graph.remove_node(u)

    if was_coordinator:
        # Neighbors replicate the coordinator state; the new host of
        # vertex 0 takes over with O(1) messages (Algorithm 4.7 line 2).
        ledger.messages += overlay.graph.connection_count(dex.coordinator.node) + 1
        ledger.rounds += 1
    return v, old_vertices, new_vertices


def deletion_recovery(
    dex: "DexNetwork", u: NodeId, ledger: CostLedger
) -> tuple[RecoveryType, NodeId]:
    """Heal the deletion of ``u``: a former neighbor adopts its vertices
    and redistributes them."""
    v, old_vertices, new_vertices = adopt_deleted(dex, u, ledger)

    if dex.staggered is not None:
        dex.staggered.redistribute_after_deletion(
            v, old_vertices, new_vertices, ledger
        )
        return RecoveryType.TYPE1_DURING_STAGGER, v

    # Normal operation: one walk per adopted vertex, sequential.
    remaining = list(old_vertices)
    while remaining:
        z = remaining.pop(0)
        placed = False
        for attempt in range(dex.config.max_type1_retries + 1):
            if dex.staggered is not None:
                break  # a deflate started mid-redistribution
            # The Algorithm 4.3 token: from the adopter ``v``, seek a
            # Low node willing to take one of the deleted node's vertices.
            w = walk_for(dex, v, dex.overlay.old.low.__contains__, ledger, attempt=attempt)
            if w is not None and resolve_redistribution(dex, z, w):
                placed = True
                break
            healed = decide_type2(dex, "deflate", ((z, v),), ledger, attempt)
            if healed is not None:
                return healed, v
        if dex.staggered is not None:
            # Hand the rest to the staggered machinery.
            leftover = ([] if placed else [z]) + remaining
            dex.staggered.redistribute_after_deletion(v, leftover, [], ledger)
            return RecoveryType.TYPE1_DURING_STAGGER, v
        if not placed:
            raise RecoveryError(
                f"vertex {z} of deleted node {u} could not be redistributed"
            )
    return RecoveryType.TYPE1, v
