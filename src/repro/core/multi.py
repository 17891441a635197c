"""Batched churn (Section 5, Corollary 2): the batch-parallel healing
engine.

The adversary may insert or delete up to ``eps * n`` nodes per step,
subject to the model's restrictions:

* insertions attach only O(1) new nodes to any single existing node
  (otherwise the constant-degree CONGEST network around the attach point
  becomes a congestion bottleneck),
* deletions must leave the remainder graph connected and every deleted
  node must retain at least one surviving neighbor.

Healing is *batch-parallel*: every pending recovery generates a token
(resolved by the :mod:`repro.core.type1` transfer functions) and the
whole wave is scheduled through :func:`~repro.net.walks.run_wave` under
the Lemma 11 one-token-per-edge-per-round rule.  The wave hop
itself runs on the engine selected by ``DexConfig.wave_engine`` -- by
default the lockstep numpy engine, which advances all active tokens of
a round as vectorized operations over the graph's array adjacency;
the scalar reference produces bit-identical results for a fixed seed
and serves as the differential oracle.  Rounds are charged as the
scheduler's *actual* round count (and messages as the total hops), not a
post-hoc max over sequential recoveries.  Tokens whose landing node was
drained by an earlier resolution of the same wave simply retry in the
next congestion-synchronous round.

Large batches may deplete Spare (resp. Low) within O(1) steps, so after
a wave with failures the engine makes *one* type-2 decision for the
whole round: in ``simplified`` mode a single ``computeSpare`` /
``computeLow`` flood (every node of the batch learns the counts from the
same flood) followed, below the Fact 2 threshold, by one simplified
inflation that heals every still-pending insertion in the same rebuild;
in ``staggered`` mode one coordinator query, after which still-pending
recoveries ride the staggered machinery exactly as single-step churn
does.  The corollary's bounds -- O(n log^2 n) messages and O(log^3 n)
rounds per batch step w.h.p. -- come from these procedures.

**Partial-batch outcomes** (PR 5): validation no longer has to be
all-or-nothing.  :func:`partition_insert_batch` /
:func:`partition_delete_batch` split a submitted batch into the legal
actions (healed together in one wave) and a per-action
:class:`BatchRejection` carrying the offending node and the reason, and
:func:`insert_batch_partial` / :func:`delete_batch_partial` heal the
legal majority while reporting every rejection -- the per-request
accountability the membership-service gateway
(:mod:`repro.service.gateway`) and the campaign driver's single-pass
fallback path need.  The strict :func:`insert_batch` /
:func:`delete_batch` are thin wrappers that raise on the first
rejection, preserving the historical all-or-nothing surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.events import StepReport
from repro.core.type1 import (
    adopt_deleted,
    insertion_recovery,
    low_depleted,
    spare_depleted,
    walk_budget,
)
from repro.errors import AdversaryError, RecoveryError
from repro.net.metrics import CostLedger
from repro.net.walks import run_wave
from repro.obs import trace as _trace
from repro.types import Layer, NodeId, RecoveryType, StepKind, Vertex

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dex import DexNetwork
    from repro.net.topology import DynamicMultigraph

MAX_ATTACH_PER_NODE = 4


# ----------------------------------------------------------------------
# partial-batch outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchRejection:
    """One action of a submitted batch that validation refused, with the
    reason the caller (a gateway client, the campaign driver) can act
    on.  ``index`` is the position in the *submitted* batch; ``node`` is
    the new id (insertions) or the victim (deletions)."""

    index: int
    node: NodeId
    reason: str


@dataclass
class BatchOutcome:
    """Result of a partial batch step: the legal actions that healed in
    one wave, the per-action rejections, and the engine's
    :class:`~repro.core.events.StepReport` (``None`` when nothing was
    legal, in which case no step ran and the network is untouched)."""

    kind: str  # "insert" | "delete"
    #: legal payload entries, submission order preserved -- ``(new_id,
    #: attach_to)`` pairs for insertions, victim ids for deletions
    accepted: list = field(default_factory=list)
    rejected: list[BatchRejection] = field(default_factory=list)
    report: StepReport | None = None

    @property
    def ok(self) -> bool:
        return not self.rejected

    def rejection_reasons(self) -> dict[NodeId, str]:
        return {r.node: r.reason for r in self.rejected}


# ----------------------------------------------------------------------
# insertion batches
# ----------------------------------------------------------------------
def partition_insert_batch(
    dex: "DexNetwork",
    attachments: Sequence[tuple[NodeId, NodeId]],
) -> tuple[list[tuple[NodeId, NodeId]], list[BatchRejection]]:
    """Partition an insertion batch into the legal attachments and a
    per-entry rejection list, *before* any mutation.  Checks per entry:
    fresh id not already scheduled or present, live attach point, the
    O(1) attach fan-out bound, and the ``eps*n`` batch-size cap (counted
    over *accepted* entries, so illegal entries do not eat the budget).
    Every check is **membership-determined**: it needs only "which ids
    are live" and "how many", never the topology."""
    cap = max(1, dex.size)
    per_host: dict[NodeId, int] = {}
    scheduled: set[NodeId] = set()
    legal: list[tuple[NodeId, NodeId]] = []
    rejected: list[BatchRejection] = []
    has_node = dex.graph.has_node
    for index, (new_id, attach) in enumerate(attachments):
        if new_id in scheduled:
            reason = f"node id {new_id} repeated in the batch"
        elif has_node(new_id):
            reason = f"node id {new_id} already exists"
        elif not has_node(attach):
            reason = f"attach point {attach} does not exist"
        elif per_host.get(attach, 0) >= MAX_ATTACH_PER_NODE:
            reason = (
                f"more than {MAX_ATTACH_PER_NODE} insertions attached to "
                f"node {attach} in one batch"
            )
        elif len(legal) >= cap:
            reason = f"batch of {len(attachments)} exceeds eps*n for n={cap}"
        else:
            per_host[attach] = per_host.get(attach, 0) + 1
            scheduled.add(new_id)
            legal.append((new_id, attach))
            continue
        rejected.append(BatchRejection(index, new_id, reason))
    return legal, rejected


def _validate_insert_batch(
    dex: "DexNetwork", attachments: Sequence[tuple[NodeId, NodeId]]
) -> None:
    """All-or-nothing validation *before* any mutation, so a bad entry
    mid-batch can never leave earlier insertions applied."""
    if not attachments:
        raise AdversaryError("empty insertion batch")
    if len(attachments) > max(1, dex.size):
        raise AdversaryError(
            f"batch of {len(attachments)} exceeds eps*n for n={dex.size}"
        )
    _legal, rejected = partition_insert_batch(dex, attachments)
    if rejected:
        raise AdversaryError(rejected[0].reason)


def insert_batch(
    dex: "DexNetwork", attachments: Sequence[tuple[NodeId, NodeId]]
) -> StepReport:
    """Insert a batch of ``(new_id, attach_to)`` pairs in one step,
    healing the whole batch in congestion-synchronous token waves.
    All-or-nothing: any illegal entry rejects the whole batch
    (:func:`insert_batch_partial` heals the legal majority instead)."""
    _validate_insert_batch(dex, attachments)
    return _execute_insert_batch(dex, attachments)


def insert_batch_partial(
    dex: "DexNetwork", attachments: Sequence[tuple[NodeId, NodeId]]
) -> BatchOutcome:
    """Heal the legal subset of an insertion batch in one wave and
    report every rejected entry with its reason.  An empty or fully
    illegal batch runs no step (``report is None``)."""
    legal, rejected = partition_insert_batch(dex, attachments)
    report = _execute_insert_batch(dex, legal) if legal else None
    return BatchOutcome("insert", accepted=legal, rejected=rejected, report=report)


def _execute_insert_batch(
    dex: "DexNetwork", attachments: Sequence[tuple[NodeId, NodeId]]
) -> StepReport:
    """Apply a pre-validated insertion batch (structural phase + healing
    waves); shared by the strict and partial entry points."""
    if _trace.current().enabled:
        with _trace.span("core.insert_batch", batch=len(attachments)) as sp:
            report = _insert_batch_impl(dex, attachments)
            sp.set(recovery=report.recovery.name.lower())
            return report
    return _insert_batch_impl(dex, attachments)


def _insert_batch_impl(
    dex: "DexNetwork", attachments: Sequence[tuple[NodeId, NodeId]]
) -> StepReport:
    ledger = CostLedger()
    topo_before = dex.graph.topology_changes
    recovery = RecoveryType.TYPE1

    # Structural phase: all new nodes join with their adversarial
    # attachment edge at once (Section 5's batch step).
    for new_id, attach in attachments:
        dex._next_id = max(dex._next_id, new_id + 1)
        dex.graph.add_node(new_id)
        dex.graph.add_edge(new_id, attach)

    pending: list[tuple[NodeId, NodeId]] = list(attachments)
    if dex.staggered is None:
        pending, recovery = _heal_insertions_in_waves(
            dex, pending, ledger, recovery
        )
    # A staggered op in flight (from the start, or triggered by a failed
    # wave): the remaining insertions ride it one by one, exactly like
    # single-step churn (Section 4.4.1).
    for u, v in pending:
        insertion_recovery(dex, u, v, ledger)
        recovery = RecoveryType.TYPE1_DURING_STAGGER

    # Algorithm 4.2 line 3: drop the adversary's attachments unless a
    # virtual edge requires the connection (reference counting makes
    # this exactly "remove one multiplicity unit").
    for new_id, attach in attachments:
        dex.graph.remove_edge(new_id, attach, 1)
    return dex._finish_step(
        StepKind.BATCH,
        attachments[0][0],
        attachments[0][1],
        recovery,
        ledger,
        topo_before,
        events=len(attachments),
    )


def _heal_insertions_in_waves(
    dex: "DexNetwork",
    pending: list[tuple[NodeId, NodeId]],
    ledger: CostLedger,
    recovery: RecoveryType,
) -> tuple[list[tuple[NodeId, NodeId]], RecoveryType]:
    """Token waves under Lemma 11 until every insertion found a Spare
    donor, a type-2 inflation healed the leftovers, or a staggered op
    took over (the caller finishes those sequentially)."""
    from repro.core import type2_simplified

    overlay = dex.overlay
    for wave in range(dex.config.max_type1_retries + 1):
        if not pending or dex.staggered is not None:
            break
        length = walk_budget(dex, wave)
        old = overlay.old
        ends, founds, hops, rounds = run_wave(
            dex.graph,
            [v for _u, v in pending],
            length,
            old.spare,
            dex.rng,
            excluded=[u for u, _v in pending],
            engine=dex.config.wave_engine,
        )
        ledger.charge_walk_wave(walks=len(pending), hops=hops, rounds=rounds)
        still: list[tuple[NodeId, NodeId]] = []
        spare = old.spare
        pick = old.pick_transferable
        move = overlay.move
        rng = dex.rng
        for i, (u, v) in enumerate(pending):
            w = ends[i]
            # Re-check Spare membership: an earlier resolution of the
            # same wave may have drained w (same semantics as
            # resolve_insertion, inlined for the hot path).
            if founds[i] and w in spare:
                move(Layer.OLD, pick(w, rng), u)
                continue
            still.append((u, v))
        pending = still
        if not pending:
            break
        # One type-2 decision per round for the whole batch.
        origin = pending[0][1]
        if dex.config.type2_mode == "simplified":
            if spare_depleted(dex, origin, ledger):
                with _trace.span(
                    "core.type2.inflate", wave=wave, pending=len(pending)
                ):
                    type2_simplified.simplified_inflate(
                        dex, ledger, pending=pending
                    )
                return [], RecoveryType.TYPE2_INFLATE
            ledger.retries += len(pending)
        else:
            dex.coordinator.charge_update(origin, ledger)
            if dex.coordinator.wants_inflate():
                dex.start_staggered_inflate(ledger)
                return pending, recovery
            ledger.retries += len(pending)
    if pending and dex.staggered is None:
        raise RecoveryError(
            f"{len(pending)} batched insertions not healed within "
            f"{dex.config.max_type1_retries} token waves"
        )
    return pending, recovery


# ----------------------------------------------------------------------
# deletion batches
# ----------------------------------------------------------------------
def partition_delete_batch(
    dex: "DexNetwork",
    nodes: Sequence[NodeId],
    check_connectivity: bool | None = None,
) -> tuple[list[NodeId], list[BatchRejection], dict[NodeId, NodeId]]:
    """Partition a deletion batch into the legal victims, per-victim
    rejections, and each legal victim's adopter (its smallest surviving
    neighbor).

    A victim is rejected when it is a duplicate of an accepted victim,
    does not exist, would shrink the network below the minimum size
    (the budget is ``n - min_network_size`` accepted victims, consumed
    in submission order), would itself keep no surviving neighbor, or
    would strand an *earlier accepted* victim without one (earlier
    requests win, mirroring the service gateway's FIFO fairness).  When
    ``check_connectivity`` (default: ``DexConfig.validate_batches``)
    holds and the accepted set would disconnect the remainder, victims
    are re-admitted latest-first -- a union-find restore sweep, not a
    bisection -- until the survivor graph is connected again, and the
    re-admitted victims are rejected with a connectivity reason.

    When every victim is accepted, the result is exactly the historical
    all-or-nothing validation: same victim order, same adopters."""
    if check_connectivity is None:
        check_connectivity = dex.config.validate_batches
    graph = dex.graph
    budget = dex.size - dex.config.min_network_size
    legal: list[NodeId] = []
    accepted: set[NodeId] = set()
    rejected: list[BatchRejection] = []
    #: live survivors of each accepted victim (shrinks as later victims
    #: are accepted; never empties -- that is the stranding check)
    survivors_of: dict[NodeId, set[NodeId]] = {}
    #: live node -> accepted victims currently counting on it
    guards: dict[NodeId, list[NodeId]] = {}
    for index, u in enumerate(nodes):
        if u in accepted:
            reason = f"node {u} already deleted in this batch"
        elif not graph.has_node(u):
            reason = f"node {u} does not exist"
        elif len(legal) >= budget:
            reason = (
                f"deleting node {u} would shrink the network below the "
                f"minimum size {dex.config.min_network_size}"
            )
        else:
            survivors = {
                w for w in graph.distinct_neighbors(u) if w not in accepted
            }
            if not survivors:
                reason = (
                    f"deleted node {u} would have no surviving neighbor "
                    "(violates the Section 5 deletion condition)"
                )
            else:
                stranded = next(
                    (
                        v
                        for v in guards.get(u, ())
                        if len(survivors_of[v]) == 1
                    ),
                    None,
                )
                if stranded is not None:
                    reason = (
                        f"node {u} is the last surviving neighbor of "
                        f"batch victim {stranded}"
                    )
                else:
                    for v in guards.pop(u, ()):
                        survivors_of[v].discard(u)
                    accepted.add(u)
                    legal.append(u)
                    survivors_of[u] = survivors
                    for w in survivors:
                        guards.setdefault(w, []).append(u)
                    continue
        rejected.append(BatchRejection(index, u, reason))
    if check_connectivity and legal and not graph.survivors_connected(accepted):
        for u in _restore_for_connectivity(graph, legal):
            accepted.discard(u)
            rejected.append(
                BatchRejection(
                    nodes.index(u),
                    u,
                    f"deleting node {u} would disconnect the network",
                )
            )
        legal = [u for u in legal if u in accepted]
        rejected.sort(key=lambda r: r.index)
    adopter = {
        u: min(w for w in graph.distinct_neighbors(u) if w not in accepted)
        for u in legal
    }
    return legal, rejected, adopter


def _restore_for_connectivity(
    graph: "DynamicMultigraph", legal: Sequence[NodeId]
) -> list[NodeId]:
    """The victims to re-admit (reject) so the remainder reconnects.

    Union-find over the *component quotient* of the survivor graph (the
    array traversal labels the components; only the victims' neighbours
    are looked up, so the Python work is proportional to the batch, not
    to n), then restore sweeps latest-first that only re-admit victims
    actually *bridging* two or more live components (a victim whose live
    neighbors all sit in one component cannot help connectivity, so
    restoring it would reject a perfectly legal request).  When a sweep
    makes no progress -- components joined only through a chain of
    victims -- the latest remaining victim is force-restored to expose
    the chain, which guarantees termination: restoring every victim
    yields the original, connected graph."""
    victim_set = set(legal)
    neighbors = {u: graph.distinct_neighbors(u) for u in legal}
    components, label = graph.survivor_components(
        victim_set,
        {w for ws in neighbors.values() for w in ws if w not in victim_set},
    )
    #: union-find over component labels, then one index per restored victim
    parent = list(range(components))
    for u in legal:
        label[u] = -1  # not (yet) restored
    restored: list[NodeId] = []

    def roots_around(u: NodeId) -> set[int]:
        roots: set[int] = set()
        for w in neighbors[u]:
            x = label[w]
            if x >= 0:
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]  # path halving
                roots.add(x)
        return roots

    def restore(u: NodeId, roots: set[int]) -> None:
        nonlocal components
        label[u] = len(parent)
        parent.append(label[u])
        for r in roots:
            parent[r] = label[u]
        components += 1 - len(roots)
        restored.append(u)

    remaining = list(legal)
    while components > 1 and remaining:
        progressed = False
        keep: list[NodeId] = []
        for u in reversed(remaining):
            if components > 1:
                roots = roots_around(u)
                if len(roots) >= 2:
                    restore(u, roots)
                    progressed = True
                    continue
            keep.append(u)
        keep.reverse()
        remaining = keep
        if components > 1 and not progressed and remaining:
            u = remaining.pop()
            restore(u, roots_around(u))
    return restored


def delete_batch(dex: "DexNetwork", nodes: Sequence[NodeId]) -> StepReport:
    """Delete a batch of nodes in one step, enforcing the connectivity
    conditions of Corollary 2, then redistribute every adopted vertex in
    congestion-synchronous token waves.  All-or-nothing: any illegal
    victim rejects the whole batch (:func:`delete_batch_partial` heals
    the legal majority instead)."""
    victims = list(dict.fromkeys(nodes))
    if not victims:
        raise AdversaryError("empty deletion batch")
    if dex.size - len(victims) < dex.config.min_network_size:
        raise AdversaryError("batch would shrink the network below minimum size")
    legal, rejected, adopter = partition_delete_batch(dex, victims)
    if rejected:
        raise AdversaryError(rejected[0].reason)
    return _execute_delete_batch(dex, legal, adopter)


def delete_batch_partial(dex: "DexNetwork", nodes: Sequence[NodeId]) -> BatchOutcome:
    """Heal the legal subset of a deletion batch in one wave and report
    every rejected victim with its reason.  An empty or fully illegal
    batch runs no step (``report is None``)."""
    legal, rejected, adopter = partition_delete_batch(dex, list(nodes))
    report = _execute_delete_batch(dex, legal, adopter) if legal else None
    return BatchOutcome("delete", accepted=legal, rejected=rejected, report=report)


def _execute_delete_batch(
    dex: "DexNetwork", victims: list[NodeId], adopter: dict[NodeId, NodeId]
) -> StepReport:
    """Apply a pre-validated deletion batch (structural adoption sweep +
    redistribution waves); shared by the strict and partial entry
    points."""
    if _trace.current().enabled:
        with _trace.span("core.delete_batch", batch=len(victims)) as sp:
            report = _delete_batch_impl(dex, victims, adopter)
            sp.set(recovery=report.recovery.name.lower())
            return report
    return _delete_batch_impl(dex, victims, adopter)


def _delete_batch_impl(
    dex: "DexNetwork", victims: list[NodeId], adopter: dict[NodeId, NodeId]
) -> StepReport:
    from repro.core import type2_simplified

    ledger = CostLedger()
    topo_before = dex.graph.topology_changes
    recovery = RecoveryType.TYPE1

    # Structural phase: each victim's vertices move to its smallest
    # *surviving* neighbor (adoption never targets a later victim, so
    # vertices move exactly once).  Outside a staggered op the adoption
    # is the bulk contraction primitive -- O(connections + load) per
    # victim instead of per-vertex edge rewiring; during one, the
    # adopted load is redistributed immediately through the staggered
    # machinery, mirroring single-step deletions.
    pending: list[tuple[Vertex, NodeId]] = []
    coord = dex.coordinator.node
    for u in victims:
        v = adopter[u]
        if dex.staggered is None:
            old_vertices = dex.overlay.adopt_node(u, v)
            if u == coord:
                # O(1) takeover by the new host of vertex 0 (Alg. 4.7).
                coord = dex.coordinator.node
                ledger.messages += dex.graph.connection_count(coord) + 1
                ledger.rounds += 1
            pending.extend((z, v) for z in old_vertices)
        else:
            _, old_vertices, new_vertices = adopt_deleted(
                dex, u, ledger, adopter=v
            )
            dex.staggered.redistribute_after_deletion(
                v, old_vertices, new_vertices, ledger
            )
            recovery = RecoveryType.TYPE1_DURING_STAGGER
            coord = dex.coordinator.node  # vertex 0 may have rehomed

    overlay = dex.overlay
    for wave in range(dex.config.max_type1_retries + 1):
        if not pending or dex.staggered is not None:
            break
        length = walk_budget(dex, wave)
        low = overlay.old.low
        ends, founds, hops, rounds = run_wave(
            dex.graph,
            [v for _z, v in pending],
            length,
            low,
            dex.rng,
            engine=dex.config.wave_engine,
        )
        ledger.charge_walk_wave(walks=len(pending), hops=hops, rounds=rounds)
        still: list[tuple[Vertex, NodeId]] = []
        move = overlay.move
        for i, (z, v) in enumerate(pending):
            # Re-check Low membership (a previous token of this wave may
            # have filled the landing node) -- resolve_redistribution,
            # inlined for the hot path.
            if founds[i] and ends[i] in low:
                move(Layer.OLD, z, ends[i])
                continue
            still.append((z, v))
        pending = still
        if not pending:
            break
        origin = pending[0][1]
        if dex.config.type2_mode == "simplified":
            if low_depleted(dex, origin, ledger):
                # The deflation rebuilds the whole cycle; the adopted
                # old-layer vertices cease to exist with it.
                with _trace.span(
                    "core.type2.deflate", wave=wave, pending=len(pending)
                ):
                    type2_simplified.simplified_deflate(dex, ledger)
                pending = []
                recovery = RecoveryType.TYPE2_DEFLATE
                break
            ledger.retries += len(pending)
        else:
            dex.coordinator.charge_update(origin, ledger)
            if dex.coordinator.wants_deflate() and dex.can_deflate():
                dex.start_staggered_deflate(ledger)
                break
            ledger.retries += len(pending)

    if pending and dex.staggered is not None:
        # A deflate started mid-heal: hand each adopter's leftovers to
        # the staggered machinery (Lemma 9a bounds keep loads legal).
        by_adopter: dict[NodeId, list[Vertex]] = {}
        for z, v in pending:
            by_adopter.setdefault(v, []).append(z)
        for v, leftovers in by_adopter.items():
            if dex.staggered is not None:  # else completed: leftovers dropped
                dex.staggered.redistribute_after_deletion(v, leftovers, [], ledger)
        pending = []
        recovery = RecoveryType.TYPE1_DURING_STAGGER
    if pending:
        raise RecoveryError(
            f"{len(pending)} adopted vertices not redistributed within "
            f"{dex.config.max_type1_retries} token waves"
        )
    return dex._finish_step(
        StepKind.BATCH,
        victims[0],
        dex.coordinator.node,
        recovery,
        ledger,
        topo_before,
        events=len(victims),
    )
