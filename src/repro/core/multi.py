"""Batched churn (Section 5, Corollary 2): the batch-parallel healing
engine.

The adversary may insert or delete up to ``eps * n`` nodes per step,
here with ``eps = 1`` (an insertion batch of more than ``n`` nodes is
refused as exceeding ``n``), subject to the model's restrictions:

* insertions attach only O(1) new nodes to any single existing node
  (otherwise the constant-degree CONGEST network around the attach point
  becomes a congestion bottleneck),
* deletions must leave the remainder graph connected and every deleted
  node must retain at least one surviving neighbor.

Healing is *batch-parallel*: every pending recovery generates a token
and the whole wave is scheduled through :func:`~repro.net.walks.run_wave`
under the Lemma 11 one-token-per-edge-per-round rule.  One wave driver,
:func:`_heal_in_waves`, serves both batch kinds, with or without a
staggered op in flight; each kind gives it its target set and resolver:
Spare and :func:`~repro.core.type1.resolve_insertion`, Low and
:func:`~repro.core.type1.resolve_redistribution` (the single steps'
own), or during an op the op's donors and seats.  Rounds are charged
as the scheduler's *actual* round count (and messages as the total
hops), not a post-hoc max over sequential recoveries.  Tokens whose
landing node was drained by an earlier resolution of the same wave
simply retry in the next congestion-synchronous round.

Large batches may deplete Spare (resp. Low) within O(1) steps, so after
a wave with failures the engine makes *one* type-2 decision for the
whole round (:func:`~repro.core.type1.decide_type2`, the single steps'
own): in ``simplified`` mode a single ``computeSpare`` /
``computeLow`` flood (every node of the batch learns the counts from the
same flood) followed, below the Fact 2 threshold, by one simplified
inflation that heals every still-pending insertion in the same rebuild;
in ``staggered`` mode one coordinator query, after which the waves go
on against the op's targets, and the op advances one chunk per event of
the batch in one request.  The corollary's bounds -- O(n log^2 n)
messages and O(log^3 n) rounds per batch step w.h.p. -- come from these
procedures.

**Partial-batch outcomes**: validation need not be all-or-nothing.
:func:`partition_insert_batch` / :func:`partition_delete_batch` split a
submitted batch into the legal actions (healed together in one wave)
and a per-action :class:`BatchRejection` carrying the offending node and
the reason, and :func:`insert_batch_partial` /
:func:`delete_batch_partial` heal the legal majority while reporting
every rejection -- the per-request accountability the membership-service
gateway (:mod:`repro.service.gateway`) and the campaign driver's
single-pass fallback path need.  The strict :func:`insert_batch` /
:func:`delete_batch` partition the same way and raise on the first
rejection before any mutation, else heal exactly as the partial forms
do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import chain
from typing import TYPE_CHECKING, Callable, Collection, Container, Sequence

import numpy as np

from repro.core.events import StepReport
from repro.core.mapping import NODE_ID_LIMIT
from repro.core.type1 import (
    adopt_deleted,
    decide_type2,
    resolve_insertion,
    resolve_redistribution,
    walk_budget,
)
from repro.errors import AdversaryError, RecoveryError
from repro.net.metrics import CostLedger
from repro.net.walks import run_wave
from repro.obs import trace as _trace
from repro.types import Layer, NodeId, RecoveryType, StepKind
from repro.virtual.pcycle import neighbor_rows, zero_tree

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dex import DexNetwork
    from repro.net.topology import DynamicMultigraph

MAX_ATTACH_PER_NODE = 4

#: a batch step: ``(dex, entries, *extra) -> StepReport``
_Step = Callable[..., StepReport]


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
    fresh id in ``[0, 2**63)`` (the host table's range) and not already
    scheduled or present, live attach point, the O(1) attach fan-out
    bound, and the batch-size cap of ``n`` (Section 5's ``eps * n`` with
    ``eps = 1``, counted over *accepted* entries, so illegal entries do
    not eat the budget).
    Every check is **membership-determined**: it needs only "which ids
    are live" and "how many", never the topology."""
    cap = max(1, dex.size)
    per_host: dict[NodeId, int] = {}
    scheduled: set[NodeId] = set()
    legal: list[tuple[NodeId, NodeId]] = []
    rejected: list[BatchRejection] = []
    has_node = dex.graph.has_node
    for index, (new_id, attach) in enumerate(attachments):
        if not 0 <= new_id < NODE_ID_LIMIT:
            reason = f"node id {new_id} outside [0, 2**63)"
        elif new_id in scheduled:
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
            reason = f"batch of {len(attachments)} exceeds n={cap}"
        else:
            per_host[attach] = per_host.get(attach, 0) + 1
            scheduled.add(new_id)
            legal.append((new_id, attach))
            continue
        rejected.append(BatchRejection(index, new_id, reason))
    return legal, rejected


def insert_batch(
    dex: "DexNetwork", attachments: Sequence[tuple[NodeId, NodeId]]
) -> StepReport:
    """Insert a batch of ``(new_id, attach_to)`` pairs in one step,
    healing the whole batch in congestion-synchronous token waves.
    All-or-nothing: any illegal entry rejects the whole batch
    (:func:`insert_batch_partial` heals the legal majority instead)."""
    if not attachments:
        raise AdversaryError("empty insertion batch")
    legal, rejected = partition_insert_batch(dex, attachments)
    if rejected:
        raise AdversaryError(rejected[0].reason)
    return _insert_step(dex, legal)


def insert_batch_partial(
    dex: "DexNetwork", attachments: Sequence[tuple[NodeId, NodeId]]
) -> BatchOutcome:
    """Heal the legal subset of an insertion batch in one wave and
    report every rejected entry with its reason.  An empty or fully
    illegal batch runs no step (``report is None``)."""
    legal, rejected = partition_insert_batch(dex, attachments)
    report = _insert_step(dex, legal) if legal else None
    return BatchOutcome("insert", accepted=legal, rejected=rejected, report=report)


def _traced(name: str) -> Callable[[_Step], _Step]:
    """Run a batch step inside a ``name`` span when tracing is on."""

    def wrap(step: _Step) -> _Step:
        @wraps(step)
        def traced(dex: "DexNetwork", entries: list, *args: object) -> StepReport:
            if not _trace.current().enabled:
                return step(dex, entries, *args)
            with _trace.span(name, batch=len(entries)) as sp:
                report = step(dex, entries, *args)
                sp.set(recovery=report.recovery.name.lower())
                return report

        return traced

    return wrap


@_traced("core.insert_batch")
def _insert_step(dex: "DexNetwork", attachments: list[tuple[NodeId, NodeId]]) -> StepReport:
    """Apply a legal insertion batch: the structural phase, then the
    healing waves."""
    ledger = CostLedger()
    topo_before = dex.graph.topology_changes

    # Structural phase: all new nodes join with their adversarial
    # attachment edge at once (Section 5's batch step).
    for new_id, attach in attachments:
        dex._next_id = max(dex._next_id, new_id + 1)
        dex.graph.add_node(new_id)
        dex.graph.add_edge(new_id, attach)

    recovery, ticked, forced = _heal_in_waves(
        dex, INSERTIONS, list(attachments), ledger, RecoveryType.TYPE1, len(attachments)
    )

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
        events=len(attachments) - ticked,
        forced=forced,
    )


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
    Connectivity is decided on the virtual graph
    (:func:`certify_survivors`) between staggered ops when the victims
    host few vertices, and by the array BFS over the real graph
    otherwise.

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
    if check_connectivity and legal:
        split = certify_survivors(dex, accepted)
        if (split[0] > 1) if split else not graph.survivors_connected(accepted):
            for u in _restore_for_connectivity(graph, legal, split):
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


#: survivor component count and each survivor's component label
SurvivorSplit = tuple[int, Callable[[NodeId], int]]

#: The certificate scans at most this many preorder positions of each
#: painted subtree before it knows whether the pieces there are joined to
#: the anchor piece; only pieces that are not get the rest scanned.  On
#: an expander a piece's first vertices almost always reach the anchor,
#: so the scan stays near the victims' load even when a victim hosts a
#: vertex near the root (whose subtree holds up to about p/2 vertices).
SCAN_PREFIX = 64

#: The certificate runs when the victims host at most n / 32 vertices,
#: else the array BFS decides.  Measured on 2 vCPUs (random victims at
#: n = 1024 .. 65536, p about 4n): the certificate costs about 0.15 ms +
#: 2.2 us per victim vertex at every n, the BFS 0.08 us per survivor
#: plus 2.5 us per row changed since the last one (1.0 ms at n = 1024
#: and 7.4 ms at n = 65536 after 400 changed rows).  The share keeps
#: the certificate where it wins even when a flood re-reads those rows
#: right after (a delete-only exodus refreshes them either way).
CERTIFICATE_MAX_LOAD = 1 / 32

#: paint-buffer entries: unpainted (the root piece), a victim's vertex
_ROOT, _VICTIM = -1, -2


@lru_cache(maxsize=4)
def _paint_buffer(p: int) -> np.ndarray:
    """One piece label per preorder index of ``zero_tree(p)``, all
    ``_ROOT`` between calls (each call resets the entries it painted;
    the engine heals on one thread)."""
    return np.full(p, _ROOT, dtype=np.int32)


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(a, b)`` over disjoint ranges."""
    lengths = ends - starts
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


def certify_survivors(
    dex: "DexNetwork", victims: Collection[NodeId]
) -> SurvivorSplit | None:
    """The components of the real graph without ``victims``, decided on
    the virtual graph; ``None`` while two layers are live (a staggered
    op in flight), where only the array BFS applies, or when the victims
    host more than ``CERTIFICATE_MAX_LOAD * n`` vertices.

    Between steps the real graph is the host image of ``Z(p)`` and every
    node hosts a vertex (I8), so the survivors are connected exactly
    when ``Z(p)`` minus the victims' vertices R, with each survivor's
    vertices glued together, is.  The BFS tree of ``Z(p)`` minus R falls
    into pieces, each connected: the root piece (label 0) and one per
    child of an R vertex that is not in R, each a set of preorder
    intervals.  The non-root pieces are painted.  The *anchor* is the
    root piece, or the piece heading the longest painted subtree when a
    victim hosts vertex 0.

    A piece joins another through a Z(p) edge, or through a host holding
    vertices of both.  Every piece is scanned until it is known to be
    joined to the anchor, or else completely: an edge between two joined
    pieces cannot change the answer, and any other edge or host has an
    end in a completely scanned piece, which finds it."""
    if dex.staggered is not None or dex.overlay.new is not None:
        return None
    layer = dex.overlay.old
    sim, host, p = layer.sim, layer.host, layer.p
    tree = zero_tree(p)
    pre, size, order = tree.pre, tree.size, tree.order
    r = np.fromiter(chain.from_iterable(map(sim.__getitem__, victims)), np.int64)
    if r.size > CERTIFICATE_MAX_LOAD * dex.size:
        return None
    paint = _paint_buffer(p)
    r_pre = pre[r]
    paint[r_pre] = _VICTIM
    around = neighbor_rows(r, p)
    child = (tree.parent_array[around] == r[:, None]) & (around != r[:, None])
    child[:, 2] &= (around[:, 2] != around[:, 0]) & (around[:, 2] != around[:, 1])
    starts = np.sort(pre[around[child]])
    starts = starts[paint[starts] != _VICTIM]
    ends = starts + size[order[starts]]
    # The intervals are laminar and sorted by start, so each piece is
    # painted after every piece around it and keeps only its own part.
    for k, (a, b) in enumerate(zip(starts.tolist(), ends.tolist()), 1):
        paint[a:b] = k
    paint[r_pre] = _VICTIM
    outer = np.ones(starts.size, dtype=bool)
    outer[1:] = starts[1:] >= np.maximum.accumulate(ends)[:-1]
    lo, hi = starts[outer], ends[outer]
    pieces = starts.size + 1
    #: union-find parent per piece label
    up: list[int] = []
    anchor = 0
    if host[0] in victims:  # no root piece: label 0 names nothing
        anchor = int(np.flatnonzero(outer)[np.argmax(hi - lo)]) + 1

    def scan(at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The vertices and labels at preorder positions ``at`` (victims'
        dropped), and the two labels of each Z(p) edge leaving them."""
        labels = paint[at]
        keep = labels != _VICTIM
        labels, vertices = labels[keep], order[at[keep]]
        across = paint[pre[neighbor_rows(vertices, p)]]
        cross = (across != _VICTIM) & (across != labels[:, None])
        a = np.broadcast_to(labels[:, None], across.shape)[cross].astype(np.int64)
        return vertices, labels, a, np.maximum(across[cross], 0)

    def find(x: int) -> int:
        while up[x] != x:
            up[x] = x = up[up[x]]  # path halving
        return x

    def union_all(a: np.ndarray, b: np.ndarray) -> None:
        for code in np.unique(a * pieces + b).tolist():
            x, y = divmod(code, pieces)
            up[find(x)] = find(y)

    def roots() -> np.ndarray:
        out = np.array(up)
        while not np.array_equal(nxt := out[out], out):
            out = nxt
        return out

    try:
        cut = np.minimum(hi, lo + SCAN_PREFIX)
        vertices, labels, a, b = scan(_ranges(lo, cut))
        # every label is its own root so far: the edges into the root
        # piece link straight to it
        first = np.arange(pieces)
        first[a[b == 0]] = 0
        up = first.tolist()
        # ... and edges between two pieces linked so are moot
        between = (b > 0) & ((first[a] > 0) | (first[b] > 0))
        union_all(a[between], b[between])
        if (cut < hi).any():
            rest = _ranges(cut, hi)
            top = roots()
            rest = rest[top[np.maximum(paint[rest], 0)] != top[anchor]]
            more_vertices, more_labels, a, b = scan(rest)
            union_all(a, b)
            vertices = np.concatenate((vertices, more_vertices))
            labels = np.concatenate((labels, more_labels))
        top = roots()
        loose = top[labels] != top[anchor]
        for v, x in zip(vertices[loose].tolist(), labels[loose].tolist()):
            held = np.fromiter(sim[host[v]], np.int64)
            for y in paint[pre[held]].tolist():
                up[find(x)] = find(max(y, 0))
    finally:
        for s, e in zip(lo.tolist(), hi.tolist()):
            paint[s:e] = _ROOT
        paint[r_pre] = _ROOT
    top = roots()
    present = top[1:] if anchor else top
    names = {x: i for i, x in enumerate(dict.fromkeys(present.tolist()))}
    if len(names) == 1:
        return 1, lambda w: 0
    of_vertex = dict(zip(vertices.tolist(), top[labels].tolist()))
    joined_to_anchor = names[top[anchor]]

    def component_of(w: NodeId) -> int:
        z = next(iter(sim[w]))
        return names[of_vertex[z]] if z in of_vertex else joined_to_anchor

    return len(names), component_of


def _restore_for_connectivity(
    graph: "DynamicMultigraph",
    legal: Sequence[NodeId],
    split: SurvivorSplit | None = None,
) -> list[NodeId]:
    """The victims to re-admit (reject) so the remainder reconnects.

    Union-find over the *component quotient* of the survivor graph
    (``split`` from the certificate, or else the array traversal labels
    the components; only the victims' neighbours are looked up, so the
    Python work is proportional to the batch, not to n), then restore
    sweeps latest-first that only re-admit victims
    actually *bridging* two or more live components (a victim whose live
    neighbors all sit in one component cannot help connectivity, so
    restoring it would reject a perfectly legal request).  When a sweep
    makes no progress -- components joined only through a chain of
    victims -- the latest remaining victim is force-restored to expose
    the chain, which guarantees termination: restoring every victim
    yields the original, connected graph."""
    victim_set = set(legal)
    neighbors = {u: graph.distinct_neighbors(u) for u in legal}
    probe = {w for ws in neighbors.values() for w in ws if w not in victim_set}
    if split is None:
        components, label = graph.survivor_components(victim_set, probe)
    else:
        components, component_of = split
        label = {w: component_of(w) for w in probe}
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
    congestion-synchronous token waves.  Repeated victims count once.
    All-or-nothing: any illegal victim rejects the whole batch
    (:func:`delete_batch_partial` heals the legal majority instead)."""
    victims = list(dict.fromkeys(nodes))
    if not victims:
        raise AdversaryError("empty deletion batch")
    legal, rejected, adopter = partition_delete_batch(dex, victims)
    if rejected:
        raise AdversaryError(rejected[0].reason)
    return _delete_step(dex, legal, adopter)


def delete_batch_partial(dex: "DexNetwork", nodes: Sequence[NodeId]) -> BatchOutcome:
    """Heal the legal subset of a deletion batch in one wave and report
    every rejected victim with its reason.  An empty or fully illegal
    batch runs no step (``report is None``)."""
    legal, rejected, adopter = partition_delete_batch(dex, list(nodes))
    report = _delete_step(dex, legal, adopter) if legal else None
    return BatchOutcome("delete", accepted=legal, rejected=rejected, report=report)


@_traced("core.delete_batch")
def _delete_step(
    dex: "DexNetwork", victims: list[NodeId], adopter: dict[NodeId, NodeId]
) -> StepReport:
    """Apply a legal deletion batch: the structural adoption sweep, then
    the redistribution waves."""
    ledger = CostLedger()
    topo_before = dex.graph.topology_changes
    recovery = RecoveryType.TYPE1

    # Structural phase: each victim's vertices move to its smallest
    # *surviving* neighbor (adoption never targets a later victim, so
    # vertices move exactly once).  Outside a staggered op the adoption
    # is the bulk contraction primitive -- O(connections + load) per
    # victim instead of per-vertex edge rewiring; during one, a victim's
    # vertices of both layers move, and each becomes a token of its layer.
    pending: dict[Layer, list[Token]] = {Layer.OLD: [], Layer.NEW: []}
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
            pending[Layer.OLD].extend((z, v) for z in old_vertices)
        else:
            _, old_vertices, new_vertices = adopt_deleted(dex, u, ledger, adopter=v)
            pending[Layer.OLD].extend((z, v) for z in old_vertices)
            pending[Layer.NEW].extend((y, v) for y in new_vertices)
            recovery = RecoveryType.TYPE1_DURING_STAGGER
            coord = dex.coordinator.node  # vertex 0 may have rehomed

    forced = False
    for layer, tokens in pending.items():  # old first: a forced op promotes the new
        recovery, _, forced_here = _heal_in_waves(dex, _adopted(layer), tokens, ledger, recovery)
        forced = forced or forced_here
    return dex._finish_step(
        StepKind.BATCH,
        victims[0],
        dex.coordinator.node,
        recovery,
        ledger,
        topo_before,
        events=len(victims),
        forced=forced,
    )


# ----------------------------------------------------------------------
# the wave driver (both batch kinds)
# ----------------------------------------------------------------------
#: a token: its entry (the fresh node, or the adopted vertex) and the
#: node it starts from (the attach point, or the adopter)
Token = tuple[int, NodeId]


@dataclass(frozen=True)
class TokenKind:
    """What the wave driver takes from a batch kind."""

    #: the rebuild a shortage of targets calls for
    type2: str
    #: the target set a token seeks in a wave (the staggered op's while
    #: one is in flight)
    targets: Callable[["DexNetwork", int], "Container[NodeId]"]
    #: the transfer when a token lands on one of the wave's targets
    #: (False: the target no longer qualifies, retry next round)
    resolve: Callable[["DexNetwork", int, NodeId, "Container[NodeId]"], bool]
    #: how the RecoveryError names unresolved tokens
    failure: str


#: During a staggered op an adopted vertex seeks its primary seats in the
#: waves of the unboosted walk budget (:func:`walk_budget`) and any node
#: below 8*zeta from this wave on.
FALLBACK_WAVE = 4

INSERTIONS = TokenKind(
    type2="inflate",
    targets=lambda dex, _wave: (
        dex.overlay.old.spare if dex.staggered is None else dex.staggered
    ),
    resolve=lambda dex, u, w, _targets: (
        resolve_insertion(dex, u, w) if dex.staggered is None else dex.staggered.give(u, w)
    ),
    failure="batched insertions not healed",
)


def _adopted(layer: Layer) -> TokenKind:
    """Vertices of ``layer`` that victims held: Low of the primary layer
    between ops, the op's seats while one is in flight."""
    return TokenKind(
        type2="deflate",
        targets=lambda dex, wave: (
            dex.overlay.old.low
            if dex.staggered is None
            else dex.staggered.seats(layer, wave >= FALLBACK_WAVE)
        ),
        resolve=lambda dex, z, w, targets: (
            resolve_redistribution(dex, z, w)
            if dex.staggered is None
            else dex.staggered.seat(layer, z, w, targets)
        ),
        failure="adopted vertices not redistributed",
    )


def _heal_in_waves(
    dex: "DexNetwork",
    kind: TokenKind,
    pending: list[Token],
    ledger: CostLedger,
    recovery: RecoveryType,
    ticks: int = 0,
) -> tuple[RecoveryType, int, bool]:
    """Token waves under Lemma 11 until every token resolved or a type-2
    rebuild healed the rest.  While a staggered op is in flight a failed
    wave only retries, and the first such wave follows one chunk request
    for the step's ``ticks`` events, so an insertion finds the vertices
    its own event's chunk generates.  Adopted vertices left over then
    stay at their adopters (Lemma 9a allows 8*zeta), or else the op is
    force-completed.  Returns the step's recovery kind, the events
    ticked and whether the op saw a forced completion."""
    ticked, forced = 0, False
    for wave in range(dex.config.max_type1_retries + 1):
        if not pending:
            break
        op = dex.staggered
        if op is not None:
            recovery = RecoveryType.TYPE1_DURING_STAGGER
            if ticked < ticks:
                op.advance(ledger, chunks=ticks)
                ticked, forced = ticks, op.forced
        targets = kind.targets(dex, wave)
        ends, founds, hops, rounds = run_wave(
            dex.graph,
            [v for _x, v in pending],
            walk_budget(dex, wave),
            targets,
            dex.rng,
            # a token never steps onto its own fresh node
            excluded=[x for x, _v in pending] if kind is INSERTIONS else None,
        )
        ledger.charge_walk_wave(walks=len(pending), hops=hops, rounds=rounds)
        # In order: an earlier resolution of the same wave may have
        # drained (or filled) a later token's landing node.
        pending = [
            token
            for token, w, found in zip(pending, ends, founds)
            if not (found and kind.resolve(dex, token[0], w, targets))
        ]
        if not pending:
            break
        healed = decide_type2(dex, kind.type2, pending, ledger, wave)
        if healed is not None:
            return healed, ticked, forced
    op = dex.staggered
    if pending and (op is None or kind is INSERTIONS):
        raise RecoveryError(
            f"{len(pending)} {kind.failure} within "
            f"{dex.config.max_type1_retries} token waves"
        )
    if op is not None and any(
        dex.overlay.total_load(v) > dex.config.stagger_max_load for _z, v in pending
    ):
        op.force_complete(ledger)
        forced = True
    return recovery, ticked, forced
