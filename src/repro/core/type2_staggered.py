"""Staggered type-2 recovery (Section 4.4, Procedures ``inflate`` and
``deflate``) -- the variant that achieves Theorem 1's *worst-case*
O(log n) rounds/messages and O(1) topology changes per step.

The coordinator triggers the operation early (at the ``3*theta*n``
threshold) and the rebuild is spread over the recoveries of the following
Theta(n) steps, one chunk per adversarial event (a step's chunks go out
as one request, :meth:`StaggeredOp.advance`):

* **Phase 1** processes the old vertices in chunks of ``ceil(1/theta)``
  per step (order ``1, 2, ..., p-1, 0`` -- the coordinator's vertex
  last).  For inflation each processed vertex spawns its cloud in the new
  p-cycle at its current host; for deflation each *dominating* vertex
  spawns its image.  Edges toward not-yet-generated neighbors become
  *intermediate edges* anchored at the old vertex that will generate them
  (locally computable: Eq. 7's inverse / the dominating-vertex formula),
  and are resolved into proper edges when that vertex activates.
* **Phase 2** drops the old cycle's vertices (and edges) chunk by chunk.
* Insertions and deletions continue to be healed with type-1 recovery
  throughout; per Lemma 9 each node carries at most ``8*zeta`` vertices
  and the network keeps a constant spectral gap (>= (1-lambda)^2/8).
  The op is the target set of an insertion token (its donors, see
  :meth:`StaggeredOp.give`) and names the seats of an adopted vertex
  (:meth:`StaggeredOp.seats`); a single step walks one token at a time
  to them, a batch sends its tokens in waves.

Bookkeeping specific to deflation: a node none of whose old vertices is
dominating would end up with nothing; the first time such a node is
*active* (hosts a vertex of the current chunk) it walks for a donor with
two "guarantee units" (an unprocessed dominating old vertex, or an active
new vertex) and takes one over -- the concrete realization of the
contending/taken protocol of Procedure ``deflate``.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Container

from repro.core.type1 import walk_for
from repro.errors import RecoveryError
from repro.net.metrics import CostLedger
from repro.net.routing import route_cost
from repro.types import Layer, NodeId, Vertex
from repro.virtual.clouds import (
    deflation_image,
    dominating_vertex,
    inflation_cloud,
    inflation_parent,
    is_dominating,
)
from repro.virtual.pcycle import PCycle
from repro.virtual.primes import deflation_prime, inflation_prime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dex import DexNetwork

_DIST_SAMPLE_PER_STEP = 3


class _Where:
    """A node predicate read as a set: a wave asks only ``m in targets``."""

    def __init__(self, test: Callable[[NodeId], bool]) -> None:
        self.test = test

    def __contains__(self, m: NodeId) -> bool:
        return self.test(m)


class StaggeredOp:
    """One in-flight staggered inflation or deflation."""

    def __init__(self, dex: "DexNetwork", kind: str, ledger: CostLedger) -> None:
        if kind not in ("inflate", "deflate"):
            raise ValueError(f"unknown staggered kind {kind!r}")
        self.dex = dex
        self.kind = kind
        self.p_old = dex.overlay.old.p
        if kind == "inflate":
            self.p_new = inflation_prime(self.p_old)
        else:
            self.p_new = deflation_prime(self.p_old)
            if self.p_new < dex.size:
                raise RecoveryError(
                    f"deflation target p={self.p_new} below network size {dex.size}"
                )
        self.pcycle_new = PCycle(self.p_new)
        self.new = dex.overlay.open_new_layer(self.pcycle_new)
        self.phase = 1
        self.frontier = 0  # processed (phase 1) / dropped (phase 2) positions
        self.chunk = dex.config.chunk_size
        #: inactive new vertex -> Counter of active new vertices that
        #: registered an intermediate edge toward its generating old vertex
        self.pending: dict[Vertex, Counter[Vertex]] = {}
        #: deflation only: per-node count of unprocessed dominating vertices
        self.dom_unprocessed: Counter[NodeId] = Counter()
        #: deflation only: nodes whose contending status was resolved
        self.checked: set[NodeId] = set()
        self.forced = False
        self._dist_samples: list[int] = []
        if kind == "deflate":
            for x in range(self.p_old):
                if is_dominating(x, self.p_old, self.p_new):
                    self.dom_unprocessed[dex.overlay.old.host_of(x)] += 1
        # The trigger step processes the first chunk immediately
        # (Section 4.4.1: the coordinator contacts the first 1/theta
        # vertices during the recovery of step t0).
        self.advance(ledger)

    # ------------------------------------------------------------------
    # schedule
    # ------------------------------------------------------------------
    def vertex_at(self, position: int) -> Vertex:
        """Processing order 1, 2, ..., p-1, 0 (coordinator last)."""
        return position + 1 if position < self.p_old - 1 else 0

    def position_of(self, x: Vertex) -> int:
        return x - 1 if x >= 1 else self.p_old - 1

    def is_processed(self, x: Vertex) -> bool:
        if self.phase == 2:
            return True
        return self.position_of(x) < self.frontier

    @property
    def progress(self) -> float:
        done = self.frontier + (self.p_old if self.phase == 2 else 0)
        return done / (2 * self.p_old)

    # ------------------------------------------------------------------
    # per-step advancement
    # ------------------------------------------------------------------
    def advance(self, ledger: CostLedger, chunks: int = 1) -> None:
        """Process ``chunks`` chunks, one per adversarial event of the
        step (Lemma 9 counts events), as one parallel request: the
        coordinator forwards each chunk's request along the complete
        layer, one request per connection per round.  Rounds: the
        longest route plus ``ceil(requests / connections) - 1``;
        messages: every route (one chunk charges its own route)."""
        width = self.dex.graph.connection_count(self.dex.coordinator.node)
        routes: list[int] = []
        for _ in range(chunks):
            if self.phase == 2 and self.frontier == self.p_old:
                break  # completed
            first_old = self.vertex_at(min(self.frontier, self.p_old - 1))
            if self.phase == 1:
                lm, target = self.dex.overlay.old, first_old
            else:
                lm, target = self.new, self._parent_image(first_old)
            if lm.is_active(0) and lm.is_active(target):
                routes.append(route_cost(lm.pcycle, lm.host_of, 0, target))
            end = min(self.frontier + self.chunk, self.p_old)
            if self.phase == 1:
                processed = [self.vertex_at(pos) for pos in range(self.frontier, end)]
                for x in processed:
                    self._process_phase1(x, ledger)
                self.dex.notify_chunk(processed, ledger)
                self.frontier = end
                if self.frontier == self.p_old:
                    self._prepare_phase2(ledger)
                    self.phase = 2
                    self.frontier = 0
            else:
                for pos in range(self.frontier, end):
                    self.dex.overlay.deactivate(Layer.OLD, self.vertex_at(pos))
                self.frontier = end
                if self.frontier == self.p_old:
                    self._finish(ledger)
        if routes:
            waits = -(-len(routes) // max(1, width)) - 1
            ledger.charge_parallel(max(routes) + waits, sum(routes))

    def force_complete(self, ledger: CostLedger) -> None:
        """Run the operation to completion within the current step
        (robustness fallback; flagged in the step report)."""
        self.forced = True
        while self.dex.staggered is self:
            self.advance(ledger)

    # ------------------------------------------------------------------
    # phase 1 processing
    # ------------------------------------------------------------------
    def _process_phase1(self, x: Vertex, ledger: CostLedger) -> None:
        if self.kind == "inflate":
            self._process_inflate(x, ledger)
        else:
            self._process_deflate(x, ledger)

    def _activate_new(self, y: Vertex, node: NodeId, ledger: CostLedger) -> None:
        """Activate new vertex ``y`` at ``node``: wire edges to active
        neighbors (resolving their intermediates) and register
        intermediates for inactive ones."""
        overlay = self.dex.overlay
        overlay.activate(Layer.NEW, y, node)
        parent_of_y = self._parent(y)
        riders = self.pending.pop(y, None)
        if riders:
            for src, count in riders.items():
                for _ in range(count):
                    overlay.remove_intermediate(src, parent_of_y)
        for nb in self.pcycle_new.neighbor_multiset(y):
            if nb == y:
                continue  # self-loop handled by activate()
            if not self.new.is_active(nb):
                anchor = self._parent(nb)
                overlay.add_intermediate(y, anchor)
                self.pending.setdefault(nb, Counter())[y] += 1
                self._charge_edge_establishment(parent_of_y, anchor, ledger)

    def _parent(self, y: Vertex) -> Vertex:
        """The old vertex that generates new vertex ``y``."""
        if self.kind == "inflate":
            return inflation_parent(y, self.p_old, self.p_new)
        return dominating_vertex(y, self.p_old, self.p_new)

    def _parent_image(self, x: Vertex) -> Vertex:
        """A new vertex generated by old vertex ``x``."""
        if self.kind == "inflate":
            return inflation_cloud(x, self.p_old, self.p_new)[0]
        return deflation_image(x, self.p_old, self.p_new)

    def _charge_edge_establishment(
        self, from_old: Vertex, to_old: Vertex, ledger: CostLedger
    ) -> None:
        """Connection request routed along the old cycle.  Exact distances
        are sampled a few times per step and the mean reused, keeping the
        per-step cost model honest without a BFS per edge."""
        if len(self._dist_samples) < _DIST_SAMPLE_PER_STEP:
            old = self.dex.overlay.old
            d = old.pcycle.distance(from_old, to_old)
            self._dist_samples.append(d)
            ledger.charge_route(d)
        else:
            mean = round(sum(self._dist_samples) / len(self._dist_samples))
            ledger.messages += mean

    def _process_inflate(self, x: Vertex, ledger: CostLedger) -> None:
        overlay = self.dex.overlay
        w = overlay.old.host_of(x)
        for y in inflation_cloud(x, self.p_old, self.p_new):
            self._activate_new(y, w, ledger)
        # Redistribute if w now simulates too many new vertices
        # (Procedure inflate line 6: |NewLoad| > 4*zeta).
        self._shed_new_overload(w, ledger)

    def _shed_new_overload(self, w: NodeId, ledger: CostLedger) -> None:
        config = self.dex.config
        attempts = 0
        while self.new.load(w) > config.max_load:
            target = walk_for(
                self.dex,
                w,
                lambda m: m != w and self.new.load(m) < config.max_load,
                ledger,
            )
            if target is None or target == w:
                attempts += 1
                ledger.retries += 1
                if attempts > config.max_type1_retries:
                    raise RecoveryError(
                        f"could not shed new-layer overload of node {w}"
                    )
                continue
            donate = self._pick_new_vertex(w)
            self.dex.overlay.move(Layer.NEW, donate, target)

    def _pick_new_vertex(self, w: NodeId) -> Vertex:
        vertices = sorted(self.new.vertices_of(w))
        if len(vertices) > 1 and vertices[0] == 0:
            return vertices[1]
        return vertices[0] if len(vertices) == 1 else vertices[-1]

    def _process_deflate(self, x: Vertex, ledger: CostLedger) -> None:
        overlay = self.dex.overlay
        w = overlay.old.host_of(x)
        if w not in self.checked:
            self.checked.add(w)
            if self.guarantee(w) == 0:
                self._resolve_contending(w, ledger)
        if is_dominating(x, self.p_old, self.p_new):
            w = overlay.old.host_of(x)  # may have changed if x was donated
            self.dom_unprocessed[w] -= 1
            if self.dom_unprocessed[w] <= 0:
                del self.dom_unprocessed[w]
            y = deflation_image(x, self.p_old, self.p_new)
            self._activate_new(y, w, ledger)

    # ------------------------------------------------------------------
    # deflation guarantees (contending/taken protocol)
    # ------------------------------------------------------------------
    def guarantee(self, u: NodeId) -> int:
        """Units ensuring ``u`` owns a vertex of the next cycle: its
        unprocessed dominating old vertices plus its active new vertices."""
        return self.dom_unprocessed.get(u, 0) + self.new.load(u)

    def _resolve_contending(self, u: NodeId, ledger: CostLedger) -> None:
        config = self.dex.config
        for _ in range(config.max_type1_retries + 1):
            donor = walk_for(
                self.dex, u, lambda m: m != u and self.guarantee(m) >= 2, ledger
            )
            if donor is not None and donor != u and self.guarantee(donor) >= 2:
                self._donate_guarantee(donor, u)
                return
            ledger.retries += 1
        raise RecoveryError(f"contending node {u} found no guarantee donor")

    def _donate_guarantee(self, donor: NodeId, receiver: NodeId) -> None:
        """Transfer one guarantee unit: an unprocessed dominating old
        vertex if the donor has a spare one, else an active new vertex."""
        overlay = self.dex.overlay
        if self.dom_unprocessed.get(donor, 0) >= 1 and self.guarantee(donor) >= 2:
            for x in sorted(overlay.old.vertices_of(donor)):
                if not self.is_processed(x) and is_dominating(
                    x, self.p_old, self.p_new
                ):
                    self.move_old(x, receiver)
                    return
        donate = self._pick_new_vertex(donor)
        overlay.move(Layer.NEW, donate, receiver)

    # ------------------------------------------------------------------
    # moves that keep the dom_unprocessed ledger current
    # ------------------------------------------------------------------
    def move_old(self, x: Vertex, target: NodeId) -> None:
        overlay = self.dex.overlay
        previous = overlay.old.host_of(x)
        if previous == target:
            return
        overlay.move(Layer.OLD, x, target)
        if (
            self.kind == "deflate"
            and not self.is_processed(x)
            and is_dominating(x, self.p_old, self.p_new)
        ):
            self.dom_unprocessed[previous] -= 1
            if self.dom_unprocessed[previous] <= 0:
                del self.dom_unprocessed[previous]
            self.dom_unprocessed[target] += 1

    # ------------------------------------------------------------------
    # churn handling during the operation
    # ------------------------------------------------------------------
    def __contains__(self, m: NodeId) -> bool:
        """Whether ``m`` can give a fresh node a vertex that guarantees it
        survives the swap (Section 4.4.1: 'we can simply assign one of the
        newly inflated vertices'): the target set of an insertion token."""
        if self.phase == 2:  # the new cycle is complete
            return self.new.load(m) >= 2
        if self.kind == "deflate":
            return self.guarantee(m) >= 2
        old = self.dex.overlay.old
        return self.new.load(m) >= 2 or (
            old.load(m) >= 2
            and any(not self.is_processed(x) for x in old.vertices_of(m))
        )

    def give(self, u: NodeId, donor: NodeId) -> bool:
        """Move one of ``donor``'s vertices to the fresh node ``u``; False
        when ``donor`` no longer qualifies (a token of the same wave
        drained it)."""
        if donor not in self:
            return False
        if self.kind == "deflate" and self.phase == 1:
            self._donate_guarantee(donor, u)
        elif self.new.load(donor) >= 2:
            self.dex.overlay.move(Layer.NEW, self._pick_new_vertex(donor), u)
        else:
            old = self.dex.overlay.old
            self.move_old(max(x for x in old.vertices_of(donor) if not self.is_processed(x)), u)
        return True

    def seats(self, layer: Layer, fallback: bool = False) -> "Container[NodeId]":
        """Where a vertex of ``layer`` adopted from a deleted node may go:
        Low for an old vertex, a node of new load in (0, 4*zeta) for a
        new one, and as the fallback any node below the staggered
        8*zeta bound (Lemma 9a)."""
        overlay, config = self.dex.overlay, self.dex.config
        if fallback:
            return _Where(lambda m: overlay.total_load(m) < config.stagger_max_load)
        if layer is Layer.OLD:
            return overlay.old.low
        return _Where(lambda m: 0 < self.new.load(m) < config.max_load)

    def seat(
        self, layer: Layer, x: Vertex, w: NodeId, seats: "Container[NodeId] | None" = None
    ) -> bool:
        """Move adopted vertex ``x`` of ``layer`` to ``w``, if ``w`` is
        still one of ``seats`` (its own adopter may keep it)."""
        if seats is not None and w not in seats:
            return False
        if layer is Layer.OLD:
            self.move_old(x, w)
        else:
            self.dex.overlay.move(Layer.NEW, x, w)
        return True

    def redistribute_after_deletion(
        self,
        v: NodeId,
        old_vertices: list[Vertex],
        new_vertices: list[Vertex],
        ledger: CostLedger,
    ) -> None:
        """Spread a deleted node's adopted vertices from ``v`` one walk at
        a time (single steps; a batch's adopted vertices are wave tokens
        with the same :meth:`seats`): primary seats first, then the
        fallback; leftovers stay at ``v`` if within bound, else the
        operation is force-completed."""
        for layer, vertices in ((Layer.OLD, old_vertices), (Layer.NEW, new_vertices)):
            # the primary seats are live: no walk or move below swaps the
            # layers (only advance() / force_complete() promote one)
            primary, fallback = self.seats(layer), self.seats(layer, fallback=True)
            lm = self.dex.overlay.old if layer is Layer.OLD else self.new
            for x in vertices:
                if not lm.is_active(x) or lm.host_of(x) != v:
                    continue  # already dropped by phase 2 or rehomed
                placed = self._place_with_retries(
                    ledger,
                    start=v,
                    primary=lambda m: m != v and m in primary,
                    fallback=lambda m: m != v and m in fallback,
                    apply=lambda m, x=x: self.seat(layer, x, m),
                )
                if not placed and layer is Layer.OLD:
                    break
        if self.dex.overlay.total_load(v) > self.dex.config.stagger_max_load:
            self.force_complete(ledger)

    def _place_with_retries(
        self,
        ledger: CostLedger,
        start: NodeId,
        primary: Callable[[NodeId], bool],
        fallback: Callable[[NodeId], bool],
        apply: Callable[[NodeId], None],
    ) -> bool:
        config = self.dex.config
        for predicate in (primary, fallback):
            for _ in range(max(2, config.max_type1_retries // 4)):
                m = walk_for(self.dex, start, predicate, ledger)
                if m is not None and predicate(m):
                    apply(m)
                    return True
                ledger.retries += 1
        return False

    # ------------------------------------------------------------------
    # phase transitions
    # ------------------------------------------------------------------
    def _prepare_phase2(self, ledger: CostLedger) -> None:
        """Every node must own a vertex of the new cycle before the old
        one is dismantled; stragglers (rare, see module docstring) pull
        one over now."""
        overlay = self.dex.overlay
        config = self.dex.config
        if self.pending:
            raise RecoveryError(
                f"{len(self.pending)} new vertices still pending at phase 2"
            )
        for u in sorted(overlay.graph.nodes()):
            if self.new.load(u) > 0 or overlay.total_load(u) == 0:
                continue  # (a fresh node still healing gets its vertex from a donor)
            placed = self._place_with_retries(
                ledger,
                start=u,
                primary=lambda m: m != u and self.new.load(m) >= 2,
                fallback=lambda m: m != u and self.new.load(m) >= 2,
                apply=lambda m, u=u: overlay.move(
                    Layer.NEW, self._pick_new_vertex(m), u
                ),
            )
            if not placed:
                donor = max(
                    (m for m in overlay.graph.nodes() if m != u),
                    key=self.new.load,
                )
                overlay.move(Layer.NEW, self._pick_new_vertex(donor), u)
                self.forced = True

    def _finish(self, ledger: CostLedger) -> None:
        overlay = self.dex.overlay
        overlay.promote_new_layer()
        self.dex.on_staggered_complete(self, ledger)
