"""The overlay state: real multigraph kept exactly in sync with the
virtual layer(s).

Outside type-2 recovery there is a single layer (the current p-cycle);
during a *staggered* type-2 recovery (Section 4.4) a second layer exists
whose vertices activate chunk by chunk, plus *intermediate edges*
connecting a new-layer vertex to the old-layer vertex whose cloud will
eventually produce its missing neighbor (Procedures ``inflate`` /
``deflate``).

Every real edge has exactly one reason to exist:

1. a live virtual edge of a layer whose both endpoints are active,
2. an intermediate edge,
3. the adversary's initial attachment of an inserted node (removed at the
   end of the step unless a virtual edge requires the connection,
   Algorithm 4.2 line 3).

The bookkeeping is reference-counted: the degree of a node always equals
``3 * (#active vertices hosted)`` plus its intermediate-edge endpoints
(plus a transient attachment unit), which is invariant I3/I4 of
``docs/substitutions.md``.  Self-loop conventions: a virtual self-loop
contributes weight 1; a virtual edge or intermediate whose two endpoints
land on the same real node contributes weight 2 (degree-preserving
contraction).
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Protocol, Sequence

import numpy as np

from repro.core.mapping import LayerMapping
from repro.errors import MappingError
from repro.net.topology import DynamicMultigraph
from repro.types import Layer, NodeId, Vertex
from repro.virtual.pcycle import PCycle


def _projected(a: np.ndarray, b: np.ndarray, host: np.ndarray) -> tuple[np.ndarray, ...]:
    """The real edges ``(u, v, multiplicity)`` of the virtual edges
    ``(a[i], b[i])`` under ``host`` (vertex -> node), by the self-loop
    conventions above: what ``_pair_add`` / ``_pair_remove`` (or, for a
    virtual self-loop, one unit at its host) would be called with."""
    us, vs = host[a], host[b]
    return us, vs, np.where((us == vs) & (a != b), 2, 1)


class OverlayListener(Protocol):
    """What overlay subscribers (the coordinator) must implement."""

    def on_primary_counts(self, spare_delta: int, low_delta: int) -> None: ...

    def on_primary_replaced(self) -> None: ...


class Overlay:
    """Real graph + virtual layers + intermediate edges."""

    def __init__(self, graph: DynamicMultigraph, primary: LayerMapping) -> None:
        self.graph = graph
        self.old = primary
        self.new: LayerMapping | None = None
        # intermediate edges: new-layer vertex <-> old-layer vertex,
        # with multiplicity (a new vertex may need two parallel edges
        # toward the same future neighbor).
        self.inter_by_new: dict[Vertex, Counter[Vertex]] = {}
        self.inter_by_old: dict[Vertex, Counter[Vertex]] = {}
        #: incremental per-node count of intermediate-edge endpoints
        #: (replaces the O(#intermediates) scan on the degree hot path)
        self._inter_endpoints: Counter[NodeId] = Counter()
        self._listeners: list[OverlayListener] = []
        self._wire_primary()

    # ------------------------------------------------------------------
    # change listeners (exact deltas for the coordinator, Algorithm 4.7)
    # ------------------------------------------------------------------
    def add_listener(self, listener: OverlayListener) -> None:
        """Subscribe to primary-layer Spare/Low deltas and layer swaps."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: OverlayListener) -> None:
        """Unsubscribe (no-op if not subscribed)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _wire_primary(self) -> None:
        self.old.on_counts_delta = self._emit_counts_delta

    def _emit_counts_delta(self, _u: NodeId, spare_delta: int, low_delta: int) -> None:
        for listener in self._listeners:
            listener.on_primary_counts(spare_delta, low_delta)

    def _emit_primary_replaced(self) -> None:
        for listener in self._listeners:
            listener.on_primary_replaced()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def layer(self, which: Layer) -> LayerMapping:
        if which is Layer.OLD:
            return self.old
        if self.new is None:
            raise MappingError("no staggered operation in progress (no new layer)")
        return self.new

    def total_load(self, u: NodeId) -> int:
        load = self.old.load(u)
        if self.new is not None:
            load += self.new.load(u)
        return load

    def _pair_add(self, a: NodeId, b: NodeId) -> None:
        if a == b:
            self.graph.add_edge(a, a, mult=2)
        else:
            self.graph.add_edge(a, b, mult=1)

    def _pair_remove(self, a: NodeId, b: NodeId) -> None:
        if a == b:
            self.graph.remove_edge(a, a, mult=2)
        else:
            self.graph.remove_edge(a, b, mult=1)

    # ------------------------------------------------------------------
    # vertex lifecycle
    # ------------------------------------------------------------------
    def activate(self, which: Layer, z: Vertex, node: NodeId) -> None:
        """Make ``z`` live at ``node``, wiring edges to already-active
        same-layer neighbors and its own virtual self-loop."""
        lm = self.layer(which)
        lm.assign(z, node)
        for nb in lm.pcycle.neighbor_multiset(z):
            if nb == z:
                self.graph.add_edge(node, node, mult=1)
            elif lm.is_active(nb):
                self._pair_add(node, lm.host_of(nb))

    def activate_all(self, owners: Sequence[NodeId]) -> None:
        """``activate(Layer.OLD, z, owners[z])`` for z = 0 .. p-1 on the
        still empty primary layer, as one array pass.  Order contract:
        the real graph's rows get the keys, in the order, that sequence
        of calls leaves (:meth:`DynamicMultigraph.add_edges`)."""
        lm = self.old
        if len(owners) != lm.p:
            raise MappingError("bulk activation must cover every vertex")
        lm.assign_all(array("q", owners))
        nbrs = lm.pcycle.neighbor_arrays()
        # z's own loop, or a neighbor active before it
        wired = nbrs <= np.arange(lm.p)[:, None]
        edges = _projected(np.nonzero(wired)[0], nbrs[wired], lm.host_view())
        del nbrs, wired  # p-sized scratch, dropped before the bulk pass takes its own
        self.graph.add_edges(*edges)

    def deactivate(self, which: Layer, z: Vertex) -> NodeId:
        """Remove ``z`` (phase 2 of staggered ops drops old vertices)."""
        lm = self.layer(which)
        node = lm.host_of(z)
        if which is Layer.OLD and self.inter_by_old.get(z):
            raise MappingError(
                f"old vertex {z} still carries intermediate edges"
            )
        if which is Layer.NEW and self.inter_by_new.get(z):
            raise MappingError(
                f"new vertex {z} still carries intermediate edges"
            )
        # Unassign first so neighbor iteration does not see z as active.
        lm.unassign(z)
        for nb in lm.pcycle.neighbor_multiset(z):
            if nb == z:
                self.graph.remove_edge(node, node, mult=1)
            elif lm.is_active(nb):
                self._pair_remove(node, lm.host_of(nb))
        return node

    def move(self, which: Layer, z: Vertex, new_node: NodeId) -> NodeId:
        """Transfer ``z`` (and its edges, and any intermediate edges
        riding on it) to ``new_node``; returns the previous host.

        Outside a staggered operation (single layer, so no intermediate
        edges can ride on ``z``) the transfer takes the combined
        endpoint-move fast path of the topology -- the healing hot path
        resolves one move per recovered vertex."""
        if which is Layer.OLD and self.new is None:
            return self._move_primary_fast(z, new_node)
        lm = self.layer(which)
        old_node = lm.host_of(z)
        if old_node == new_node:
            return old_node
        for nb in lm.pcycle.neighbor_multiset(z):
            if nb == z:
                self.graph.remove_edge(old_node, old_node, mult=1)
                self.graph.add_edge(new_node, new_node, mult=1)
            elif lm.is_active(nb):
                h = lm.host_of(nb)
                self._pair_remove(old_node, h)
                self._pair_add(new_node, h)
        if which is Layer.OLD:
            riders = self.inter_by_old.get(z)
            if riders:
                assert self.new is not None
                for y, count in riders.items():
                    hy = self.new.host_of(y)
                    for _ in range(count):
                        self._pair_remove(hy, old_node)
                        self._pair_add(hy, new_node)
        else:
            riders = self.inter_by_new.get(z)
            if riders:
                for x, count in riders.items():
                    hx = self.old.host_of(x)
                    for _ in range(count):
                        self._pair_remove(old_node, hx)
                        self._pair_add(new_node, hx)
        if riders:
            moved = sum(riders.values())
            self._inter_endpoints[old_node] -= moved
            if self._inter_endpoints[old_node] <= 0:
                del self._inter_endpoints[old_node]
            self._inter_endpoints[new_node] += moved
        lm.reassign(z, new_node)
        return old_node

    def _move_primary_fast(self, z: Vertex, new_node: NodeId) -> NodeId:
        """Single-layer vertex transfer through the topology's combined
        endpoint moves (no new layer => no intermediate edges to carry)."""
        lm = self.old
        host = lm.host
        old_node = lm.host_of(z)
        if old_node == new_node:
            return old_node
        graph = self.graph
        for nb in lm.pcycle.neighbor_multiset(z):
            if nb == z:
                graph.move_loop_unit(old_node, new_node)
            else:
                h = host[nb]
                if h >= 0:
                    graph.move_pair_endpoint(old_node, new_node, h)
        # inline of lm.reassign (old_node already resolved above)
        host[z] = new_node
        sim = lm.sim
        vertices = sim[old_node]
        if len(vertices) == 1:
            del sim[old_node]
        else:
            vertices.remove(z)
        target = sim.get(new_node)
        if target is None:
            sim[lm.own(new_node)] = array("i", (z,))
        else:
            target.append(z)
        lm._sets_after_change(old_node)
        lm._sets_after_change(new_node)
        return old_node

    def adopt_node(self, u: NodeId, v: NodeId) -> list[Vertex]:
        """Bulk adoption for the batch engine: every primary-layer vertex
        of ``u`` rehomes at ``v`` and ``u``'s real edges contract into
        ``v`` in one O(connections + load) sweep -- the final state is
        identical to moving the vertices one at a time and then removing
        ``u``.  Only valid outside a staggered operation (single layer,
        no intermediate edges)."""
        if self.new is not None:
            raise MappingError("bulk adoption requires a single live layer")
        moved = self.old.reassign_all(u, v)
        self.graph.contract_into(u, v)
        return moved

    # ------------------------------------------------------------------
    # intermediate edges (staggered type-2 only)
    # ------------------------------------------------------------------
    def add_intermediate(self, y_new: Vertex, x_old: Vertex) -> None:
        if self.new is None:
            raise MappingError("intermediate edges need a staggered operation")
        hy = self.new.host_of(y_new)
        hx = self.old.host_of(x_old)
        self._pair_add(hy, hx)
        self.inter_by_new.setdefault(y_new, Counter())[x_old] += 1
        self.inter_by_old.setdefault(x_old, Counter())[y_new] += 1
        self._inter_endpoints[hy] += 1
        self._inter_endpoints[hx] += 1

    def remove_intermediate(self, y_new: Vertex, x_old: Vertex) -> None:
        by_new = self.inter_by_new.get(y_new)
        if not by_new or by_new[x_old] <= 0:
            raise MappingError(
                f"no intermediate edge between new:{y_new} and old:{x_old}"
            )
        assert self.new is not None
        hy = self.new.host_of(y_new)
        hx = self.old.host_of(x_old)
        self._pair_remove(hy, hx)
        for h in (hy, hx):
            self._inter_endpoints[h] -= 1
            if self._inter_endpoints[h] <= 0:
                del self._inter_endpoints[h]
        by_new[x_old] -= 1
        if by_new[x_old] == 0:
            del by_new[x_old]
            if not by_new:
                del self.inter_by_new[y_new]
        by_old = self.inter_by_old[x_old]
        by_old[y_new] -= 1
        if by_old[y_new] == 0:
            del by_old[y_new]
            if not by_old:
                del self.inter_by_old[x_old]

    def intermediate_count(self) -> int:
        return sum(sum(c.values()) for c in self.inter_by_new.values())

    def intermediate_endpoints(self, u: NodeId) -> int:
        """Intermediate edge endpoints at node ``u``, O(1) from the
        incremental counter."""
        return self._inter_endpoints.get(u, 0)

    def verify_intermediate_cache(self) -> None:
        """Check the incremental endpoint counter against a full recount."""
        recount: Counter[NodeId] = Counter()
        for y, targets in self.inter_by_new.items():
            assert self.new is not None
            hy = self.new.host_of(y)
            for x, count in targets.items():
                recount[hy] += count
                recount[self.old.host_of(x)] += count
        if any(c <= 0 for c in self._inter_endpoints.values()):
            raise MappingError(
                "intermediate endpoint counter holds a non-positive entry"
            )
        if dict(self._inter_endpoints) != dict(recount):
            raise MappingError(
                "intermediate endpoint counters diverged from recount"
            )

    # ------------------------------------------------------------------
    # wholesale layer replacement (simplified type-2, Algorithms 4.5/4.6)
    # ------------------------------------------------------------------
    def replace_primary(self, pcycle: PCycle, hosts: array[int]) -> None:
        """Swap the single live layer for a new p-cycle with the given
        (complete, surjective) host table, rebuilding all edges.

        This is the one-shot replacement of the simplified procedures: it
        costs O(n) topology changes, which is exactly what Lemma 5(d)
        charges.

        Order contract: the real graph ends as if every old virtual edge
        had been removed and every new one added by its own scalar call,
        each cycle in :meth:`PCycle.edges` order -- an edge that is not the
        layer's (a pending insert's attachment) keeps its place in its
        rows -- and ``hosts`` itself becomes ``old.host``.
        """
        if self.new is not None:
            raise MappingError("cannot replace the layer during a staggered op")
        if len(hosts) != pcycle.p or np.frombuffer(hosts, dtype=np.int64).min() < 0:
            raise MappingError("host assignment must cover every vertex")
        graph = self.graph
        new_layer = LayerMapping(pcycle, self.old.low_threshold, graph.own)
        new_layer.assign_all(hosts)
        if not all(map(graph.has_node, new_layer.sim)):
            raise MappingError("assignment names a node that is not live")
        if len(new_layer.sim) != graph.num_nodes:
            missing = {u for u in graph.nodes() if u not in new_layer.sim}
            raise MappingError(f"assignment not surjective; empty nodes: {missing}")
        self._teardown_all_old_edges()
        self.old.on_counts_delta = None
        self.old = new_layer
        self._wire_primary()
        graph.add_edges(*_projected(*pcycle.edge_arrays(), new_layer.host_view()))
        self._emit_primary_replaced()

    def _teardown_all_old_edges(self) -> None:
        a, b = self.old.pcycle.edge_arrays()
        host = self.old.host_view()
        live = (host[a] >= 0) & (host[b] >= 0)
        self.graph.remove_edges(*_projected(a[live], b[live], host))

    # ------------------------------------------------------------------
    # staggered layer management
    # ------------------------------------------------------------------
    def open_new_layer(self, pcycle: PCycle) -> LayerMapping:
        if self.new is not None:
            raise MappingError("a staggered operation is already in progress")
        self.new = LayerMapping(pcycle, self.old.low_threshold, self.graph.own)
        return self.new

    def promote_new_layer(self) -> None:
        """Finish a staggered op: the new layer becomes the primary."""
        if self.new is None:
            raise MappingError("no staggered operation in progress")
        if self.old.active_count != 0:
            raise MappingError(
                f"{self.old.active_count} old vertices still active at promotion"
            )
        if self.inter_by_new or self.inter_by_old:
            raise MappingError("intermediate edges remain at promotion")
        self.old.on_counts_delta = None
        self.old = self.new
        self.new = None
        self._wire_primary()
        self._emit_primary_replaced()

    # ------------------------------------------------------------------
    # verification (invariant I3/I4)
    # ------------------------------------------------------------------
    def expected_degree(self, u: NodeId) -> int:
        """Degree implied by the virtual state: one endpoint per live
        virtual edge incidence whose *neighbor is active* (intermediate
        edges stand in for the inactive ones and are counted separately).
        In steady state every neighbor is active and this is exactly
        ``3 * Load(u)``."""
        total = 0
        for lm in filter(None, (self.old, self.new)):
            for z in lm.sim.get(u, ()):
                for nb in lm.pcycle.neighbor_multiset(z):
                    if nb == z or lm.is_active(nb):
                        total += 1
        # O(1) cached count: check_all audits it against the recount
        # (verify_intermediate_cache) before the per-node degree sweep.
        return total + self.intermediate_endpoints(u)

    def rebuild_expected_graph(self) -> dict[tuple[NodeId, NodeId], int]:
        """Recompute the exact expected multigraph from the virtual state
        (used by the invariant checker to catch any bookkeeping drift)."""
        expected: Counter[tuple[NodeId, NodeId]] = Counter()

        def pair_key(a: NodeId, b: NodeId) -> tuple[NodeId, NodeId]:
            return (a, b) if a <= b else (b, a)

        for lm in filter(None, (self.old, self.new)):
            for a, b in lm.pcycle.edges():
                if not (lm.is_active(a) and lm.is_active(b)):
                    continue
                ha, hb = lm.host_of(a), lm.host_of(b)
                if a == b:
                    expected[(ha, ha)] += 1
                elif ha == hb:
                    expected[(ha, ha)] += 2
                else:
                    expected[pair_key(ha, hb)] += 1
        for y, targets in self.inter_by_new.items():
            assert self.new is not None
            hy = self.new.host_of(y)
            for x, count in targets.items():
                hx = self.old.host_of(x)
                if hy == hx:
                    expected[(hy, hy)] += 2 * count
                else:
                    expected[pair_key(hy, hx)] += count
        return dict(expected)
