"""DHT on top of DEX (Section 4.4.4).

Keys hash to vertices of the current p-cycle; the item lives wherever its
vertex is simulated, and *moves with the vertex* when load balancing
reassigns it -- storage responsibility follows simulation responsibility,
exactly as the paper prescribes ("if z is transferred to some other node
w, storing (k, val) becomes the responsibility of w").

Requests are routed by *local routing*: the requester picks one of its
own vertices, computes the virtual shortest path to the target vertex
(every node knows the whole virtual graph), and forwards hop by hop --
O(log n) messages and rounds.

During a staggered type-2 recovery the cycle is being replaced, and the
migration scheme follows DESIGN.md substitution 5 (a concrete realization
of the paper's transfer-and-forward sketch):

* phase 1: items migrate *eagerly* per chunk -- when old vertex ``x`` is
  processed, every item whose new home's generating vertex is ``x``
  re-addresses to the new cycle (its new vertex is activating right now,
  and the old cycle is still fully routable).  A reverse index keyed by
  generating vertex makes this O(items-in-chunk) per step.
* lookups during phase 1 check locally whether the new home's generator
  is already processed and route to whichever cycle currently owns the
  key; during phase 2 all items are on the new cycle, which is complete.

Every operation therefore stays O(log n) messages/rounds, and invariant
I9 (every stored key retrievable under any churn) is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.dht.hashing import hash_to_vertex
from repro.errors import DHTError
from repro.net.metrics import CostLedger
from repro.net.routing import route_cost
from repro.types import Layer, NodeId, Vertex

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dex import DexNetwork


@dataclass
class DHTStats:
    puts: int = 0
    gets: int = 0
    hits: int = 0
    migrated_items: int = 0
    total_messages: int = 0
    total_rounds: int = 0


@dataclass
class _Stores:
    primary: dict[Vertex, dict[str, Any]] = field(default_factory=dict)
    next: dict[Vertex, dict[str, Any]] = field(default_factory=dict)
    # keys awaiting migration, indexed by the old vertex that generates
    # their new home (phase-1 eager migration)
    pending_by_parent: dict[Vertex, list[str]] = field(default_factory=dict)


class DexDHT:
    """Insertion and lookup in O(log n) messages and rounds on DEX."""

    def __init__(self, dex: "DexNetwork"):
        self.dex = dex
        self.stats = DHTStats()
        self._stores = _Stores()
        self._indexed_for_op: object | None = None
        dex.attach_observer(self)

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, origin: NodeId | None = None) -> None:
        """Store ``(key, value)`` at the responsible vertex."""
        ledger = self._ledger()
        origin = origin if origin is not None else self.dex.random_node()
        layer, vertex = self._home_for(key)
        self._charge_route(origin, layer, vertex, ledger)
        store = self._store_of(layer)
        store.setdefault(vertex, {})[key] = value
        if layer is Layer.OLD and self.dex.staggered is not None:
            self._register_pending(key)
        self.stats.puts += 1
        self._absorb(ledger)

    def get(self, key: str, origin: NodeId | None = None) -> Any | None:
        """Retrieve the value for ``key`` (None if absent)."""
        ledger = self._ledger()
        origin = origin if origin is not None else self.dex.random_node()
        layer, vertex = self._home_for(key)
        self._charge_route(origin, layer, vertex, ledger)
        bucket = self._store_of(layer).get(vertex, {})
        self.stats.gets += 1
        if key in bucket:
            self.stats.hits += 1
            self._absorb(ledger)
            return bucket[key]
        # Transitional fallback (<= 2 routed queries, still O(log n)):
        # the item may not have migrated yet / may have migrated already.
        other = Layer.NEW if layer is Layer.OLD else Layer.OLD
        fallback = self._fallback_home(key, other)
        if fallback is not None:
            other_vertex, bucket2 = fallback
            self._charge_route(origin, other, other_vertex, ledger)
            if key in bucket2:
                self.stats.hits += 1
                self._absorb(ledger)
                return bucket2[key]
        self._absorb(ledger)
        return None

    def delete(self, key: str, origin: NodeId | None = None) -> bool:
        """Remove ``key``; returns True if it existed."""
        ledger = self._ledger()
        origin = origin if origin is not None else self.dex.random_node()
        removed = False
        for layer in (Layer.OLD, Layer.NEW):
            store = self._maybe_store(layer)
            if store is None:
                continue
            vertex = self._vertex_in(layer, key)
            if vertex is None:
                continue
            bucket = store.get(vertex)
            if bucket and key in bucket:
                self._charge_route(origin, layer, vertex, ledger)
                del bucket[key]
                removed = True
        self._absorb(ledger)
        return removed

    def responsible_node(self, key: str) -> NodeId:
        """The real node currently answering for ``key``."""
        layer, vertex = self._home_for(key)
        return self.dex.overlay.layer(layer).host_of(vertex)

    def item_count(self) -> int:
        return sum(len(b) for b in self._stores.primary.values()) + sum(
            len(b) for b in self._stores.next.values()
        )

    def keys(self) -> set[str]:
        out: set[str] = set()
        for store in (self._stores.primary, self._stores.next):
            for bucket in store.values():
                out.update(bucket)
        return out

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def _home_for(self, key: str) -> tuple[Layer, Vertex]:
        """Which (layer, vertex) currently owns ``key``."""
        op = self.dex.staggered
        if op is None:
            return Layer.OLD, hash_to_vertex(key, self.dex.p)
        new_home = hash_to_vertex(key, op.p_new)
        if op.phase == 2 or op.is_processed(op._parent(new_home)):
            return Layer.NEW, new_home
        return Layer.OLD, hash_to_vertex(key, op.p_old)

    def _vertex_in(self, layer: Layer, key: str) -> Vertex | None:
        if layer is Layer.OLD:
            return hash_to_vertex(key, self.dex.overlay.old.p)
        op = self.dex.staggered
        if op is None:
            return None
        return hash_to_vertex(key, op.p_new)

    def _fallback_home(
        self, key: str, layer: Layer
    ) -> tuple[Vertex, dict[str, Any]] | None:
        store = self._maybe_store(layer)
        if store is None:
            return None
        vertex = self._vertex_in(layer, key)
        if vertex is None:
            return None
        return vertex, store.get(vertex, {})

    def _store_of(self, layer: Layer) -> dict[Vertex, dict[str, Any]]:
        return self._stores.primary if layer is Layer.OLD else self._stores.next

    def _maybe_store(self, layer: Layer):
        if layer is Layer.NEW and self.dex.staggered is None:
            return None
        return self._store_of(layer)

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------
    def _ledger(self) -> CostLedger:
        return CostLedger()

    def _absorb(self, ledger: CostLedger) -> None:
        self.stats.total_messages += ledger.messages
        self.stats.total_rounds += ledger.rounds

    def _charge_route(
        self, origin: NodeId, layer: Layer, vertex: Vertex, ledger: CostLedger
    ) -> None:
        """Charge the O(log n) local-routing cost to reach ``vertex``.

        Routing always follows the cycle that is currently *complete*:
        the primary cycle in steady state and during phase 1, the new
        cycle during phase 2.  Targets living on the incomplete cycle are
        reached via their generating/generated counterpart plus one hop.
        """
        op = self.dex.staggered
        lm = self.dex.overlay.layer(layer)
        if lm.active_count == lm.p and lm.is_active(vertex):
            src = self._origin_vertex(origin, lm)
            if src is None:
                anchor = min(lm.host)  # one hop to a simulating neighbor
                ledger.charge_route(
                    1 + route_cost(lm.pcycle, lm.host_of, anchor, vertex)
                )
            else:
                ledger.charge_route(route_cost(lm.pcycle, lm.host_of, src, vertex))
            return
        if op is None:
            raise DHTError(f"vertex {vertex} unroutable outside a staggered op")
        if layer is Layer.NEW:
            # Phase 1: reach the new vertex via its generating old vertex.
            parent = op._parent(vertex)
            old = self.dex.overlay.old
            src = self._origin_vertex(origin, old)
            anchor = src if src is not None else min(old.host)
            extra = 1 if src is None else 0
            ledger.charge_route(
                extra + route_cost(old.pcycle, old.host_of, anchor, parent) + 1
            )
        else:
            # Phase 2: the old cycle is partially dismantled; reach the old
            # vertex's host via the new vertex it generated.
            image = op._parent_image(vertex)
            new = op.new
            src = self._origin_vertex(origin, new)
            anchor = src if src is not None else min(new.host)
            extra = 1 if src is None else 0
            ledger.charge_route(
                extra + route_cost(new.pcycle, new.host_of, anchor, image) + 1
            )

    @staticmethod
    def _origin_vertex(origin: NodeId, lm) -> Vertex | None:
        vertices = lm.vertices_of(origin)
        return min(vertices) if vertices else None

    # ------------------------------------------------------------------
    # DexNetwork observer hooks
    # ------------------------------------------------------------------
    def _register_pending(self, key: str) -> None:
        op = self.dex.staggered
        assert op is not None
        parent = op._parent(hash_to_vertex(key, op.p_new))
        self._stores.pending_by_parent.setdefault(parent, []).append(key)

    def on_chunk_processed(
        self, dex: "DexNetwork", vertices: list[Vertex], ledger: CostLedger
    ) -> None:
        """Phase-1 eager migration: items whose new home is generated by a
        vertex of this chunk move to the new cycle now."""
        op = dex.staggered
        if op is None:
            return
        if self._indexed_for_op is not op:
            self._index_all_pending(op)
            self._indexed_for_op = op
        for x in vertices:
            for key in self._stores.pending_by_parent.pop(x, ()):  # noqa: B909
                self._migrate_key(key, op, ledger)

    def _index_all_pending(self, op) -> None:
        for vertex, bucket in self._stores.primary.items():
            for key in bucket:
                parent = op._parent(hash_to_vertex(key, op.p_new))
                self._stores.pending_by_parent.setdefault(parent, []).append(key)

    def _migrate_key(self, key: str, op, ledger: CostLedger) -> None:
        old_vertex = hash_to_vertex(key, op.p_old)
        bucket = self._stores.primary.get(old_vertex)
        if not bucket or key not in bucket:
            return  # deleted, or stored new-style already
        value = bucket.pop(key)
        new_vertex = hash_to_vertex(key, op.p_new)
        self._stores.next.setdefault(new_vertex, {})[key] = value
        # One routed transfer along the (complete) old cycle.
        old = self.dex.overlay.old
        hops = route_cost(
            old.pcycle, old.host_of, old_vertex, op._parent(new_vertex)
        )
        ledger.charge_route(hops + 1)
        self.stats.migrated_items += 1

    def on_cycle_swapped(self, dex: "DexNetwork", ledger: CostLedger) -> None:
        """The staggered op completed (or a simplified type-2 replaced the
        cycle): re-address everything to the new primary cycle."""
        leftovers: list[tuple[str, Any]] = []
        for bucket in self._stores.primary.values():
            leftovers.extend(bucket.items())
        migrated = dict(self._stores.next)
        self._stores = _Stores()
        self._indexed_for_op = None
        p = dex.p
        for vertex, bucket in migrated.items():
            self._stores.primary.setdefault(vertex, {}).update(bucket)
        for key, value in leftovers:
            vertex = hash_to_vertex(key, p)
            self._stores.primary.setdefault(vertex, {})[key] = value
            ledger.charge_route(1)
            self.stats.migrated_items += 1
