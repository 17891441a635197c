"""The coordinator (Algorithm 4.7).

The node simulating vertex 0 of the current p-cycle keeps counters of the
network size and of ``|Spare|`` and ``|Low|``.  After every completed
type-1 recovery, the step's initiator routes a delta message to vertex 0
along a locally-computed shortest path in the virtual graph (O(log n)
messages and rounds); the coordinator's neighbors replicate its state
(O(1) messages per update, constant degree), so coordinator deletion
costs O(1) to recover from -- unlike the naive global-knowledge approach
of Section 3 which needs Omega(n).

The counters are *exact*: the deltas the initiator reports are the exact
local load changes of the step, so the replicated counters always equal
ground truth (invariant I8); the simulator therefore keeps them in sync
with the overlay and charges the messaging costs where the paper does.
"""

from __future__ import annotations

import math

from repro.core.config import DexConfig
from repro.core.overlay import Overlay
from repro.net.metrics import CostLedger
from repro.net.routing import route_cost
from repro.types import Layer, NodeId


class Coordinator:
    """Replicated Spare/Low/size counters at the host of vertex 0.

    The counters are maintained from *exact deltas* pushed by the overlay
    (Spare/Low membership transitions of the primary layer) and by the
    graph (node joins/leaves) -- O(1) bookkeeping per event instead of a
    per-step recomputation.  :meth:`sync` resnapshots from ground truth
    and runs only at construction and on primary-layer swaps, where the
    simplified type-2 teardown rebuilds the sets wholesale;
    :meth:`verify` remains the I8 oracle comparing the replicated
    counters against a from-scratch recount.
    """

    def __init__(self, overlay: Overlay, config: DexConfig) -> None:
        self.overlay = overlay
        self.config = config
        self.n = 0
        self.spare = 0
        self.low = 0
        overlay.add_listener(self)
        overlay.graph.node_listeners.append(self._on_node_delta)
        self.sync()

    def detach(self) -> None:
        """Unsubscribe from the overlay and graph (a coordinator holds a
        listener registration for the overlay's lifetime otherwise --
        call this before discarding one or rebuilding a network over the
        same overlay)."""
        self.overlay.remove_listener(self)
        try:
            self.overlay.graph.node_listeners.remove(self._on_node_delta)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # delta consumption (overlay / graph change-listener hooks)
    # ------------------------------------------------------------------
    def _on_node_delta(self, delta: int) -> None:
        self.n += delta

    def on_primary_counts(self, spare_delta: int, low_delta: int) -> None:
        self.spare += spare_delta
        self.low += low_delta

    def on_primary_replaced(self) -> None:
        self.sync()

    # ------------------------------------------------------------------
    @property
    def node(self) -> NodeId:
        """Host of vertex 0 in the currently *complete* layer (vertex 0
        is last in the staggered processing order, and the new layer's
        vertex 0 is created at the same host by cloud construction, so
        coordinatorship is continuous across type-2 recovery)."""
        lm = self.overlay.layer(self.routing_layer())
        return lm.host_of(0)

    def routing_layer(self) -> Layer:
        """The layer whose cycle is fully active and therefore routable:
        the old layer during phase 1, the new layer during phase 2."""
        if self.overlay.old.active_count == self.overlay.old.p:
            return Layer.OLD
        new = self.overlay.new
        if new is not None and new.active_count == new.p:
            return Layer.NEW
        return Layer.OLD  # pragma: no cover - defensive

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Resnapshot counters from ground truth (construction and
        primary-layer swaps only; steady-state updates arrive as deltas)."""
        self.n = self.overlay.graph.num_nodes
        self.spare = self.overlay.old.spare_count()
        self.low = self.overlay.old.low_count()

    def charge_update(self, from_node: NodeId, ledger: CostLedger) -> None:
        """Charge the cost of routing a delta from ``from_node`` to the
        coordinator plus the O(1) replication to its neighbors (the
        report carries the step's exact load changes, which the
        change-listener hooks have already applied to the counters --
        Algorithm 4.7 lines 5-6 and 11-12)."""
        layer = self.routing_layer()
        lm = self.overlay.layer(layer)
        vertices = lm.vertices_of(from_node)
        if vertices:
            src = min(vertices)
            # the routing layer is complete: every table entry is a host
            hops = route_cost(lm.pcycle, lm.host.__getitem__, src, 0)
        else:
            # The initiator holds no vertex of the routable layer (it can
            # happen for a node inserted mid-stagger); its neighbor does,
            # so charge one extra hop plus the neighbor's route.  We
            # approximate with the virtual diameter bound O(log p).
            hops = 1 + math.ceil(2 * math.log2(lm.p))
        ledger.charge_route(hops)
        # state replication at the coordinator's neighbors
        ledger.messages += self.overlay.graph.connection_count(self.node)
        ledger.coordinator_updates += 1

    # ------------------------------------------------------------------
    def wants_inflate(self) -> bool:
        """Early staggered trigger: ``|Spare| < 3 * theta * n``."""
        return self.spare < self.config.coordinator_threshold(self.n)

    def wants_deflate(self) -> bool:
        """Early staggered trigger: ``|Low| < 3 * theta * n``."""
        return self.low < self.config.coordinator_threshold(self.n)

    def verify(self) -> bool:
        """I8: counters equal ground truth."""
        return (
            self.n == self.overlay.graph.num_nodes
            and self.spare == self.overlay.old.spare_count()
            and self.low == self.overlay.old.low_count()
        )
