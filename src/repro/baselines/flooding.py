"""The flooding strawman of Section 3.

On every insertion or deletion, a neighbor floods a notification through
the whole network; every node then knows the full membership and locally
recomputes the canonical expander topology (we use the same p-cycle
contraction DEX uses, assigned canonically by sorted node rank).

This *does* guarantee expansion and constant degree -- at Theta(n)
messages per step and up to O(n) topology changes, which is precisely the
overhead Table 1's comparison motivates DEX against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.errors import AdversaryError
from repro.net.metrics import CostLedger
from repro.types import NodeId
from repro.virtual.pcycle import PCycle
from repro.virtual.primes import initial_prime


class FloodingExpander:
    name = "flooding"

    def __init__(self, n0: int, seed: int = 0):
        if n0 < 3:
            raise AdversaryError("need at least 3 initial nodes")
        self.members: set[NodeId] = set(range(n0))
        self._next_id = n0
        self._rebuild()

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.members)

    def nodes(self) -> Iterable[NodeId]:
        return iter(self.members)

    def fresh_id(self) -> NodeId:
        nid = self._next_id
        self._next_id += 1
        return nid

    def _rebuild(self) -> None:
        """Every node recomputes the canonical p-cycle contraction."""
        n = len(self.members)
        self.p = initial_prime(n)
        self.pcycle = PCycle(self.p)
        order = sorted(self.members)
        self.host = {}
        bounds = [i * self.p // n for i in range(n)] + [self.p]
        for i, u in enumerate(order):
            for z in range(bounds[i], bounds[i + 1]):
                self.host[z] = u

    # ------------------------------------------------------------------
    def insert(self, node_id: NodeId | None = None, attach_to: NodeId | None = None):
        u = node_id if node_id is not None else self.fresh_id()
        self._next_id = max(self._next_id, u + 1)
        if u in self.members:
            raise AdversaryError(f"node {u} already present")
        ledger = self._flood_cost()
        before = self._edge_set()
        self.members.add(u)
        self._rebuild()
        ledger.topology_changes += len(before ^ self._edge_set())
        return ledger

    def delete(self, node_id: NodeId):
        if node_id not in self.members:
            raise AdversaryError(f"node {node_id} not present")
        if self.size <= 3:
            raise AdversaryError("network too small to delete from")
        ledger = self._flood_cost()
        before = self._edge_set()
        self.members.discard(node_id)
        self._rebuild()
        ledger.topology_changes += len(before ^ self._edge_set())
        return ledger

    def _flood_cost(self) -> CostLedger:
        ledger = CostLedger()
        n = max(self.size, 2)
        # notification floods the whole (constant-degree) network
        ledger.charge_flood(
            rounds=2 * int(np.ceil(np.log2(n))), messages=3 * n
        )
        return ledger

    def _edge_set(self) -> set[tuple[NodeId, NodeId]]:
        edges = set()
        for a, b in self.pcycle.edges():
            ha, hb = self.host[a], self.host[b]
            if ha != hb:
                edges.add((min(ha, hb), max(ha, hb)))
        return edges

    # ------------------------------------------------------------------
    def adjacency(self) -> sp.csr_matrix:
        order = sorted(self.members)
        index = {u: i for i, u in enumerate(order)}
        n = len(order)
        rows, cols, data = [], [], []
        for a, b in self.pcycle.edges():
            ha, hb = index[self.host[a]], index[self.host[b]]
            if ha == hb:
                rows.append(ha)
                cols.append(ha)
                data.append(1.0 if a == b else 2.0)
            else:
                rows.extend((ha, hb))
                cols.extend((hb, ha))
                data.extend((1.0, 1.0))
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def max_degree(self) -> int:
        A = self.adjacency()
        return int(np.asarray(A.sum(axis=1)).ravel().max())

    def degree_of(self, u: NodeId) -> int:
        A = self.adjacency()
        order = sorted(self.members)
        return int(np.asarray(A.sum(axis=1)).ravel()[order.index(u)])

    def load_of(self, u: NodeId) -> int:
        return sum(1 for h in self.host.values() if h == u)
