"""The global-knowledge strawman of Section 3.

A designated leader ``p`` tracks the entire topology.  Churn next to any
node costs O(1) messages to inform the leader, who instructs the O(1)
topology changes -- cheap, *until the adversary deletes the leader*: the
successor must receive the full Theta(n)-word topology state, which takes
Omega(n) messages/rounds in the CONGEST model.  DEX's coordinator keeps
only O(log n) bits (three counters), which is the whole point of
Algorithm 4.7.
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


class GlobalKnowledgeExpander:
    name = "global-knowledge"

    def __init__(self, n0: int, seed: int = 0):
        if n0 < 3:
            raise AdversaryError("need at least 3 initial nodes")
        self.members: set[NodeId] = set(range(n0))
        self.leader: NodeId = 0
        self._next_id = n0
        self._rebuild()

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
        n = len(self.members)
        self.p = initial_prime(n)
        self.pcycle = PCycle(self.p)
        order = sorted(self.members)
        self.host = {}
        bounds = [i * self.p // n for i in range(n)] + [self.p]
        for i, u in enumerate(order):
            for z in range(bounds[i], bounds[i + 1]):
                self.host[z] = u

    def insert(self, node_id: NodeId | None = None, attach_to: NodeId | None = None):
        u = node_id if node_id is not None else self.fresh_id()
        self._next_id = max(self._next_id, u + 1)
        if u in self.members:
            raise AdversaryError(f"node {u} already present")
        ledger = CostLedger()
        ledger.charge_route(int(np.ceil(np.log2(max(self.size, 2)))))  # tell leader
        self.members.add(u)
        self._rebuild()
        ledger.topology_changes += 8  # leader instructs a local splice
        return ledger

    def delete(self, node_id: NodeId):
        if node_id not in self.members:
            raise AdversaryError(f"node {node_id} not present")
        if self.size <= 3:
            raise AdversaryError("network too small to delete from")
        ledger = CostLedger()
        leader_killed = node_id == self.leader
        self.members.discard(node_id)
        if leader_killed:
            # Omega(n) state transfer to the successor (Section 3).
            self.leader = min(self.members)
            n = self.size
            ledger.charge_parallel(rounds=n, messages=3 * n)
        else:
            ledger.charge_route(int(np.ceil(np.log2(max(self.size, 2)))))
        self._rebuild()
        ledger.topology_changes += 8
        return ledger

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
        return 1
