"""Law-Siu baseline [18]: the overlay is the union of ``d`` Hamiltonian
cycles over the current node set.

* **Join**: for each cycle, a random walk of O(log n) hops picks a splice
  position; the new node is inserted between that node and its successor
  (``d`` walks, O(d log n) messages, O(d) topology changes).
* **Leave**: in each cycle the predecessor and successor reconnect
  (O(d) topology changes, O(d) messages).

The resulting graph is an expander only *with high probability*, and the
guarantee is against an *oblivious* adversary: an adaptive adversary who
sees the cycles can delete carefully (or just keep churning) until the
realized union is a poor expander -- benchmark E2 measures exactly this
degradation, which is the motivation for DEX (Section 1, Table 1 row 1).
"""

from __future__ import annotations

import math
import random
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.errors import AdversaryError
from repro.net.metrics import CostLedger
from repro.types import NodeId


class LawSiuNetwork:
    """Union of ``d`` Hamiltonian cycles with random-walk splicing."""

    name = "law-siu"

    def __init__(self, n0: int, d: int = 3, seed: int = 0):
        if n0 < 3:
            raise AdversaryError("Law-Siu needs at least 3 initial nodes")
        if d < 1:
            raise ValueError("need at least one Hamiltonian cycle")
        self.d = d
        self.rng = random.Random(seed)
        #: successor/predecessor maps per cycle
        self.succ: list[dict[NodeId, NodeId]] = []
        self.pred: list[dict[NodeId, NodeId]] = []
        self._next_id = n0
        nodes = list(range(n0))
        for _ in range(d):
            order = nodes[:]
            self.rng.shuffle(order)
            succ = {order[i]: order[(i + 1) % n0] for i in range(n0)}
            pred = {v: u for u, v in succ.items()}
            self.succ.append(succ)
            self.pred.append(pred)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.succ[0])

    def nodes(self) -> Iterable[NodeId]:
        return self.succ[0].keys()

    def fresh_id(self) -> NodeId:
        nid = self._next_id
        self._next_id += 1
        return nid

    # ------------------------------------------------------------------
    def insert(self, node_id: NodeId | None = None, attach_to: NodeId | None = None):
        u = node_id if node_id is not None else self.fresh_id()
        self._next_id = max(self._next_id, u + 1)
        if u in self.succ[0]:
            raise AdversaryError(f"node {u} already present")
        ledger = CostLedger()
        walk_len = max(2, math.ceil(2 * math.log2(max(self.size, 2))))
        # All d walks run before any splice so they never step onto the
        # partially-inserted node.
        positions: list[NodeId] = []
        for _ in range(self.d):
            at = attach_to if attach_to is not None else self._random_node()
            for _ in range(walk_len):
                at = self._random_neighbor(at)
            ledger.charge_walk(walk_len)
            positions.append(at)
        for (succ, pred), at in zip(zip(self.succ, self.pred), positions):
            nxt = succ[at]
            succ[at] = u
            pred[u] = at
            succ[u] = nxt
            pred[nxt] = u
            ledger.topology_changes += 3  # drop (at,nxt), add (at,u),(u,nxt)
        return ledger

    def delete(self, node_id: NodeId):
        if node_id not in self.succ[0]:
            raise AdversaryError(f"node {node_id} not present")
        if self.size <= 3:
            raise AdversaryError("network too small to delete from")
        ledger = CostLedger()
        for succ, pred in zip(self.succ, self.pred):
            before = pred.pop(node_id)
            after = succ.pop(node_id)
            succ[before] = after
            pred[after] = before
            ledger.messages += 2  # neighbors learn of the attack and patch
            ledger.rounds = max(ledger.rounds, 1)
            ledger.topology_changes += 3
        return ledger

    # ------------------------------------------------------------------
    def _random_node(self) -> NodeId:
        keys = sorted(self.succ[0])
        return keys[self.rng.randrange(len(keys))]

    def _random_neighbor(self, u: NodeId) -> NodeId:
        options = []
        for succ, pred in zip(self.succ, self.pred):
            options.append(succ[u])
            options.append(pred[u])
        options.sort()
        return options[self.rng.randrange(len(options))]

    # ------------------------------------------------------------------
    def adjacency(self) -> sp.csr_matrix:
        order = sorted(self.succ[0])
        index = {u: i for i, u in enumerate(order)}
        n = len(order)
        rows, cols = [], []
        for succ in self.succ:
            for u, v in succ.items():
                rows.append(index[u])
                cols.append(index[v])
                rows.append(index[v])
                cols.append(index[u])
        data = np.ones(len(rows))
        A = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        return A

    def max_degree(self) -> int:
        A = self.adjacency()
        return int(np.asarray(A.sum(axis=1)).ravel().max())

    def degree_of(self, u: NodeId) -> int:
        seen = set()
        for succ, pred in zip(self.succ, self.pred):
            seen.add(succ[u])
            seen.add(pred[u])
        return 2 * self.d  # multigraph degree

    def load_of(self, u: NodeId) -> int:  # parity with the DEX view
        return 1
