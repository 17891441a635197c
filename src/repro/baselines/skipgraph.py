"""Skip-graph baseline [2, 15] (structural, cost-accounted).

Every node draws an infinite random membership vector; level ``i`` groups
nodes sharing the first ``i`` bits, and each group keeps a doubly-linked
ring sorted by id.  A node participates in levels until its group becomes
a singleton, so its degree is Theta(log n) -- the Table 1 rows for skip
graphs / SKIP+ (degree O(log n), join cost O(log^2 n) messages for the
search-per-level join of [2]; SKIP+ improves messages at the price of
O(log^4 n) and large LOCAL-model messages).

The union of the ring edges contains an expander w.h.p. [2]; benchmark T1
measures its realized gap and degree against DEX's constants.
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

_MAX_LEVELS = 64


class SkipGraphOverlay:
    name = "skip-graph"

    def __init__(self, n0: int, seed: int = 0):
        if n0 < 3:
            raise AdversaryError("skip graph needs at least 3 initial nodes")
        self.rng = random.Random(seed)
        self.membership: dict[NodeId, tuple[int, ...]] = {}
        self._next_id = 0
        for _ in range(n0):
            self._admit(self._next_id)
            self._next_id += 1

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.membership)

    def nodes(self) -> Iterable[NodeId]:
        return self.membership.keys()

    def fresh_id(self) -> NodeId:
        nid = self._next_id
        self._next_id += 1
        return nid

    def _admit(self, u: NodeId) -> None:
        self.membership[u] = tuple(
            self.rng.randrange(2) for _ in range(_MAX_LEVELS)
        )

    # ------------------------------------------------------------------
    def _levels(self) -> int:
        return max(2, math.ceil(math.log2(max(self.size, 2))) + 1)

    def _group(self, u: NodeId, level: int) -> tuple[int, ...]:
        return self.membership[u][:level]

    def _ring_neighbors(self, u: NodeId, level: int) -> list[NodeId]:
        prefix = self._group(u, level)
        members = sorted(
            v for v in self.membership if self._group(v, level) == prefix
        )
        if len(members) < 2:
            return []
        i = members.index(u)
        left = members[i - 1]
        right = members[(i + 1) % len(members)]
        return [left, right] if left != right else [left]

    # ------------------------------------------------------------------
    def insert(self, node_id: NodeId | None = None, attach_to: NodeId | None = None):
        u = node_id if node_id is not None else self.fresh_id()
        self._next_id = max(self._next_id, u + 1)
        if u in self.membership:
            raise AdversaryError(f"node {u} already present")
        ledger = CostLedger()
        self._admit(u)
        levels = self._levels()
        search = math.ceil(math.log2(max(self.size, 2)))
        # join: one search + ring splice per level (costs of [2])
        ledger.charge_parallel(rounds=levels + search, messages=levels * search)
        ledger.topology_changes += 3 * levels
        return ledger

    def delete(self, node_id: NodeId):
        if node_id not in self.membership:
            raise AdversaryError(f"node {node_id} not present")
        if self.size <= 3:
            raise AdversaryError("network too small to delete from")
        ledger = CostLedger()
        levels = self._levels()
        del self.membership[node_id]
        ledger.charge_parallel(rounds=2, messages=2 * levels)
        ledger.topology_changes += 3 * levels
        return ledger

    # ------------------------------------------------------------------
    def adjacency(self) -> sp.csr_matrix:
        order = sorted(self.membership)
        index = {u: i for i, u in enumerate(order)}
        levels = self._levels()
        pairs: set[tuple[int, int]] = set()
        for level in range(levels):
            groups: dict[tuple[int, ...], list[NodeId]] = {}
            for u in order:
                groups.setdefault(self._group(u, level), []).append(u)
            for members in groups.values():
                if len(members) < 2:
                    continue
                for i, u in enumerate(members):
                    v = members[(i + 1) % len(members)]
                    if u != v:
                        a, b = index[u], index[v]
                        pairs.add((min(a, b), max(a, b)))
        rows, cols = [], []
        for a, b in pairs:
            rows.extend((a, b))
            cols.extend((b, a))
        data = np.ones(len(rows))
        n = len(order)
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def max_degree(self) -> int:
        A = self.adjacency()
        return int(np.asarray((A > 0).sum(axis=1)).ravel().max())

    def degree_of(self, u: NodeId) -> int:
        total = 0
        for level in range(self._levels()):
            total += len(self._ring_neighbors(u, level))
        return total

    def load_of(self, u: NodeId) -> int:
        return 1
