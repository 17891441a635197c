"""Flip-chain baseline (Cooper, Dyer, Handley [6]): maintain an (almost)
d-regular graph by local patching plus random edge *flips*.

A flip picks two disjoint edges (a, b), (c, d) and rewires them to
(a, d), (c, b) -- the Markov chain whose stationary distribution is
uniform over d-regular graphs (good expanders w.h.p.).  On churn:

* join: connect the new node to ``d`` random nodes (found by walks),
* leave: stitch the leaver's neighbors pairwise,
* then run ``flips_per_step`` flips to re-randomize.

Expansion is only probabilistic and the degree only *almost* regular;
this is the "randomizing P2P protocol" comparator of the related work.
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


class FlipChainOverlay:
    name = "flip-chain"

    def __init__(self, n0: int, d: int = 6, flips_per_step: int = 8, seed: int = 0):
        if n0 <= d:
            raise AdversaryError(f"need n0 > d (got n0={n0}, d={d})")
        self.d = d
        self.flips_per_step = flips_per_step
        self.rng = random.Random(seed)
        self.adj: dict[NodeId, set[NodeId]] = {u: set() for u in range(n0)}
        self._next_id = n0
        # initial ring + random chords for an almost-d-regular start
        nodes = list(range(n0))
        for i, u in enumerate(nodes):
            self._link(u, nodes[(i + 1) % n0])
        attempts = 0
        while attempts < 50 * n0 * d:
            attempts += 1
            u, v = self.rng.sample(nodes, 2)
            if len(self.adj[u]) < d and len(self.adj[v]) < d and v not in self.adj[u]:
                self._link(u, v)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.adj)

    def nodes(self) -> Iterable[NodeId]:
        return self.adj.keys()

    def fresh_id(self) -> NodeId:
        nid = self._next_id
        self._next_id += 1
        return nid

    def _link(self, u: NodeId, v: NodeId) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)

    def _unlink(self, u: NodeId, v: NodeId) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    # ------------------------------------------------------------------
    def insert(self, node_id: NodeId | None = None, attach_to: NodeId | None = None):
        u = node_id if node_id is not None else self.fresh_id()
        self._next_id = max(self._next_id, u + 1)
        if u in self.adj:
            raise AdversaryError(f"node {u} already present")
        ledger = CostLedger()
        self.adj[u] = set()
        walk_len = max(2, math.ceil(2 * math.log2(max(self.size, 2))))
        targets: set[NodeId] = set()
        nodes = sorted(set(self.adj) - {u})
        guard = 0
        while len(targets) < min(self.d, len(nodes)) and guard < 20 * self.d:
            guard += 1
            at = attach_to if attach_to is not None else nodes[self.rng.randrange(len(nodes))]
            for _ in range(walk_len):
                nbrs = sorted(self.adj[at]) or nodes
                at = nbrs[self.rng.randrange(len(nbrs))]
            ledger.charge_walk(walk_len)
            if at != u:
                targets.add(at)
        for t in targets:
            self._link(u, t)
            ledger.topology_changes += 1
        self._flip_mix(ledger)
        return ledger

    def delete(self, node_id: NodeId):
        if node_id not in self.adj:
            raise AdversaryError(f"node {node_id} not present")
        if self.size <= self.d + 2:
            raise AdversaryError("network too small to delete from")
        ledger = CostLedger()
        orphans = sorted(self.adj.pop(node_id))
        for v in orphans:
            self.adj[v].discard(node_id)
            ledger.topology_changes += 1
        # stitch orphans pairwise to preserve degree mass
        for a, b in zip(orphans[::2], orphans[1::2]):
            if a != b and b not in self.adj[a]:
                self._link(a, b)
                ledger.topology_changes += 1
                ledger.messages += 1
        ledger.rounds = max(ledger.rounds, 1)
        self._flip_mix(ledger)
        return ledger

    def _flip_mix(self, ledger: CostLedger) -> None:
        nodes = sorted(self.adj)
        for _ in range(self.flips_per_step):
            a, c = self.rng.sample(nodes, 2)
            if not self.adj[a] or not self.adj[c]:
                continue
            b = sorted(self.adj[a])[self.rng.randrange(len(self.adj[a]))]
            d = sorted(self.adj[c])[self.rng.randrange(len(self.adj[c]))]
            if len({a, b, c, d}) != 4:
                continue
            if d in self.adj[a] or b in self.adj[c]:
                continue
            self._unlink(a, b)
            self._unlink(c, d)
            self._link(a, d)
            self._link(c, b)
            ledger.topology_changes += 4
            ledger.messages += 4
            ledger.rounds = max(ledger.rounds, 2)

    # ------------------------------------------------------------------
    def adjacency(self) -> sp.csr_matrix:
        order = sorted(self.adj)
        index = {u: i for i, u in enumerate(order)}
        rows, cols = [], []
        for u, nbrs in self.adj.items():
            for v in nbrs:
                rows.append(index[u])
                cols.append(index[v])
        data = np.ones(len(rows))
        return sp.csr_matrix((data, (rows, cols)), shape=(len(order), len(order)))

    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self.adj.values())

    def degree_of(self, u: NodeId) -> int:
        return len(self.adj[u])

    def load_of(self, u: NodeId) -> int:
        return 1
