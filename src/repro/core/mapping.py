"""Single-layer virtual mapping bookkeeping (Definitions 2-3).

A :class:`LayerMapping` tracks which real node simulates each *active*
vertex of one p-cycle, the per-node loads, and the derived sets

* ``Spare`` -- nodes with load >= 2 (Eq. 2), able to give a vertex away,
* ``Low``   -- nodes with load <= 2*zeta (Eq. 1), able to take one on.

Both sets are maintained incrementally so membership tests and size
queries are O(1) -- the *algorithm* learns these sizes only by flooding
(Algorithm 4.4) or coordinator counters (Algorithm 4.7), and the cost of
that learning is charged where it happens; the simulator state itself may
be queried freely (it is the ground truth the paper's proofs reason
about).

Edges are *not* handled here: :mod:`repro.core.overlay` synchronizes the
real multigraph whenever vertices activate, deactivate or move.
"""

from __future__ import annotations

import random
from itertools import compress, islice, repeat
from typing import Callable, Iterator

import numpy as np

from repro.errors import MappingError
from repro.types import NodeId, Vertex
from repro.virtual.pcycle import PCycle


class LayerMapping:
    """Host assignment for the active vertices of one p-cycle."""

    __slots__ = (
        "pcycle",
        "low_threshold",
        "host",
        "sim",
        "spare",
        "low",
        "on_counts_delta",
    )

    def __init__(self, pcycle: PCycle, low_threshold: int) -> None:
        self.pcycle = pcycle
        self.low_threshold = low_threshold
        self.host: dict[Vertex, NodeId] = {}
        self.sim: dict[NodeId, set[Vertex]] = {}
        #: nodes with load >= 2 (Spare, Eq. 2)
        self.spare: set[NodeId] = set()
        #: nodes with 1 <= load <= low_threshold (Low, Eq. 1)
        self.low: set[NodeId] = set()
        #: change-listener hook ``f(node, spare_delta, low_delta)`` fired
        #: on every Spare/Low membership transition; the overlay wires the
        #: primary layer's hook to the coordinator's exact-delta counters
        #: (Algorithm 4.7)
        self.on_counts_delta: Callable[[NodeId, int, int], None] | None = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        return self.pcycle.p

    def is_active(self, z: Vertex) -> bool:
        return z in self.host

    def host_of(self, z: Vertex) -> NodeId:
        try:
            return self.host[z]
        except KeyError:
            raise MappingError(f"vertex {z} is not active") from None

    def load(self, u: NodeId) -> int:
        vertices = self.sim.get(u)
        return len(vertices) if vertices else 0

    def vertices_of(self, u: NodeId) -> set[Vertex]:
        return set(self.sim.get(u, ()))

    def active_vertices(self) -> Iterator[Vertex]:
        return iter(self.host)

    @property
    def active_count(self) -> int:
        return len(self.host)

    def nodes_with_vertices(self) -> Iterator[NodeId]:
        return iter(self.sim)

    def in_spare(self, u: NodeId) -> bool:
        return u in self.spare

    def in_low(self, u: NodeId) -> bool:
        return u in self.low

    def spare_count(self) -> int:
        return len(self.spare)

    def low_count(self) -> int:
        return len(self.low)

    def pick_transferable(
        self, u: NodeId, rng: random.Random, avoid_zero: bool = True
    ) -> Vertex:
        """A vertex that ``u`` can give away.  Vertex 0 (the coordinator
        vertex, Algorithm 4.7) is kept at its host whenever possible to
        avoid needless coordinator migrations."""
        vertices = self.sim.get(u)
        if not vertices or len(vertices) < 2:
            raise MappingError(f"node {u} has no transferable vertex")
        candidates = sorted(vertices)
        if avoid_zero and len(candidates) > 1 and candidates[0] == 0:
            candidates = candidates[1:]
        return candidates[rng.randrange(len(candidates))]

    # ------------------------------------------------------------------
    # mutations (bookkeeping only; overlay drives the edges)
    # ------------------------------------------------------------------
    def _sets_after_change(self, u: NodeId) -> None:
        vertices = self.sim.get(u)
        load = len(vertices) if vertices else 0
        spare = self.spare
        low = self.low
        spare_delta = 0
        low_delta = 0
        if load >= 2:
            if u not in spare:
                spare.add(u)
                spare_delta = 1
        elif u in spare:
            spare.remove(u)
            spare_delta = -1
        if 1 <= load <= self.low_threshold:
            if u not in low:
                low.add(u)
                low_delta = 1
        elif u in low:
            low.remove(u)
            low_delta = -1
        if (spare_delta or low_delta) and self.on_counts_delta is not None:
            self.on_counts_delta(u, spare_delta, low_delta)

    def assign(self, z: Vertex, u: NodeId) -> None:
        self.pcycle.check_vertex(z)
        if z in self.host:
            raise MappingError(f"vertex {z} already active at {self.host[z]}")
        self.host[z] = u
        self.sim.setdefault(u, set()).add(z)
        self._sets_after_change(u)

    def assign_all(self, hosts: dict[Vertex, NodeId]) -> None:
        """Bulk load of an empty layer: the state ``assign(z, u)`` per
        item of ``hosts`` leaves, without the per-vertex calls.  The dict
        is *adopted* as :attr:`host` (not copied), ``sim`` holds its key
        and value objects, and Spare/Low are computed from the loads, so
        no ``on_counts_delta`` fires: listeners resnapshot afterwards."""
        if self.host:
            raise MappingError("bulk assignment needs an empty layer")
        if hosts and not 0 <= min(hosts) <= max(hosts) < self.p:
            raise MappingError(f"host assignment names a vertex outside Z_{self.p}")
        self.host = hosts
        # group the vertices by node with one stable argsort; indexing
        # object arrays hands back the dict's own key and value objects
        owners = np.fromiter(hosts.values(), object, len(hosts))
        ids = owners.astype(np.int64)
        order = np.argsort(ids, kind="stable")
        starts = np.flatnonzero(np.diff(ids[order], prepend=-1))
        loads = np.diff(starts, append=len(order))
        vertices = iter(np.fromiter(hosts, object, len(hosts))[order].tolist())
        nodes = owners[order[starts]].tolist()
        self.sim = dict(zip(nodes, map(set, map(islice, repeat(vertices), loads.tolist()))))
        self.spare.update(compress(nodes, (loads >= 2).tolist()))
        self.low.update(compress(nodes, (loads <= self.low_threshold).tolist()))

    def host_array(self) -> np.ndarray:
        """:attr:`host` as an int64 array over ``Z_p``, -1 where the
        vertex is inactive."""
        out = np.full(self.p, -1, dtype=np.int64)
        out[np.fromiter(self.host, np.int64, len(self.host))] = list(self.host.values())
        return out

    def unassign(self, z: Vertex) -> NodeId:
        u = self.host_of(z)
        del self.host[z]
        vertices = self.sim[u]
        vertices.discard(z)
        if not vertices:
            del self.sim[u]
        self._sets_after_change(u)
        return u

    def reassign_all(self, u: NodeId, new_host: NodeId) -> list[Vertex]:
        """Move *every* vertex hosted at ``u`` to ``new_host`` in one
        sweep (the batch engine's bulk adoption).  Returns the moved
        vertices in ascending order; Spare/Low transitions fire once per
        node instead of once per vertex."""
        if u == new_host:
            return []
        vertices = self.sim.pop(u, None)
        if not vertices:
            return []
        for z in vertices:
            self.host[z] = new_host
        self.sim.setdefault(new_host, set()).update(vertices)
        self._sets_after_change(u)
        self._sets_after_change(new_host)
        return sorted(vertices)

    def reassign(self, z: Vertex, new_host: NodeId) -> NodeId:
        """Move ``z``; returns the previous host."""
        old = self.host_of(z)
        if old == new_host:
            return old
        self.host[z] = new_host
        vertices = self.sim[old]
        vertices.discard(z)
        if not vertices:
            del self.sim[old]
        self.sim.setdefault(new_host, set()).add(z)
        self._sets_after_change(old)
        self._sets_after_change(new_host)
        return old

    # ------------------------------------------------------------------
    # consistency (used by the invariant checker)
    # ------------------------------------------------------------------
    def verify(self) -> None:
        for z, u in self.host.items():
            if z not in self.sim.get(u, ()):  # pragma: no cover - defensive
                raise MappingError(f"host/sim mismatch at vertex {z}")
        total = sum(len(vs) for vs in self.sim.values())
        if total != len(self.host):  # pragma: no cover - defensive
            raise MappingError("sim sets and host map disagree on size")
        if not self.spare <= set(self.sim) or not self.low <= set(self.sim):
            raise MappingError("spare/low contain nodes without vertices")
        for u, vertices in self.sim.items():
            if not vertices:  # pragma: no cover - defensive
                raise MappingError(f"node {u} has an empty sim set entry")
            load = len(vertices)
            if (u in self.spare) != (load >= 2):
                raise MappingError(f"spare set stale at node {u}")
            if (u in self.low) != (1 <= load <= self.low_threshold):
                raise MappingError(f"low set stale at node {u}")
