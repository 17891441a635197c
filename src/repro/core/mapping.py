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

Storage is flat: one fixed-size ``array('q')`` host table over ``Z_p``
(-1 marks an inactive vertex) and, per node with load >= 1, a compact
``array('i')`` of its vertices in no particular order -- about 32 bytes
per vertex.  Array passes read the host table zero-copy through
:meth:`LayerMapping.host_view`; the table is never resized, which keeps
such views valid.  The per-node arrays are resized, so no view of one
is ever kept.

Edges are *not* handled here: :mod:`repro.core.overlay` synchronizes the
real multigraph whenever vertices activate, deactivate or move.
"""

from __future__ import annotations

import random
from array import array
from itertools import chain, compress, repeat
from typing import Callable, Iterator

import numpy as np

from repro.errors import MappingError
from repro.types import NodeId, Vertex
from repro.virtual.pcycle import PCycle

#: node ids are stored in the int64 host table, with -1 for "inactive",
#: so every id must lie in ``[0, NODE_ID_LIMIT)``; the insert entry points
#: refuse any other id before they mutate anything
NODE_ID_LIMIT = 2**63


class LayerMapping:
    """Host assignment for the active vertices of one p-cycle."""

    __slots__ = (
        "pcycle",
        "low_threshold",
        "host",
        "sim",
        "active_count",
        "spare",
        "low",
        "on_counts_delta",
        "own",
    )

    def __init__(
        self,
        pcycle: PCycle,
        low_threshold: int,
        own: Callable[[NodeId], NodeId],
    ) -> None:
        self.pcycle = pcycle
        self.low_threshold = low_threshold
        #: host node of every vertex of ``Z_p``, -1 where inactive
        self.host: array[int] = array("q", [-1]) * pcycle.p
        #: the vertices of every node with load >= 1
        self.sim: dict[NodeId, array[int]] = {}
        self.active_count = 0
        #: nodes with load >= 2 (Spare, Eq. 2)
        self.spare: set[NodeId] = set()
        #: nodes with 1 <= load <= low_threshold (Low, Eq. 1)
        self.low: set[NodeId] = set()
        #: change-listener hook ``f(node, spare_delta, low_delta)`` fired
        #: on every Spare/Low membership transition; the overlay wires the
        #: primary layer's hook to the coordinator's exact-delta counters
        #: (Algorithm 4.7)
        self.on_counts_delta: Callable[[NodeId, int, int], None] | None = None
        #: the live nodes' own id objects, looked up by id
        #: (:meth:`DynamicMultigraph.own`): a node becomes a new ``sim``
        #: key or Spare/Low member as that object, not as an id just read
        #: from :attr:`host`
        self.own = own

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        return self.pcycle.p

    def host_view(self) -> np.ndarray:
        """:attr:`host` as a read-only int64 array, zero-copy."""
        view = np.frombuffer(self.host, dtype=np.int64)
        view.flags.writeable = False
        return view

    def is_active(self, z: Vertex) -> bool:
        try:
            return self.host[z] >= 0 and z >= 0
        except IndexError:
            return False

    def host_of(self, z: Vertex) -> NodeId:
        try:
            u = self.host[z]
        except IndexError:
            u = -1
        if u < 0 or z < 0:
            raise MappingError(f"vertex {z} is not active")
        return u

    def load(self, u: NodeId) -> int:
        vertices = self.sim.get(u)
        return len(vertices) if vertices else 0

    def vertices_of(self, u: NodeId) -> set[Vertex]:
        return set(self.sim.get(u, ()))

    def active_vertices(self) -> Iterator[Vertex]:
        """The active vertices, ascending."""
        return iter(np.flatnonzero(self.host_view() >= 0).tolist())

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
                spare.add(self.own(u))
                spare_delta = 1
        elif u in spare:
            spare.remove(u)
            spare_delta = -1
        if 1 <= load <= self.low_threshold:
            if u not in low:
                low.add(self.own(u))
                low_delta = 1
        elif u in low:
            low.remove(u)
            low_delta = -1
        if (spare_delta or low_delta) and self.on_counts_delta is not None:
            self.on_counts_delta(u, spare_delta, low_delta)

    def _add_vertex(self, z: Vertex, u: NodeId) -> None:
        """Put ``z`` in ``u``'s vertex array (host table untouched)."""
        vertices = self.sim.get(u)
        if vertices is None:
            self.sim[self.own(u)] = array("i", (z,))
        else:
            vertices.append(z)

    def _drop_vertex(self, z: Vertex, u: NodeId) -> None:
        """Take ``z`` out of ``u``'s vertex array (host table untouched)."""
        vertices = self.sim[u]
        if len(vertices) == 1:
            del self.sim[u]
        else:
            vertices.remove(z)

    def assign(self, z: Vertex, u: NodeId) -> None:
        self.pcycle.check_vertex(z)
        if self.host[z] >= 0:
            raise MappingError(f"vertex {z} already active at {self.host[z]}")
        self.host[z] = u
        self._add_vertex(z, u)
        self.active_count += 1
        self._sets_after_change(u)

    def assign_all(self, table: array[int]) -> None:
        """Bulk load of an empty layer: the state ``assign(z, table[z])``
        for every ``table[z] >= 0`` leaves, without the per-vertex calls.
        The table (an ``array('q')`` of length p) is *adopted* as
        :attr:`host`, not copied.  Spare/Low are computed from the loads,
        so no ``on_counts_delta`` fires: listeners resnapshot afterwards."""
        if self.active_count:
            raise MappingError("bulk assignment needs an empty layer")
        view = np.frombuffer(table, dtype=np.int64)
        if view.size != self.p or view.min() < -1:
            raise MappingError(f"host table does not map Z_{self.p}")
        active = np.flatnonzero(view >= 0)
        # group the vertices by node with one stable argsort
        order = np.argsort(view[active], kind="stable")
        ids = view[active[order]]
        starts = np.flatnonzero(np.diff(ids, prepend=-1))
        loads = np.diff(starts, append=order.size)
        keys = list(map(self.own, ids[starts].tolist()))
        # arrays from lists are allocated to size (from bytes they are not)
        grouped = active[order].tolist()
        rows = map(grouped.__getitem__, map(slice, starts.tolist(), (starts + loads).tolist()))
        self.host = table
        self.sim = dict(zip(keys, map(array, repeat("i"), rows)))
        self.active_count = int(order.size)
        self.spare.update(compress(keys, (loads >= 2).tolist()))
        self.low.update(compress(keys, (loads <= self.low_threshold).tolist()))

    def unassign(self, z: Vertex) -> NodeId:
        u = self.host_of(z)
        self.host[z] = -1
        self._drop_vertex(z, u)
        self.active_count -= 1
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
        host = self.host
        for z in vertices:
            host[z] = new_host
        target = self.sim.get(new_host)
        if target is None:
            self.sim[self.own(new_host)] = vertices
        else:
            target.extend(vertices)
        self._sets_after_change(u)
        self._sets_after_change(new_host)
        return sorted(vertices)

    def reassign(self, z: Vertex, new_host: NodeId) -> NodeId:
        """Move ``z``; returns the previous host."""
        old = self.host_of(z)
        if old == new_host:
            return old
        self.host[z] = new_host
        self._drop_vertex(z, old)
        self._add_vertex(z, new_host)
        self._sets_after_change(old)
        self._sets_after_change(new_host)
        return old

    # ------------------------------------------------------------------
    # consistency (used by the invariant checker)
    # ------------------------------------------------------------------
    def verify(self) -> None:
        view = self.host_view()
        active = np.flatnonzero(view >= 0)
        if active.size != self.active_count:
            raise MappingError("active vertex count stale")
        if not all(self.sim.values()):  # pragma: no cover - defensive
            raise MappingError("a node has an empty vertex array")
        loads = list(map(len, self.sim.values()))
        held = np.fromiter(chain.from_iterable(self.sim.values()), np.int64, sum(loads))
        owners = np.repeat(np.fromiter(self.sim, np.int64, len(self.sim)), loads)
        if not np.array_equal(np.sort(held), active) or (view[held] != owners).any():
            raise MappingError("host table and vertex arrays disagree")
        if not self.spare <= self.sim.keys() or not self.low <= self.sim.keys():
            raise MappingError("spare/low contain nodes without vertices")
        for u, load in zip(self.sim, loads):
            if (u in self.spare) != (load >= 2):
                raise MappingError(f"spare set stale at node {u}")
            if (u in self.low) != (1 <= load <= self.low_threshold):
                raise MappingError(f"low set stale at node {u}")
