"""The real network as a dynamic undirected multigraph.

Multiplicities matter: the real network is the image of the virtual
p-cycle under the balanced mapping, so two nodes may be connected by
several parallel virtual edges, and a node may carry *self-loop weight*
(virtual self-loops contribute 1; virtual edges with both endpoints at
the same node contribute 2, preserving ``degree(u) = 3 * Load(u)``).

A *topology change* is counted exactly when an actual connection appears
or disappears -- i.e. a pair multiplicity transitions 0 <-> positive -- or
a node joins/leaves; raising the multiplicity of an existing connection
is bookkeeping on an existing link, not a new connection.  Self-loops are
never connections.

Aggregates are maintained *incrementally* so the churn hot path never
scans the node set: a live-node array backs O(1) uniform sampling,
per-node degree counters and the edge-unit/connection totals are updated
in O(1) per mutation, and a per-node version stamp lazily invalidates the
cached neighbor CDFs that :mod:`repro.net.walks` samples from.
:meth:`DynamicMultigraph.verify_caches` recomputes everything from the
adjacency structure and is the oracle the invariant tests run under
churn.

Every vectorized consumer -- batch deletion's survivor-connectivity
check, the lockstep wave engine, the spectral sampler's CSR -- reads one
*array adjacency* (:class:`_RowStore`), kept current row by dirty row.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from itertools import accumulate, chain, islice, repeat
from typing import Callable, Collection, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.errors import TopologyError
from repro.types import NodeId

#: spare entries a row is given beyond its length when it is (re)placed
ROW_SLACK = 2

#: what :meth:`DynamicMultigraph._regrouped` hands a bulk pass
_Regrouped = tuple[list[NodeId], list[int], list[int], list[NodeId], list[int], int]


def _extended(arr: np.ndarray, size: int, fill: object = None) -> np.ndarray:
    """``arr`` in a longer array (the tail untouched without ``fill``)."""
    out = np.empty(size, dtype=arr.dtype)
    out[: arr.size] = arr
    if fill is not None:
        out[arr.size :] = fill
    return out


def _run_starts(arr: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in the non-empty ``arr``."""
    return np.flatnonzero(np.concatenate(([True], arr[1:] != arr[:-1])))


class _RowStore:
    """Array adjacency with rows at *stable slots*.

    A live node owns one slot (``slot_of``; a departed node's slot goes
    to ``free`` for a later joiner), and a slot owns one extent
    ``start/len/cap`` of the pooled ``nbr``/``cum`` arrays: the row's
    neighbour *slots* in ascending node-id order and the row-local
    cumulative multiplicities (``tot`` is the row total), i.e.
    :meth:`DynamicMultigraph.neighbor_cdf` in array form.

    :meth:`reslot` takes the nodes dirtied since the last call, moves
    slots from departed nodes to joiners and marks the live ones' rows
    *stale*; :meth:`refresh` rewrites stale rows before they are read --
    all of them for a traversal, the visited ones for a wave.  Both cost
    O(dirty), nothing proportional to the graph: ``reslot`` in Python,
    ``refresh`` in C-level passes over the rows' entries plus one
    ``slot_of`` lookup per key new to its row (or an id -> slot table,
    when the entries are at least as many as its cells).  A row that
    outgrows its extent is re-appended at the pool tail and the old
    extent becomes garbage; the pool is compacted once more than half of
    it is garbage, so storage stays O(nnz) however wide one row gets.
    Every multiplicity change dirties both endpoints, so a row that is
    not stale is current and references live slots only.

    Slot reuse is exact: a stale row's previous emission still lies in its
    extent (a slot that changes hands starts empty), and a slot ``s`` not
    ``dead`` is ``slot_of[ids[s]]``.  So a key equal to ``ids`` of a live
    slot of the old extent has that slot, however slots changed hands
    since: a freed slot is ``dead``, a slot taken over carries the new id.
    """

    __slots__ = (
        "adj", "slot_of", "free", "ids", "dead", "stale", "start", "len", "cap",
        "tot", "nbr", "cum", "tail", "garbage", "sync_rows", "sync_entries",
        "pool_compactions", "_csr",
    )  # fmt: skip

    def __init__(self, adj: dict[NodeId, Counter[NodeId]]) -> None:
        #: the graph's adjacency dicts, the rows' source of truth
        self.adj = adj
        self.slot_of: dict[NodeId, int] = {}
        self.free: list[int] = []
        #: per slot: node id, "holds no live node", "row must be emitted
        #: again before it is read", row extent, row total
        self.ids = np.empty(0, dtype=np.int64)
        self.dead = np.empty(0, dtype=bool)
        self.stale = np.empty(0, dtype=bool)
        self.start = np.empty(0, dtype=np.int64)
        self.len = np.empty(0, dtype=np.int64)
        self.cap = np.empty(0, dtype=np.int64)
        self.tot = np.empty(0, dtype=np.float64)
        #: the pool: ``[0, tail)`` is handed out, ``garbage`` of it unowned
        self.nbr = np.empty(0, dtype=np.int64)
        self.cum = np.empty(0, dtype=np.int32)
        self.tail = 0
        self.garbage = 0
        self.sync_rows = 0
        self.sync_entries = 0
        self.pool_compactions = 0
        #: assembled ``(order, csr)``, dropped when a row goes stale
        self._csr: tuple[list[NodeId], sp.csr_matrix] | None = None

    def span(self, slots: np.ndarray) -> np.ndarray:
        """Pool index of every entry of the rows at ``slots``, row by row."""
        lens = self.len[slots]
        ends = np.cumsum(lens)
        total = int(ends[-1]) if ends.size else 0
        return np.arange(total) + np.repeat(self.start[slots] - (ends - lens), lens)

    def reslot(self, dirty: Collection[NodeId]) -> None:
        """Slot bookkeeping for the ``dirty`` nodes, O(dirty): departed
        nodes give their slot up, joiners take one, and every live one's
        row is marked stale."""
        adj, slot_of = self.adj, self.slot_of
        live = [u for u in dirty if u in adj]
        gone = [slot_of.pop(u) for u in dirty if u not in adj and u in slot_of]
        if gone:
            self.dead[gone] = True
            self.stale[gone] = False
            self.garbage += int(self.cap[gone].sum())
            self.len[gone] = self.cap[gone] = 0
            self.free.extend(gone)
        fresh = [u for u in live if u not in slot_of]
        if fresh:
            short = len(fresh) - len(self.free)
            if short > 0:
                old = self.ids.size
                size = old + max(short, old, 16)
                self.free.extend(range(size - 1, old - 1, -1))
                self.dead = _extended(self.dead, size, True)
                for name in ("ids", "stale", "start", "len", "cap", "tot"):
                    setattr(self, name, _extended(getattr(self, name), size, 0))
            taken = self.free[-len(fresh) :]
            del self.free[-len(fresh) :]
            slot_of.update(zip(fresh, taken))
            self.ids[taken] = fresh
            self.dead[taken] = False
        self.stale[[slot_of[u] for u in live]] = True
        self._csr = None

    def refresh(self, reading: np.ndarray | None = None) -> None:
        """Re-emit the stale rows among the slots ``reading`` (default:
        all of them) from the adjacency dicts."""
        if reading is None:
            slots = np.flatnonzero(self.stale)
        else:
            slots = np.unique(reading[self.stale[reading]])
        if not slots.size:
            return
        self.stale[slots] = False
        # The rows flattened as stored, each put in ascending id order by
        # one argsort on the combined key (row, id - lo); then ids to slots.
        rows = list(map(self.adj.__getitem__, self.ids[slots].tolist()))
        lens = np.fromiter(map(len, rows), np.int64, slots.size)
        ends = np.cumsum(lens)
        keys = np.fromiter(chain.from_iterable(rows), np.int64, int(ends[-1]))
        mults = np.fromiter(chain.from_iterable(map(dict.values, rows)), np.int64, keys.size)
        row = np.repeat(np.arange(slots.size), lens)
        lo, width = (int(keys.min()), int(np.ptp(keys)) + 1) if keys.size else (0, 1)
        table = keys.size >= max(width, self.ids.size)  # an entry per id -> slot table cell
        nbr = np.full(keys.size, -1, dtype=np.int64)
        if slots.size * width < 1 << 62:
            pair = row * width + keys - lo
            order = np.argsort(pair, kind="stable")
            if not table:  # what the rows' previous emission knows
                nbr = self._known_slots(slots, pair[order], lo, width)
        else:  # ids too far apart for an int64 combined key: no reuse
            order = np.lexsort((keys, row))
        keys = keys[order]
        if table:  # a first emission, a rebuilt cycle, a big flush: one gather
            cells = np.full(width, -1, dtype=np.int64)  # id - lo -> slot
            live = np.flatnonzero(~self.dead & (self.ids >= lo) & (self.ids - lo < width))
            cells[self.ids[live] - lo] = live
            nbr = cells[keys - lo]
        miss = np.flatnonzero(nbr < 0)
        nbr[miss] = list(map(self.slot_of.__getitem__, keys[miss].tolist()))
        run = np.concatenate(([0], np.cumsum(mults[order])))
        cum = (run[1:] - np.repeat(run[ends - lens], lens)).astype(np.int32)
        # Placement, O(entries): in place where the row still fits
        # (giving back an extent it no longer half fills), else at the
        # tail with the old extent written off.
        cap = self.cap[slots]
        slim = cap > 2 * lens + 4 * ROW_SLACK
        if slim.any():
            self.garbage += int((cap[slim] - lens[slim] - ROW_SLACK).sum())
            self.cap[slots[slim]] = lens[slim] + ROW_SLACK
        grown = lens > cap
        if grown.any():
            moved, room = slots[grown], lens[grown] + ROW_SLACK
            self.garbage += int(cap[grown].sum())
            need = self.tail + int(room.sum())
            if need > self.nbr.size:
                self.nbr = _extended(self.nbr, max(need, 2 * self.nbr.size))
                self.cum = _extended(self.cum, self.nbr.size)
            self.start[moved] = self.tail + np.cumsum(room) - room
            self.cap[moved] = room
            self.tail = need
        self.len[slots] = lens
        dest = self.span(slots)
        self.nbr[dest] = nbr
        self.cum[dest] = cum
        self.tot[slots] = run[ends] - run[ends - lens]
        self.sync_rows += slots.size
        self.sync_entries += nbr.size
        if 2 * self.garbage > self.tail:
            self._compact()

    def _known_slots(self, slots: np.ndarray, pair: np.ndarray, lo: int, width: int) -> np.ndarray:
        """Per entry (``pair`` = row * ``width`` + id - ``lo``, ascending) its slot
        in the row's previous emission, by the class docstring's rule; else -1."""
        was = self.nbr[self.span(slots)]
        ids = self.ids[was]
        live = ~self.dead[was] & (ids >= lo) & (ids - lo < width)
        known = (np.repeat(np.arange(slots.size) * width, self.len[slots]) + ids - lo)[live]
        by = np.argsort(known, kind="stable")
        known = np.append(known[by], 1 << 62)  # a sentinel past every pair
        at = np.searchsorted(known, pair)
        return np.where(known[at] == pair, np.append(was[live][by], -1)[at], -1)

    def _compact(self) -> None:
        """Repack the live rows back to back (each with its slack), in
        place: O(nnz), paid once per ~nnz/2 entries of garbage."""
        live = np.flatnonzero(~self.dead)
        src = self.span(live)
        nbr, cum = self.nbr[src], self.cum[src]
        room = self.len[live] + ROW_SLACK
        self.start[live] = np.cumsum(room) - room
        self.cap[live] = room
        self.tail = int(room.sum())
        if self.tail > self.nbr.size:  # slack for rows that had none (empty, or grown into it)
            self.nbr, self.cum = _extended(self.nbr, self.tail), _extended(self.cum, self.tail)
        dest = self.span(live)
        self.nbr[dest] = nbr
        self.cum[dest] = cum
        self.garbage = 0
        self.pool_compactions += 1

    def blocked(self, victims: Iterable[NodeId]) -> tuple[np.ndarray, int]:
        """Visited-mask seed for a survivor traversal (dead slots and the
        live ``victims`` pre-marked) and the number of survivors."""
        mask = self.dead.copy()
        hit = [self.slot_of[u] for u in victims if u in self.slot_of]
        mask[hit] = True
        return mask, len(self.slot_of) - len(hit)

    def levels(self, visited: np.ndarray, start: int, want: int) -> list[np.ndarray]:
        """Level by level, the slots a frontier BFS from slot ``start``
        reaches (marking them ``visited``), stopping once ``want`` slots
        are in hand.  Sort-free: a level scatters ``True`` over every
        neighbour of the frontier and the next frontier is whatever the
        mask gained, so duplicates never need a ``unique``."""
        frontier = np.asarray([start])
        visited[frontier] = True
        seen = visited.copy()
        levels = [frontier]
        got = 1
        while got < want:
            visited[self.nbr[self.span(frontier)]] = True
            frontier = np.flatnonzero(visited != seen)
            if not frontier.size:
                break
            seen[frontier] = True
            levels.append(frontier)
            got += frontier.size
        return levels

    def reach(self, visited: np.ndarray, want: int) -> np.ndarray:
        """Slots :meth:`levels` reaches from the first slot not yet
        ``visited``."""
        return np.concatenate(self.levels(visited, int(np.argmin(visited)), want))

    def csr(self) -> tuple[list[NodeId], sp.csr_matrix]:
        """The id-sorted scipy CSR of the (fresh) rows, memoized until a
        row goes stale."""
        if self._csr is None:
            live = np.flatnonzero(~self.dead)
            live = live[np.argsort(self.ids[live])]
            rank = np.empty(self.ids.size, dtype=np.int64)
            rank[live] = np.arange(live.size)
            entries = self.span(live)
            indptr = np.zeros(live.size + 1, dtype=np.int64)
            np.cumsum(self.len[live], out=indptr[1:])
            cum = self.cum[entries].astype(np.float64)
            first = indptr[:-1][self.len[live] > 0]
            data = np.diff(cum, prepend=0.0)
            data[first] = cum[first]
            n = live.size
            A = sp.csr_matrix((data, rank[self.nbr[entries]], indptr), shape=(n, n))
            self._csr = (self.ids[live].tolist(), A)
        return self._csr


class DynamicMultigraph:
    """Undirected multigraph with weighted self-loops, change counting,
    and O(1) cached aggregates (degrees, edge units, node sampling)."""

    __slots__ = (
        "_adj",
        "topology_changes",
        "_nodes",
        "_node_pos",
        "_degree",
        "_edge_units",
        "_connections",
        "_version",
        "_stamp",
        "_cdf_cache",
        "_rows",
        "_dirty",
        "node_listeners",
    )

    def __init__(self) -> None:
        self._adj: dict[NodeId, Counter[NodeId]] = {}
        #: cumulative count of connection creations/destructions + node events
        self.topology_changes: int = 0
        #: live nodes in insertion order with swap-remove deletion -- the
        #: backing array for O(1) uniform sampling
        self._nodes: list[NodeId] = []
        self._node_pos: dict[NodeId, int] = {}
        self._degree: dict[NodeId, int] = {}
        self._edge_units: int = 0
        self._connections: int = 0
        #: per-node version stamps; bumped whenever a node's incident
        #: multiplicities change, invalidating its cached neighbor CDF
        self._version: dict[NodeId, int] = {}
        #: monotone version counter (plain int: bumped on the mutation
        #: hot path, so no iterator indirection)
        self._stamp: int = 0
        self._cdf_cache: dict[NodeId, tuple[int, list[NodeId], list[int], int]] = {}
        #: the array adjacency (``None`` until first needed), and the
        #: nodes -- joined and departed ones included -- whose incident
        #: rows changed since it last took stock (:meth:`_array_adjacency`)
        self._rows: _RowStore | None = None
        self._dirty: set[NodeId] = set()
        #: callbacks ``f(delta)`` fired on node join (+1) / leave (-1);
        #: the coordinator's size counter consumes these deltas
        self.node_listeners: list[Callable[[int], None]] = []

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def add_node(self, u: NodeId) -> None:
        if u in self._adj:
            raise TopologyError(f"node {u} already exists")
        self._adj[u] = Counter()
        self._node_pos[u] = len(self._nodes)
        self._nodes.append(u)
        self._degree[u] = 0
        self._stamp += 1
        self._version[u] = self._stamp
        self._dirty.add(u)
        self.topology_changes += 1
        for listener in self.node_listeners:
            listener(+1)

    def add_nodes(self, us: Iterable[NodeId]) -> None:
        """``add_node(u)`` per id, in order, in one pass: the same state,
        listener calls and error (raised by the scalar calls themselves)."""
        fresh = list(us)
        if len(set(fresh)) < len(fresh) or not self._adj.keys().isdisjoint(fresh):
            for u in fresh:
                self.add_node(u)
            return
        n, at, stamp = len(fresh), len(self._nodes), self._stamp
        # empty rows: Counter's Python-level __init__ has nothing to add
        self._adj.update(zip(fresh, map(Counter.__new__, repeat(Counter, n))))
        self._node_pos.update(zip(fresh, range(at, at + n)))
        self._nodes.extend(fresh)
        self._degree.update(dict.fromkeys(fresh, 0))
        self._version.update(zip(fresh, range(stamp + 1, stamp + n + 1)))
        self._stamp += n
        self._dirty.update(fresh)
        self.topology_changes += n
        for listener in self.node_listeners * n:  # per node, as add_node calls
            listener(+1)

    def remove_node(self, u: NodeId) -> None:
        """Remove ``u``; requires all its edges to have been removed first
        (the healing logic moves the virtual vertices away, which clears
        the derived edges)."""
        nbrs = self._require(u)
        if any(m > 0 for m in nbrs.values()):
            raise TopologyError(f"node {u} still has incident edges: {dict(nbrs)}")
        del self._adj[u]
        self._forget_node(u)
        self.topology_changes += 1
        for listener in self.node_listeners:
            listener(-1)

    def drop_node_with_edges(self, u: NodeId) -> Counter[NodeId]:
        """Adversarial deletion: remove ``u`` along with all incident
        edges, returning the neighbor multiplicities that were lost (the
        neighbors are aware of the attack, Section 2)."""
        nbrs = Counter(self._require(u))
        for v, mult in nbrs.items():
            if v == u:
                self._edge_units -= mult
                continue
            del self._adj[v][u]
            self._degree[v] -= mult
            self._edge_units -= mult
            self._connections -= 1
            self._touch(v)
            self.topology_changes += 1  # the (u, v) connection is destroyed
        del self._adj[u]
        self._forget_node(u)
        self.topology_changes += 1
        for listener in self.node_listeners:
            listener(-1)
        return nbrs

    def _forget_node(self, u: NodeId) -> None:
        """Drop ``u`` from every cached aggregate (swap-remove from the
        sampling array keeps deletion O(1))."""
        pos = self._node_pos.pop(u)
        last = self._nodes.pop()
        if last != u:
            self._nodes[pos] = last
            self._node_pos[last] = pos
        del self._degree[u]
        del self._version[u]
        self._cdf_cache.pop(u, None)
        self._dirty.add(u)

    def has_node(self, u: NodeId) -> bool:
        return u in self._adj

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    def random_node(self, rng: random.Random) -> NodeId:
        """Uniform O(1) sample from the live-node array.  Deterministic
        for a fixed seed and operation history (the array order is a pure
        function of the join/leave sequence)."""
        if not self._nodes:
            raise TopologyError("cannot sample from an empty graph")
        return self._nodes[rng.randrange(len(self._nodes))]

    def _require(self, u: NodeId) -> Counter[NodeId]:
        try:
            return self._adj[u]
        except KeyError:
            raise TopologyError(f"node {u} does not exist") from None

    def _touch(self, u: NodeId) -> None:
        self._stamp += 1
        self._version[u] = self._stamp
        self._dirty.add(u)

    def own(self, u: NodeId) -> NodeId:
        """The graph's own id object for node ``u`` (``u`` itself if it
        is not live).  An id read from an int array is a new object, and
        a row key stored from one would cost 28 bytes of its own, so every
        new key is stored as this object."""
        pos = self._node_pos.get(u)
        return u if pos is None else self._nodes[pos]

    def node_version(self, u: NodeId) -> int:
        """Monotone stamp of ``u``'s incident edge state (cache keys)."""
        self._require(u)
        return self._version[u]

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(self, u: NodeId, v: NodeId, mult: int = 1) -> None:
        """Add ``mult`` units of multiplicity.  For self-loops the caller
        chooses the degree contribution (1 for virtual self-loops, 2 for
        contracted pairs)."""
        if mult <= 0:
            raise TopologyError(f"multiplicity must be positive, got {mult}")
        au = self._require(u)
        av = self._require(v)
        self._edge_units += mult
        if u == v:
            au[u if u in au else self.own(u)] += mult
            self._degree[u] += mult
            self._touch(u)
            return  # self-loops are not connections
        if au[v] == 0:
            self.topology_changes += 1
            self._connections += 1
            u, v = self.own(u), self.own(v)  # new keys on both rows
        au[v] += mult
        av[u] += mult
        self._degree[u] += mult
        self._degree[v] += mult
        self._touch(u)
        self._touch(v)

    def remove_edge(self, u: NodeId, v: NodeId, mult: int = 1) -> None:
        if mult <= 0:
            raise TopologyError(f"multiplicity must be positive, got {mult}")
        au = self._require(u)
        av = self._require(v)
        if au[v] < mult:
            raise TopologyError(f"edge ({u}, {v}) has multiplicity {au[v]} < {mult}")
        self._edge_units -= mult
        if u == v:
            au[u] -= mult
            if au[u] == 0:
                del au[u]
            self._degree[u] -= mult
            self._touch(u)
            return
        au[v] -= mult
        av[u] -= mult
        self._degree[u] -= mult
        self._degree[v] -= mult
        self._touch(u)
        self._touch(v)
        if au[v] == 0:
            del au[v]
            del av[u]
            self.topology_changes += 1
            self._connections -= 1

    # ------------------------------------------------------------------
    # bulk edges (whole-overlay builds: bootstrap, simplified type-2)
    # ------------------------------------------------------------------
    def add_edges(self, us: np.ndarray, vs: np.ndarray, mults: np.ndarray) -> None:
        """``add_edge(u, v, m)`` per triple, in order, as array passes
        that regroup the call once and write each row it touches once.
        By contract the outcome is the scalar sequence's: the same rows
        -- a new key joins its row where the sequence first touches it
        (the call for ``(u, v)`` writes row ``u``, then row ``v``), a key
        already there keeps its place -- holding the graph's own id
        objects, the same aggregates and ``topology_changes``, and the
        same error, raised by the scalar calls themselves."""
        self._in_bulk(self.add_edge, self._add_rows, us, vs, mults)

    def remove_edges(self, us: np.ndarray, vs: np.ndarray, mults: np.ndarray) -> None:
        """``remove_edge(u, v, m)`` per triple, in order, as array
        passes; the contract of :meth:`add_edges` (a key whose
        multiplicity is not used up keeps its place)."""
        self._in_bulk(self.remove_edge, self._remove_rows, us, vs, mults)

    def _in_bulk(
        self, one: Callable[..., None], rows: Callable[[_Regrouped], bool], *triples: np.ndarray
    ) -> None:
        arrays = [np.asarray(column, dtype=np.int64) for column in triples]
        if not arrays[0].size:
            return
        regrouped = self._regrouped(*arrays)
        if regrouped is None or not rows(regrouped):
            # a triple the scalar call rejects: it raises, in place
            for triple in zip(*map(np.ndarray.tolist, arrays)):
                one(*triple)
            return
        self._stamp += 1  # one touch per rewritten row
        self._version.update(dict.fromkeys(regrouped[0], self._stamp))
        self._dirty.update(regrouped[0])

    def _regrouped(self, us: np.ndarray, vs: np.ndarray, mults: np.ndarray) -> _Regrouped | None:
        """The adjacency writes of the scalar calls for these triples,
        regrouped by row: the rows touched (the graph's own id objects),
        per row its number of entries and their multiplicity sum, every
        row's entries back to back as key objects and multiplicities --
        a row's keys in the order the sequence first touches them -- and
        the edge units in all.  ``None`` when a triple names an unknown
        node or a multiplicity that is not positive."""
        if mults.min() <= 0:
            return None
        ids, index = np.unique(np.concatenate((us, vs)), return_inverse=True)
        try:
            at = map(self._node_pos.__getitem__, ids.tolist())
            own = np.fromiter(map(self._nodes.__getitem__, at), object, ids.size)
        except KeyError:
            return None
        # write 2i is row u / key v, write 2i + 1 is row v / key u (a
        # self-loop makes the first only)
        ends = index.reshape(2, -1)
        keep = np.stack((np.ones(us.size, dtype=bool), us != vs), axis=1).ravel()
        row, key = ends.T.ravel()[keep], ends[::-1].T.ravel()[keep]
        pair = row * ids.size + key
        order = np.argsort(pair, kind="stable")
        heads = _run_starts(pair[order])
        total = np.add.reduceat(np.repeat(mults, 2)[keep][order], heads)
        first = order[heads]
        row, key = row[first], key[first]
        starts = _run_starts(row)
        by_touch = np.argsort(row * pair.size + first, kind="stable")  # near-sorted: timsort
        keys = own[key[by_touch]].tolist()  # indexing objects: no new ints
        counts = np.diff(np.append(starts, row.size)).tolist()
        sums = np.add.reduceat(total, starts).tolist()
        return own.tolist(), counts, sums, keys, total[by_touch].tolist(), int(mults.sum())

    def _add_rows(self, regrouped: _Regrouped) -> bool:
        rows, counts, sums, keys, vals, units = regrouped
        fill, loops, degree = dict.update, dict.__contains__, self._degree
        aus = list(map(self._adj.__getitem__, rows))
        was = sum(map(len, aus)) - sum(map(loops, aus, rows))
        at = 0
        for au, count in zip(aus, counts):
            ks, ms = keys[at : at + count], vals[at : at + count]
            at += count
            if au and not au.keys().isdisjoint(ks):  # a key there keeps its place
                ms = [au.get(k, 0) + m for k, m in zip(ks, ms)]
            fill(au, zip(ks, ms))
        born = sum(map(len, aus)) - sum(map(loops, aus, rows)) - was
        degree.update(zip(rows, map(int.__add__, map(degree.__getitem__, rows), sums)))
        self._edge_units += units
        self._connections += born // 2
        self.topology_changes += born // 2
        return True

    def _remove_rows(self, regrouped: _Regrouped) -> bool:
        rows, counts, sums, keys, vals, units = regrouped
        same, drop, degree = dict.__eq__, dict.__delitem__, self._degree
        entries = zip(keys, vals)
        plan = []
        for u, count in zip(rows, counts):
            au, gone = self._adj[u], dict(islice(entries, count))
            whole = same(au, gone)  # exactly the row: it can be cleared
            if not whole and any(au.get(k, 0) < m for k, m in gone.items()):
                return False
            plan.append((au, gone, whole))
        died = 0
        for u, loss, (au, gone, whole) in zip(rows, sums, plan):
            was = len(au) - (u in au)
            if whole:
                au.clear()
            else:
                for k, m in gone.items():
                    if au[k] == m:
                        drop(au, k)
                    else:
                        au[k] -= m
            died += was - len(au) + (u in au)
            degree[u] -= loss
        self._edge_units -= units
        self._connections -= died // 2
        self.topology_changes += died // 2
        return True

    def move_loop_unit(self, old: NodeId, new: NodeId) -> None:
        """Transfer one unit of self-loop weight from ``old`` to ``new``
        (a virtual self-loop following its host): the combined
        remove+add of the healing hot path in one pass over the cached
        aggregates.  Self-loops are never connections, so only degrees
        and version stamps change."""
        adj = self._adj
        ao = adj[old]
        ao[old] -= 1
        if ao[old] == 0:
            dict.__delitem__(ao, old)
        an = adj[new]
        loops = an.get(new)
        if loops is None:
            an[self.own(new)] = 1
        else:
            an[new] = loops + 1
        deg = self._degree
        deg[old] -= 1
        deg[new] += 1
        version = self._version
        dirty = self._dirty
        self._stamp += 1
        version[old] = self._stamp
        dirty.add(old)
        self._stamp += 1
        version[new] = self._stamp
        dirty.add(new)

    def move_pair_endpoint(self, old: NodeId, new: NodeId, other: NodeId) -> None:
        """Transfer one virtual-edge endpoint from ``old`` to ``new``
        where ``other`` hosts the far endpoint, preserving the overlay's
        contraction conventions (an edge whose endpoints coincide is
        self-loop weight 2).  Equivalent to the remove+add pair the
        general path performs, in one combined update of the adjacency
        counters and cached aggregates."""
        adj = self._adj
        deg = self._degree
        dict_del = dict.__delitem__  # skip Counter's python-level override
        touched_other = False
        if old == other:
            ao = adj[old]
            ao[old] -= 2
            if ao[old] == 0:
                dict_del(ao, old)
            deg[old] -= 2
            self._edge_units -= 2
        else:
            ao = adj[old]
            at = adj[other]
            m = ao[other] - 1
            if m == 0:
                dict_del(ao, other)
                dict_del(at, old)
                self._connections -= 1
                self.topology_changes += 1
            else:
                ao[other] = m
                at[old] = m
            deg[old] -= 1
            deg[other] -= 1
            self._edge_units -= 1
            touched_other = True
        if new == other:
            an = adj[new]
            loops = an.get(new)
            if loops is None:
                an[self.own(new)] = 2
            else:
                an[new] = loops + 2
            deg[new] += 2
            self._edge_units += 2
        else:
            an = adj[new]
            at = adj[other]
            prior = an.get(other, 0)
            if prior == 0:
                self._connections += 1
                self.topology_changes += 1
                nodes, pos = self._nodes, self._node_pos  # self.own, inline
                an[nodes[pos[other]]] = 1
                at[nodes[pos[new]]] = 1
            else:
                an[other] = prior + 1
                at[new] = at.get(new, 0) + 1
            deg[new] += 1
            deg[other] += 1
            self._edge_units += 1
            touched_other = True
        stamp = self._stamp
        version = self._version
        dirty = self._dirty
        stamp += 1
        version[old] = stamp
        dirty.add(old)
        stamp += 1
        version[new] = stamp
        dirty.add(new)
        if touched_other:
            stamp += 1
            version[other] = stamp
            dirty.add(other)
        self._stamp = stamp

    def contract_into(self, u: NodeId, v: NodeId) -> None:
        """Re-attach every edge of ``u`` to ``v`` and remove ``u`` -- the
        degree-preserving contraction the batch engine uses when ``v``
        adopts a deleted node's entire vertex set in one step.

        Conventions follow the overlay's pair mapping: a former ``u``--``v``
        edge of multiplicity ``m`` becomes ``2m`` units of self-loop
        weight at ``v`` (both endpoints now coincide), self-loops move
        unchanged, and other incident edges keep their multiplicity.
        Equivalent to moving the vertices one at a time, in O(connections
        of u) counter updates instead of O(load * 6) edge operations.
        """
        if u == v:
            raise TopologyError("cannot contract a node into itself")
        nbrs = self._require(u)
        av = self._require(v)
        v = self.own(v)
        # v keeps every endpoint u had, so its degree grows by exactly
        # degree(u): the collapsed u--v pair (m units) re-appears as 2m
        # units of self-loop weight, of which m replace v's own lost
        # endpoint and m carry u's.
        self._degree[v] += self._degree[u]
        adj = self._adj
        version = self._version
        dirty = self._dirty
        dict_del = dict.__delitem__
        for w, m in nbrs.items():
            if m <= 0:
                continue
            if w == u:
                # u's self-loop weight moves unchanged (never a connection)
                av[v] = av.get(v, 0) + m
            elif w == v:
                # the u--v connection collapses into self-loop weight 2m
                dict_del(av, u)
                av[v] = av.get(v, 0) + 2 * m
                self._edge_units += m  # m pair units become 2m loop units
                self._connections -= 1
                self.topology_changes += 1
            else:
                aw = adj[w]
                dict_del(aw, u)
                self._connections -= 1
                self.topology_changes += 1  # (u, w) connection destroyed
                prior = av.get(w, 0)
                if prior == 0:
                    self._connections += 1
                    self.topology_changes += 1  # (v, w) connection created
                av[w] = prior + m
                aw[v] = aw.get(v, 0) + m
                self._stamp += 1
                version[w] = self._stamp
                dirty.add(w)
        dict_del(adj, u)
        self._forget_node(u)
        self._touch(v)
        self.topology_changes += 1
        for listener in self.node_listeners:
            listener(-1)

    def multiplicity(self, u: NodeId, v: NodeId) -> int:
        return self._require(u)[v]

    def degree(self, u: NodeId) -> int:
        """Sum of incident multiplicities (self-loop weight counted as
        stored, preserving ``degree = 3 * Load``); O(1) from the cached
        counter."""
        self._require(u)
        return self._degree[u]

    def connection_count(self, u: NodeId) -> int:
        """Number of distinct real connections (what a deployed node's
        file-descriptor table would show): the adjacency entries bar the
        self-loop.  Every mutator deletes an entry that reaches zero
        (audited by :meth:`verify_caches`), so none needs filtering."""
        nbrs = self._require(u)
        return len(nbrs) - (u in nbrs)

    def distinct_neighbors(self, u: NodeId) -> list[NodeId]:
        return [v for v, m in self._require(u).items() if v != u and m > 0]

    def neighbor_multiplicities(self, u: NodeId) -> list[tuple[NodeId, int]]:
        """Neighbors with multiplicities, self-loop included (for walks)."""
        return [(v, m) for v, m in self._require(u).items() if m > 0]

    def neighbor_cdf(self, u: NodeId) -> tuple[list[NodeId], list[int], int]:
        """``(neighbors, cumulative multiplicities, total)`` sorted by
        neighbor id, cached under the node's version stamp.  The walk
        sampler bisects the cumulative array, so a hop is O(log degree)
        with the O(degree log degree) build paid once per topology change
        at the node.  Rows hold no non-positive multiplicity
        (:meth:`verify_caches` audits that), so the build is C-level
        ``sorted`` + ``accumulate`` over the row as stored."""
        try:
            stamp = self._version[u]
        except KeyError:
            raise TopologyError(f"node {u} does not exist") from None
        entry = self._cdf_cache.get(u)
        if entry is not None and entry[0] == stamp:
            return entry[1], entry[2], entry[3]
        neighbors, cumulative, total = self._built_cdf(u)
        self._cdf_cache[u] = (stamp, neighbors, cumulative, total)
        return neighbors, cumulative, total

    def _built_cdf(self, u: NodeId) -> tuple[list[NodeId], list[int], int]:
        """:meth:`neighbor_cdf` built from the row, leaving the cache as
        it is (the audits build every node's CDF)."""
        row = self._adj[u]
        neighbors = sorted(row)
        cumulative = list(accumulate(map(row.__getitem__, neighbors)))
        return neighbors, cumulative, cumulative[-1] if cumulative else 0

    @property
    def num_edge_units(self) -> int:
        """Total multiplicity over undirected edges (self-loop weight
        counted once); O(1) from the cached total."""
        return self._edge_units

    @property
    def num_connections(self) -> int:
        """Number of distinct node pairs with at least one edge; O(1)."""
        return self._connections

    # ------------------------------------------------------------------
    # cache oracle
    # ------------------------------------------------------------------
    def verify_caches(self) -> None:
        """Recompute every cached aggregate from the adjacency structure
        and raise :class:`TopologyError` on any drift (the from-scratch
        oracle behind the churn property tests)."""
        if sorted(self._nodes) != sorted(self._adj):
            raise TopologyError("live-node array diverged from adjacency keys")
        for pos, u in enumerate(self._nodes):
            if self._node_pos.get(u) != pos:
                raise TopologyError(f"node-position index stale at {u}")
        edge_units = 0
        connections = 0
        for u, nbrs in self._adj.items():
            degree = sum(m for m in nbrs.values() if m > 0)
            if self._degree.get(u) != degree:
                raise TopologyError(f"cached degree {self._degree.get(u)} != {degree} at node {u}")
            for v, m in nbrs.items():
                if m <= 0:
                    raise TopologyError(f"multiplicity {m} kept at ({u}, {v})")
                if v == u:
                    edge_units += m
                elif v > u:
                    edge_units += m
                    connections += 1
        if self._edge_units != edge_units:
            raise TopologyError(f"cached edge units {self._edge_units} != {edge_units}")
        if self._connections != connections:
            raise TopologyError(f"cached connection count {self._connections} != {connections}")
        # the cached CDFs that are current; the audit adds none
        if not self._cdf_cache.keys() <= self._adj.keys():
            raise TopologyError("neighbor CDF cache holds a dead node")
        for u, (stamp, neighbors, cumulative, total) in self._cdf_cache.items():
            if stamp != self._version[u]:
                continue
            items = sorted((v, m) for v, m in self._adj[u].items() if m > 0)
            expect_cum: list[int] = []
            acc = 0
            for _, m in items:
                acc += m
                expect_cum.append(acc)
            if (
                neighbors != [v for v, _ in items]
                or cumulative != expect_cum
                or total != acc
            ):
                raise TopologyError(f"neighbor CDF cache stale at node {u}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def bfs_distances(self, src: NodeId) -> dict[NodeId, int]:
        self._require(src)
        dist = {src: 0}
        q: deque[NodeId] = deque([src])
        while q:
            u = q.popleft()
            for v in self.distinct_neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def eccentricity(self, src: NodeId) -> int:
        """Distance from ``src`` to the farthest node: the level count of
        one frontier BFS over the array adjacency (:meth:`bfs_distances`
        is the dict oracle it is tested against)."""
        self._require(src)
        rows = self._array_adjacency()
        levels = rows.levels(rows.dead.copy(), rows.slot_of[src], self.num_nodes)
        if sum(level.size for level in levels) != self.num_nodes:
            raise TopologyError("graph is disconnected")
        return len(levels) - 1

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return True
        src = next(iter(self._adj))
        return len(self.bfs_distances(src)) == self.num_nodes

    def max_degree(self) -> int:
        return max(self._degree.values(), default=0)

    # ------------------------------------------------------------------
    # array adjacency (connectivity, wave engine, spectral sampling)
    # ------------------------------------------------------------------
    def _array_adjacency(self, fresh: bool = True, force_rebuild: bool = False) -> _RowStore:
        """The array adjacency with its slots current and the rows of
        every node touched since the last call marked stale -- or, with
        ``fresh``, re-emitted (the first call emits every row)."""
        rows = self._rows
        if rows is None or force_rebuild:
            rows = self._rows = _RowStore(self._adj)
            rows.reslot(self._adj)
        elif self._dirty:
            rows.reslot(self._dirty)
        self._dirty.clear()
        if fresh:
            rows.refresh()
        return rows

    def csr_wave_view(self) -> _RowStore:
        """The lockstep wave engine's entry to the array adjacency: slots
        current, stale rows *not* yet re-emitted -- the engine refreshes
        each round's token positions, so a wave pays only for the stale
        rows it visits.  Each row lists its neighbours in ascending id
        order with row-local cumulative multiplicities, i.e. exactly
        :meth:`neighbor_cdf`'s arrays, so the vectorized sampler and the
        scalar reference map the same uniform to the same neighbor."""
        return self._array_adjacency(fresh=False)

    def survivors_connected(self, victims: Collection[NodeId]) -> bool:
        """Would the graph stay connected if ``victims`` disappeared?
        The stale rows are re-emitted, then one sort-free frontier BFS
        over the array adjacency runs until every survivor is reached."""
        rows = self._array_adjacency()
        blocked, survivors = rows.blocked(victims)
        return survivors > 0 and rows.reach(blocked, survivors).size == survivors

    def survivor_components(
        self, victims: Collection[NodeId], probe: Iterable[NodeId]
    ) -> tuple[int, dict[NodeId, int]]:
        """Connected components of the graph without ``victims``: their
        number, and the component label of each ``probe`` node (live
        survivors).  The traversal of :meth:`survivors_connected` run to
        exhaustion, so the Python work is proportional to the probes."""
        rows = self._array_adjacency()
        blocked, survivors = rows.blocked(victims)
        label = np.full(blocked.size, -1, dtype=np.int64)
        count = 0
        while survivors > 0:
            reached = rows.reach(blocked, survivors)
            label[reached] = count
            survivors -= reached.size
            count += 1
        return count, {u: int(label[rows.slot_of[u]]) for u in probe}

    def to_sparse_adjacency(
        self, force_rebuild: bool = False
    ) -> tuple[list[NodeId], sp.csr_matrix]:
        """``(ordering, A)`` with the multigraph conventions preserved:
        off-diagonal entries are multiplicities, diagonal entries are the
        stored self-loop weights; rows follow ascending node id.

        Assembled on demand from the array adjacency (vectorized, O(nnz))
        and memoized until a row changes.  ``force_rebuild`` discards the
        array adjacency and re-emits every row first.  Callers must treat
        the returned matrix as read-only."""
        return self._array_adjacency(force_rebuild=force_rebuild).csr()

    @property
    def sync_stats(self) -> dict[str, int]:
        """Work counters of the array adjacency: rows and entries emitted
        so far, pool compactions, pool entries handed out to rows."""
        rows = self._rows or _RowStore(self._adj)
        return {
            "sync_rows": rows.sync_rows,
            "sync_entries": rows.sync_entries,
            "pool_compactions": rows.pool_compactions,
            "pool_used": rows.tail,
        }

    def verify_sparse_cache(self) -> None:
        """Audit the array adjacency against the adjacency dicts and the
        assembled CSR against a from-scratch build (the oracle behind the
        churn property tests).  A no-op before the first use."""
        if self._rows is None:
            return
        rows = self._array_adjacency()
        memo = rows._csr
        order, A = rows.csr()
        rows._csr = memo  # the audit leaves the memo as it found it
        slot_of = rows.slot_of
        if slot_of.keys() != self._adj.keys() or rows.stale.any():
            raise TopologyError("slot map diverged from the live nodes")
        live = np.fromiter(slot_of.values(), dtype=np.int64, count=len(slot_of))
        held = np.bincount(live, minlength=rows.ids.size)
        free = np.bincount(np.asarray(rows.free, dtype=np.int64), minlength=held.size)
        if (held + free != 1).any() or (rows.dead != (free == 1)).any():
            raise TopologyError("live slots and free list do not partition the slots")
        by_start = live[np.argsort(rows.start[live])]
        by_start = by_start[rows.cap[by_start] > 0]
        ends = rows.start[by_start] + rows.cap[by_start]
        if (ends > np.append(rows.start[by_start[1:]], rows.tail)).any():
            raise TopologyError("row extents overlap or overrun the pool tail")
        if rows.garbage != rows.tail - int(rows.cap[live].sum()):
            raise TopologyError("pool garbage count diverged")
        for u, s in slot_of.items():
            neighbors, cumulative, total = self._built_cdf(u)
            lo = int(rows.start[s])
            row = slice(lo, lo + int(rows.len[s]))
            if (
                rows.ids[s] != u
                or rows.len[s] > rows.cap[s]
                or rows.ids[rows.nbr[row]].tolist() != neighbors
                or rows.dead[rows.nbr[row]].any()
                or rows.cum[row].tolist() != cumulative
                or rows.tot[s] != total
            ):
                raise TopologyError(f"array adjacency row stale at node {u}")
        if order != sorted(self._adj):
            raise TopologyError("sparse adjacency ordering diverged")
        index = {u: i for i, u in enumerate(order)}
        r = [index[u] for u, nbrs in self._adj.items() for _ in nbrs]
        c = [index[v] for nbrs in self._adj.values() for v in nbrs]
        mults = (m for nbrs in self._adj.values() for m in nbrs.values())
        d = np.fromiter(mults, dtype=np.float64, count=len(r))
        B = sp.csr_matrix((d, (r, c)), shape=(len(order), len(order)))
        if (A != B).nnz:
            raise TopologyError("sparse adjacency diverged from from-scratch rebuild")
