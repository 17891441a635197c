"""The p-cycle expander family (Definition 1, after Lubotzky [19]).

For a prime ``p``, ``Z(p)`` is the 3-regular multigraph on the vertex set
``Z_p = {0, ..., p-1}`` with

* cycle edges ``(x, x+1 mod p)`` and ``(x, x-1 mod p)``,
* inverse chords ``(x, x^{-1} mod p)`` for ``x, y > 0``,
* a self-loop at vertex ``0`` (and implicitly at ``1`` and ``p-1``, which
  are their own inverses), so that *every* vertex has degree exactly 3
  (self-loops counted once, the convention of [14] for this family).

The graph is an expander with a constant spectral gap for every prime p
[19]; benchmark E9 measures the gap across the family.

Neighbors are computable in O(1) from one int32 inverse table per prime
(filled by powers of a primitive root, at every p), so the graph is kept
*implicit*: no adjacency structure is materialised unless
:meth:`PCycle.adjacency_matrix` is called.  Shortest paths -- needed for
coordinator messages and DHT routing, both locally computable by nodes in
the paper -- come from one cached BFS tree rooted at vertex 0 when an
endpoint is 0 (every coordinator update, Algorithm 4.7), and otherwise
from bidirectional BFS over the implicit neighbor function, which
explores O(sqrt(p)) vertices on this family.  The same tree, with a
preorder index and a subtree size per vertex, lets batch deletion decide
survivor connectivity on the virtual graph (:mod:`repro.core.multi`).
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import VirtualGraphError
from repro.types import Vertex
from repro.virtual.primes import is_prime

_MIN_P = 5


def _primitive_root(p: int) -> int:
    """The smallest generator ``g`` of the multiplicative group mod
    ``p``: ``g^e != 1`` for every proper divisor ``e`` of ``p - 1``."""
    n = p - 1
    proper = [e for d in range(2, math.isqrt(n) + 1) if n % d == 0 for e in (d, n // d)]
    return next(g for g in range(2, p) if all(pow(g, e, p) != 1 for e in proper))


@lru_cache(maxsize=2)
def _inverse_array(p: int) -> np.ndarray:
    """All multiplicative inverses mod ``p`` (entry 0 is 0) as a
    read-only int64 array, at any ``p`` the products fit in: the powers
    ``g^0 .. g^(p-2)`` of a primitive root are filled in by doubling
    (``g^(m+k) = g^m * g^k``), and ``g^k`` inverts to ``g^(p-1-k)``."""
    if p >= 1 << 31:
        raise VirtualGraphError(f"p = {p} overflows the int64 inverse table")
    powers = np.ones(p - 1, dtype=np.int64)
    filled, step = 1, _primitive_root(p)
    while filled < p - 1:
        take = min(filled, p - 1 - filled)
        powers[filled : filled + take] = powers[:take] * step % p
        filled, step = filled + take, step * step % p
    inv = np.zeros(p, dtype=np.int64)
    inv[powers] = np.roll(powers[::-1], 1)
    inv.setflags(write=False)
    return inv


def neighbor_rows(x: np.ndarray, p: int) -> np.ndarray:
    """:meth:`PCycle.neighbor_multiset` of every vertex in ``x``: row
    ``i`` is ``(x[i] - 1, x[i] + 1, chord_target(x[i]))``, as int64."""
    return np.stack(((x - 1) % p, (x + 1) % p, _inverse_array(p)[x]), axis=1)


def _int32_array(values: np.ndarray) -> array:
    """``values`` as an ``array('i')``: indexing it yields Python ints at
    list speed in a quarter of a list's memory (4 bytes per entry)."""
    out = array("i")
    out.frombytes(values.astype(np.int32).tobytes())
    return out


@lru_cache(maxsize=16)
def _inverse_table(p: int) -> array:
    """:func:`_inverse_array` as an int32 ``array`` -- the neighbor
    queries' table (about 40 ns a lookup; 1 MB at p = 2^18 + 3)."""
    return _int32_array(_inverse_array(p))


class ZeroTree:
    """The BFS tree of ``Z(p)`` rooted at vertex 0, order-faithful to a
    per-vertex loop: the frontier is expanded in order, each vertex tries
    its neighbors as ``(x - 1, x + 1, x^-1)``, and the first claimant
    wins.  Every coordinator update routes to vertex 0 (Algorithm 4.7),
    so a shortest path with an endpoint at 0 is a walk up :attr:`parent`.

    ``pre`` / ``size`` give each vertex's subtree as the preorder
    interval ``[pre[x], pre[x] + size[x])`` and ``order`` maps a preorder
    index back to its vertex: removing vertices from the tree leaves
    pieces that are unions of such intervals, which is what batch
    deletion's survivor certificate paints.  Everything is int32."""

    __slots__ = ("parent", "parent_array", "pre", "size", "order")

    def __init__(self, p: int) -> None:
        parent = np.full(p, -1, dtype=np.int32)
        parent[0] = 0
        levels = [np.zeros(1, dtype=np.int64)]
        while True:
            frontier = levels[-1]
            tried = neighbor_rows(frontier, p).ravel()
            open_at = np.flatnonzero(parent[tried] < 0)
            if not open_at.size:
                break
            # np.unique keeps each vertex's first claim; sorting those
            # positions back restores the frontier's claim order
            claims = open_at[np.sort(np.unique(tried[open_at], return_index=True)[1])]
            level = tried[claims]
            parent[level] = frontier[claims // 3]
            levels.append(level)
        # A level lists each parent's children contiguously (claims follow
        # the frontier): per level, where each parent's run starts.
        runs = [np.sort(np.unique(parent[level], return_index=True)[1]) for level in levels]
        size = np.ones(p, dtype=np.int32)
        for level, starts in zip(levels[:0:-1], runs[:0:-1]):
            owners = parent[level]
            size[owners[starts]] += np.add.reduceat(size[level], starts)
        # Children follow their parent in claim order: a child's preorder
        # index is its parent's + 1 + the sizes of its earlier siblings.
        pre = np.zeros(p, dtype=np.int32)
        for level, starts in zip(levels[1:], runs[1:]):
            owners = parent[level]
            before = np.cumsum(size[level]) - size[level]
            group = np.repeat(starts, np.diff(np.append(starts, level.size)))
            pre[level] = pre[owners] + 1 + before - before[group]
        order = np.empty(p, dtype=np.int32)
        order[pre] = np.arange(p, dtype=np.int32)
        #: parent per vertex (``parent[0] == 0``): the path walk indexes it
        self.parent = _int32_array(parent)
        #: the same entries as a numpy view (no copy)
        self.parent_array = np.frombuffer(self.parent, dtype=np.int32)
        self.pre = pre
        self.size = size
        self.order = order
        for table in (self.parent_array, pre, size, order):
            table.setflags(write=False)


@lru_cache(maxsize=4)
def zero_tree(p: int) -> ZeroTree:
    """The :class:`ZeroTree` of ``Z(p)``, built once per prime by the
    first coordinator update (about 0.1 s at p = 2^18 + 3 on 2 vCPUs,
    against 0.24 s for the per-vertex loop)."""
    return ZeroTree(p)


class PCycle:
    """Implicit representation of the p-cycle ``Z(p)``."""

    __slots__ = ("p", "_inv")

    def __init__(self, p: int):
        if p < _MIN_P or not is_prime(p):
            raise VirtualGraphError(f"p-cycle size must be a prime >= {_MIN_P}, got {p}")
        self.p = p
        #: instance reference to the shared inverse table -- neighbor
        #: queries sit on the healing hot path, so they must not pay the
        #: lru_cache wrapper per call
        self._inv = _inverse_table(p)

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.p

    def __contains__(self, x: object) -> bool:
        return isinstance(x, int) and 0 <= x < self.p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PCycle) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PCycle", self.p))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PCycle(p={self.p})"

    def vertices(self) -> range:
        """All vertices ``0..p-1``."""
        return range(self.p)

    def check_vertex(self, x: Vertex) -> None:
        if not (0 <= x < self.p):
            raise VirtualGraphError(f"vertex {x} not in Z_{self.p}")

    def inverse(self, x: Vertex) -> Vertex:
        """Multiplicative inverse of ``x`` mod p (only defined for x > 0)."""
        self.check_vertex(x)
        if x == 0:
            raise VirtualGraphError("vertex 0 has no multiplicative inverse")
        return self._inv[x]

    def chord_target(self, x: Vertex) -> Vertex:
        """The third edge endpoint of ``x``: its inverse for x > 0, and x
        itself (the explicit self-loop) for x = 0."""
        self.check_vertex(x)
        return self._inv[x]

    def neighbor_multiset(self, x: Vertex) -> tuple[Vertex, Vertex, Vertex]:
        """The three edge endpoints incident to ``x`` (with multiplicity;
        an entry equal to ``x`` denotes a self-loop).  Every vertex has
        exactly three, which is what makes the family 3-regular."""
        p = self.p
        if not 0 <= x < p:
            raise VirtualGraphError(f"vertex {x} not in Z_{p}")
        return ((x - 1) % p, (x + 1) % p, self._inv[x])

    def distinct_neighbors(self, x: Vertex) -> set[Vertex]:
        """Distinct neighbors of ``x`` excluding itself (for path finding)."""
        return {y for y in self.neighbor_multiset(x) if y != x}

    def has_self_loop(self, x: Vertex) -> bool:
        """True for 0, 1 and p-1 (the self-inverse vertices)."""
        return self.chord_target(x) == x

    def degree(self, x: Vertex) -> int:
        """Always 3 (self-loops counted once, per [14])."""
        self.check_vertex(x)
        return 3

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Each undirected edge once, self-loops as ``(x, x)``."""
        p = self.p
        for x in range(p):
            y = (x + 1) % p
            yield (min(x, y), max(x, y))
        for x in range(p):
            y = self.chord_target(x)
            if y >= x:  # each chord once; includes self-loops (y == x)
                yield (x, y)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`edges` as two int64 arrays, in the same order: the
        ``p`` cycle edges first, then the chords."""
        x = np.arange(self.p)
        y = np.roll(x, -1)
        inv = _inverse_array(self.p)
        chord = inv >= x
        return (
            np.concatenate((np.minimum(x, y), x[chord])),
            np.concatenate((np.maximum(x, y), inv[chord])),
        )

    def neighbor_arrays(self) -> np.ndarray:
        """:meth:`neighbor_multiset` of every vertex: a ``(p, 3)`` int64
        array whose row ``x`` is ``(x - 1, x + 1, chord_target(x))``."""
        return neighbor_rows(np.arange(self.p), self.p)

    def num_edges(self) -> int:
        """Number of undirected edges (self-loops counted once): 3p/2
        rounded to account for the three self-loops."""
        return sum(1 for _ in self.edges())

    # ------------------------------------------------------------------
    # adjacency matrix (for spectral analysis)
    # ------------------------------------------------------------------
    def adjacency_matrix(self) -> sp.csr_matrix:
        """Sparse adjacency with multi-edge multiplicities and self-loops
        counted once; every row sums to 3."""
        p = self.p
        rows, cols = np.repeat(np.arange(p), 3), self.neighbor_arrays().ravel()
        return sp.csr_matrix((np.ones(3 * p), (rows, cols)), shape=(p, p))

    # ------------------------------------------------------------------
    # shortest paths (locally computable by every node in the paper)
    # ------------------------------------------------------------------
    def shortest_path(self, src: Vertex, dst: Vertex) -> list[Vertex]:
        """A shortest path from ``src`` to ``dst`` (inclusive).

        With an endpoint at 0 the path is read off :func:`zero_tree`;
        otherwise bidirectional BFS over the implicit neighbor function.
        Both sides expand complete levels; once the two searches have
        completed levels ``lf`` and ``lb``, every path of length <= lf + lb
        has a vertex seen by both sides, so the search can stop as soon as
        the best meeting sum is <= lf + lb + 1.  This guarantees exact
        shortest paths while exploring only O(sqrt(p)) vertices on the
        expander family.
        """
        self.check_vertex(src)
        self.check_vertex(dst)
        if src == dst:
            return [src]
        if src == 0 or dst == 0:
            return self._path_via_zero_tree(src, dst)
        dist_f: dict[Vertex, int] = {src: 0}
        dist_b: dict[Vertex, int] = {dst: 0}
        parent_f: dict[Vertex, Vertex | None] = {src: None}
        parent_b: dict[Vertex, Vertex | None] = {dst: None}
        frontier_f: list[Vertex] = [src]
        frontier_b: list[Vertex] = [dst]
        level_f = 0
        level_b = 0
        best_total: int | None = None
        best_meet: Vertex | None = None
        while frontier_f or frontier_b:
            if best_total is not None and best_total <= level_f + level_b + 1:
                break
            # Expand the smaller non-empty frontier, a full level at a time.
            expand_forward = bool(frontier_f) and (
                not frontier_b or len(frontier_f) <= len(frontier_b)
            )
            if expand_forward:
                frontier_f = self._expand_level(
                    frontier_f, dist_f, parent_f, level_f + 1
                )
                level_f += 1
                meets = [w for w in frontier_f if w in dist_b]
            else:
                frontier_b = self._expand_level(
                    frontier_b, dist_b, parent_b, level_b + 1
                )
                level_b += 1
                meets = [w for w in frontier_b if w in dist_f]
            for w in meets:
                total = dist_f[w] + dist_b[w]
                if best_total is None or total < best_total:
                    best_total = total
                    best_meet = w
        if best_meet is None:  # pragma: no cover - the p-cycle is connected
            raise VirtualGraphError(f"no path between {src} and {dst} in Z_{self.p}")
        # Rebuild the path by walking both parent maps from the meeting vertex.
        path_f: list[Vertex] = []
        v: Vertex | None = best_meet
        while v is not None:
            path_f.append(v)
            v = parent_f[v]
        path_f.reverse()
        path_b: list[Vertex] = []
        v = parent_b[best_meet]
        while v is not None:
            path_b.append(v)
            v = parent_b[v]
        return path_f + path_b

    def _path_via_zero_tree(self, src: Vertex, dst: Vertex) -> list[Vertex]:
        """Shortest path with one endpoint at vertex 0, read off the
        cached BFS tree (exact: BFS tree distances are graph distances
        from the root)."""
        parent = zero_tree(self.p).parent
        v = dst if src == 0 else src
        path = [v]
        while v != 0:
            v = parent[v]
            path.append(v)
        if src == 0:
            path.reverse()
        return path

    def _expand_level(
        self,
        frontier: list[Vertex],
        dist: dict[Vertex, int],
        parent: dict[Vertex, Vertex | None],
        new_level: int,
    ) -> list[Vertex]:
        nxt: list[Vertex] = []
        for u in frontier:
            for w in self.distinct_neighbors(u):
                if w in dist:
                    continue
                dist[w] = new_level
                parent[w] = u
                nxt.append(w)
        return nxt

    def distance(self, src: Vertex, dst: Vertex) -> int:
        """Hop distance between two vertices."""
        return len(self.shortest_path(src, dst)) - 1

    def distances(self, src: Sequence[Vertex], dst: Sequence[Vertex]) -> np.ndarray:
        """:meth:`distance` of every pair ``(src[i], dst[i])``, up to 64
        pairs, in one BFS over ``Z(p)`` that carries one bit per source
        (a uint64 per vertex): level ``d`` ORs each vertex's bits with its
        three neighbours', and pair ``i`` is done when bit ``i`` reaches
        ``dst[i]``.  O(p) array work per level, for at most the diameter."""
        a = np.asarray(src, dtype=np.int64)
        b = np.asarray(dst, dtype=np.int64)
        if a.shape != b.shape or a.ndim != 1 or a.size > 64:
            raise VirtualGraphError("distances takes two equal lists of at most 64 vertices")
        for x in (a, b):
            if x.size and not (0 <= x.min() and x.max() < self.p):
                raise VirtualGraphError(f"a vertex outside Z_{self.p}")
        bits = np.left_shift(np.uint64(1), np.arange(a.size, dtype=np.uint64))
        seen = np.zeros(self.p, dtype=np.uint64)
        np.bitwise_or.at(seen, a, bits)
        inv = _inverse_array(self.p)
        out = np.zeros(a.size, dtype=np.int64)
        pending = (seen[b] & bits) == 0
        level = 0
        while pending.any():
            level += 1
            seen = seen | np.roll(seen, 1) | np.roll(seen, -1) | seen[inv]
            hit = pending & ((seen[b] & bits) != 0)
            out[hit] = level
            pending &= ~hit
        return out

    def bfs_distances(self, src: Vertex, cutoff: int | None = None) -> dict[Vertex, int]:
        """Full BFS distance map from ``src`` (used by tests and for
        eccentricity measurements)."""
        self.check_vertex(src)
        dist = {src: 0}
        q: deque[Vertex] = deque([src])
        while q:
            u = q.popleft()
            if cutoff is not None and dist[u] >= cutoff:
                continue
            for w in self.distinct_neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist

    def eccentricity(self, src: Vertex) -> int:
        """Maximum BFS distance from ``src`` (O(p) time)."""
        return max(self.bfs_distances(src).values())

    def diameter_bound(self) -> int:
        """An upper bound on the diameter: twice the eccentricity of 0."""
        return 2 * self.eccentricity(0)


@lru_cache(maxsize=64)
def cached_pcycle(p: int) -> PCycle:
    """Shared PCycle instances (they are immutable)."""
    return PCycle(p)


def shortest_path_vertices(p: int, src: Vertex, dst: Vertex) -> Sequence[Vertex]:
    """Convenience wrapper used by routing code."""
    return cached_pcycle(p).shortest_path(src, dst)
