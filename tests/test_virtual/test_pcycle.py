"""Structure of the p-cycle expander family (Definition 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VirtualGraphError
from repro.virtual.pcycle import (
    PCycle,
    _inverse_array,
    _inverse_table,
    cached_pcycle,
    zero_tree,
)
from repro.virtual.primes import is_prime
from tests.conftest import SMALL_PRIMES

primes = st.sampled_from(SMALL_PRIMES)
bigger_primes = st.sampled_from([53, 67, 97, 101, 151, 199, 251])


class TestConstruction:
    def test_rejects_composite(self):
        with pytest.raises(VirtualGraphError):
            PCycle(9)

    def test_rejects_small_primes(self):
        with pytest.raises(VirtualGraphError):
            PCycle(3)

    def test_vertices(self):
        z = PCycle(23)
        assert len(z) == 23
        assert list(z.vertices()) == list(range(23))
        assert 22 in z and 23 not in z

    def test_equality_and_hash(self):
        assert PCycle(23) == PCycle(23)
        assert PCycle(23) != PCycle(29)
        assert len({PCycle(23), PCycle(23), PCycle(29)}) == 2


class TestStructure:
    @given(primes)
    def test_three_regular(self, p):
        z = PCycle(p)
        for x in z.vertices():
            assert len(z.neighbor_multiset(x)) == 3
            assert z.degree(x) == 3

    @given(primes)
    def test_self_loops_exactly_at_0_1_pminus1(self, p):
        z = PCycle(p)
        loops = {x for x in z.vertices() if z.has_self_loop(x)}
        assert loops == {0, 1, p - 1}

    @given(primes, st.data())
    def test_inverse_is_involution(self, p, data):
        z = PCycle(p)
        x = data.draw(st.integers(min_value=1, max_value=p - 1))
        inv = z.inverse(x)
        assert 1 <= inv <= p - 1
        assert z.inverse(inv) == x
        assert (x * inv) % p == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(VirtualGraphError):
            PCycle(23).inverse(0)

    @given(primes)
    def test_neighbor_relation_symmetric(self, p):
        z = PCycle(p)
        for x in z.vertices():
            for y in z.distinct_neighbors(x):
                assert x in z.distinct_neighbors(y) or x == y

    @given(primes)
    def test_edges_match_neighbor_multisets(self, p):
        z = PCycle(p)
        # each vertex's incidences from the edge list == 3
        incidence = {x: 0 for x in z.vertices()}
        for a, b in z.edges():
            if a == b:
                incidence[a] += 1
            else:
                incidence[a] += 1
                incidence[b] += 1
        assert all(count == 3 for count in incidence.values())

    @given(primes)
    def test_adjacency_rows_sum_to_three(self, p):
        A = PCycle(p).adjacency_matrix()
        sums = np.asarray(A.sum(axis=1)).ravel()
        assert np.all(sums == 3)
        assert (A != A.T).nnz == 0  # symmetric

    def test_vertex_bounds_checked(self):
        z = PCycle(23)
        with pytest.raises(VirtualGraphError):
            z.neighbor_multiset(23)
        with pytest.raises(VirtualGraphError):
            z.neighbor_multiset(-1)


class TestArrayForms:
    """The whole-cycle arrays the bulk overlay builders read, against the
    per-vertex methods (and Fermat's ``pow``) they stand for."""

    def test_every_prime_below_600(self):
        for p in filter(is_prime, range(5, 600)):
            z = PCycle(p)
            assert _inverse_array(p).tolist() == [0] + [pow(x, p - 2, p) for x in range(1, p)]
            assert _inverse_table(p).tolist() == _inverse_array(p).tolist()
            a, b = z.edge_arrays()
            assert a.dtype == b.dtype == np.int64
            assert list(zip(a.tolist(), b.tolist())) == list(z.edges()), p
            nbrs = [list(z.neighbor_multiset(x)) for x in z.vertices()]
            assert z.neighbor_arrays().tolist() == nbrs, p

    def test_at_p0_of_65536(self):
        p = 262147  # p0(65536) = 2^18 + 3: the same int32 table as every p
        z = PCycle(p)
        assert z._inv is _inverse_table(p) and z._inv.itemsize == 4
        for x in (1, 2, 3, p // 2, p - 2, p - 1):
            assert z.chord_target(x) == z.inverse(x) == pow(x, p - 2, p)
        inv = _inverse_array(p)
        assert inv[0] == 0 and (np.arange(1, p) * inv[1:] % p == 1).all()
        a, b = z.edge_arrays()
        assert a.size == z.num_edges() and (a[:p] == np.arange(p) % (p - 1)).all()
        sample = list(range(0, a.size, 997)) + [p - 1, p, a.size - 1]
        edges = list(z.edges())
        assert [(int(a[i]), int(b[i])) for i in sample] == [edges[i] for i in sample]
        for x in (0, 1, 2, p // 2, p - 2, p - 1):
            assert tuple(z.neighbor_arrays()[x]) == z.neighbor_multiset(x)

    def test_arrays_are_read_only_where_shared(self):
        with pytest.raises(ValueError):
            _inverse_array(23)[3] = 0


def _reference_zero_tree(p: int) -> list[int]:
    """The per-vertex loop the vectorized tree replaced, kept as its
    reference: frontier in order, neighbors tried as (x - 1, x + 1,
    x^-1), the first claimant wins."""
    inv = _inverse_array(p).tolist()
    parent = [-1] * p
    parent[0] = 0
    frontier = [0]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            chord = inv[u] if u > 0 else 0
            for w in ((u - 1) % p, (u + 1) % p, chord):
                if parent[w] < 0:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return parent


class TestZeroTree:
    """The BFS tree of Z(p) rooted at 0: the loop's parents exactly,
    plus preorder intervals that nest like the subtrees they stand for."""

    @pytest.mark.parametrize("p", [*filter(is_prime, range(5, 600)), 16411, 262147])
    def test_matches_the_reference_loop(self, p):
        tree = zero_tree(p)
        parent = _reference_zero_tree(p)
        assert tree.parent.tolist() == parent
        assert tree.parent_array.tolist() == parent
        for table in (tree.parent_array, tree.pre, tree.size, tree.order):
            assert table.dtype == np.int32 and table.size == p
        x = np.arange(1, p)
        up = np.array(parent)[x]
        assert tree.size[0] == p and tree.pre[0] == 0
        assert (tree.order[tree.pre] == np.arange(p)).all()
        # each subtree interval sits strictly inside its parent's ...
        assert (tree.pre[x] > tree.pre[up]).all()
        assert (tree.pre[x] + tree.size[x] <= tree.pre[up] + tree.size[up]).all()
        # ... and a subtree's size counts itself plus its children's
        kids = np.bincount(up, weights=tree.size[x], minlength=p)
        assert (tree.size == 1 + kids).all()

    def test_paths_through_the_tree_are_shortest_at_p0_of_65536(self):
        p = 262147
        z = PCycle(p)
        dist = z.bfs_distances(0)
        rng = np.random.default_rng(5)
        for x in [1, p - 1, p // 2, *rng.integers(1, p, 200).tolist()]:
            path = z.shortest_path(x, 0)
            assert path[0] == x and path[-1] == 0
            assert all(b in z.distinct_neighbors(a) for a, b in zip(path, path[1:]))
            assert len(path) - 1 == dist[x] == z.distance(0, x)
            assert z.shortest_path(0, x) == path[::-1]


class TestPaths:
    @given(bigger_primes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_shortest_path_matches_bfs(self, p, data):
        z = PCycle(p)
        src = data.draw(st.integers(min_value=0, max_value=p - 1))
        dst = data.draw(st.integers(min_value=0, max_value=p - 1))
        path = z.shortest_path(src, dst)
        assert path[0] == src and path[-1] == dst
        # consecutive vertices are neighbors
        for a, b in zip(path, path[1:]):
            assert b in z.distinct_neighbors(a)
        # exact optimality against a reference full BFS
        assert len(path) - 1 == z.bfs_distances(src)[dst]

    @given(st.sampled_from([5, 7, 97, 251, 1009, 16411]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bit_parallel_distances_match_distance(self, p, data):
        """One bit-parallel BFS against :meth:`PCycle.distance` per pair:
        random pairs plus endpoints at 0, 1 and p - 1 and a == b."""
        z = PCycle(p)
        ends = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
        pairs = data.draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=60))
        pairs += [(0, 1), (p - 1, 0), (1, p - 1), (3 % p, 3 % p)]
        got = z.distances([a for a, _ in pairs], [b for _, b in pairs])
        assert got.tolist() == [z.distance(a, b) for a, b in pairs]

    def test_bit_parallel_distances_reject_bad_input(self):
        z = PCycle(23)
        assert z.distances([], []).tolist() == []
        for src, dst in (([0] * 65, [1] * 65), ([0, 1], [1]), ([23], [0]), ([0], [-1])):
            with pytest.raises(VirtualGraphError):
                z.distances(src, dst)

    def test_trivial_path(self):
        z = PCycle(23)
        assert z.shortest_path(5, 5) == [5]
        assert z.distance(5, 5) == 0

    @given(primes)
    def test_connected(self, p):
        z = PCycle(p)
        assert len(z.bfs_distances(0)) == p

    def test_diameter_logarithmic(self):
        # the family has O(log p) diameter; check a generous constant
        for p in (101, 499, 997):
            ecc = PCycle(p).eccentricity(0)
            assert ecc <= 6 * np.log2(p)

    def test_cached_pcycle_identity(self):
        assert cached_pcycle(23) is cached_pcycle(23)
