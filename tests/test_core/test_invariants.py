"""The invariant checker must actually detect corrupted states."""

import pytest

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import InvariantViolation
from repro.types import Layer


@pytest.fixture
def net():
    return DexNetwork.bootstrap(12, DexConfig(seed=71))


class TestDetection:
    def test_clean_network_passes(self, net):
        invariants.check_all(net.overlay, net.config)

    def test_detects_missing_edge(self, net):
        u = net.random_node()
        v = net.graph.distinct_neighbors(u)[0]
        net.graph.remove_edge(u, v, 1)
        with pytest.raises(InvariantViolation):
            invariants.check_all(net.overlay, net.config)

    def test_detects_extra_edge(self, net):
        nodes = sorted(net.nodes())
        net.graph.add_edge(nodes[0], nodes[-1])
        with pytest.raises(InvariantViolation):
            invariants.check_all(net.overlay, net.config)

    def test_detects_empty_node(self, net):
        # strip all vertices from one node by brute-force moves
        victim = sorted(net.nodes())[1]
        target = sorted(net.nodes())[2]
        for z in list(net.overlay.old.vertices_of(victim)):
            net.overlay.move(Layer.OLD, z, target)
        with pytest.raises(InvariantViolation):
            invariants.check_surjectivity(net.overlay)

    def test_detects_overload(self, net):
        target = sorted(net.nodes())[0]
        moved = 0
        for z in range(net.p):
            if net.overlay.old.host_of(z) != target:
                net.overlay.move(Layer.OLD, z, target)
                moved += 1
            if moved > net.config.max_load + 4:
                break
        with pytest.raises(InvariantViolation):
            invariants.check_balance(net.overlay, net.config)

    def test_detects_stale_spare_set(self, net):
        net.overlay.old.spare.discard(sorted(net.overlay.old.spare)[0])
        with pytest.raises(Exception):
            invariants.check_mapping_sets(net.overlay)

    def test_detects_disconnection(self, net):
        # sever a node by removing all its real edges behind the books
        u = sorted(net.nodes())[0]
        for v in list(net.graph.distinct_neighbors(u)):
            net.graph.remove_edge(u, v, net.graph.multiplicity(u, v))
        with pytest.raises(InvariantViolation):
            invariants.check_connectivity(net.overlay)


def test_the_audit_leaves_the_cdf_cache_as_it_found_it():
    """``check_invariants`` builds every node's neighbour CDF to audit the
    array adjacency, without caching them: the cache holds what the
    walks put there, no more."""
    net = DexNetwork.bootstrap(256, DexConfig(seed=3))
    for _ in range(20):
        net.insert(attach_to=sorted(net.nodes())[0])
    cache = net.graph._cdf_cache
    before = dict(cache)
    assert 0 < len(before) < net.size
    net.check_invariants()
    assert cache == before


def test_the_audit_leaves_the_csr_memo_as_it_found_it():
    """``check_invariants`` assembles the whole-graph CSR to audit it
    against a from-scratch build, without keeping it: no memo stays
    where there was none, and a memo already there stays the same
    object."""
    net = DexNetwork.bootstrap(256, DexConfig(seed=3))
    for _ in range(20):
        net.insert(attach_to=sorted(net.nodes())[0])
    net.check_invariants()  # the first audit builds the array adjacency
    rows = net.graph._rows
    assert rows is not None and rows._csr is None
    net.insert()
    net.check_invariants()
    assert rows._csr is None
    memo = net.graph.to_sparse_adjacency()
    net.check_invariants()
    assert rows._csr is memo
