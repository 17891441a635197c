"""Differential test for ``core.multi.certify_survivors``.

Batch deletion decides survivor connectivity on the virtual graph: the
BFS tree of Z(p) minus the victims' vertices falls into pieces, which Z(p)
edges and shared hosts join.  The oracle is the array BFS over the real
graph (``DynamicMultigraph.survivor_components``).  Both must agree on
whether the survivors are connected, on the number of components, and on
the partition of every survivor into components.
"""

from __future__ import annotations

import random

import pytest

from repro import DexConfig, DexNetwork
from repro.core import multi
from repro.core.multi import certify_survivors, partition_delete_batch
from repro.net.metrics import CostLedger


def _assert_agrees(net: DexNetwork, victims: set[int]) -> int:
    """Certificate vs array BFS on one victim set; the component count."""
    split = certify_survivors(net, victims)
    assert split is not None, "single-layer state: the certificate applies"
    survivors = [u for u in net.nodes() if u not in victims]
    count, label = net.graph.survivor_components(set(victims), survivors)
    assert split[0] == count
    assert (count == 1) == net.graph.survivors_connected(set(victims))
    got = [split[1](u) for u in survivors]
    assert all(0 <= x < count for x in got)
    pairs = {(label[u], x) for u, x in zip(survivors, got)}
    # a bijection between the two labellings: the same partition
    assert len(pairs) == count == len({x for _, x in pairs})
    return count


def _zero_neighbourhood_victims(net: DexNetwork) -> list[set[int]]:
    """The hosts of vertex 0, and of the self-inverse vertices 1 and p-1
    (the root and its two children in the tree)."""
    layer = net.overlay.old
    return [{layer.host[0]}, {layer.host[1], layer.host[layer.p - 1]}]


def _cut_off(net: DexNetwork, rng: random.Random) -> set[int]:
    """Every neighbour of one survivor: it is left on its own."""
    u = rng.choice(sorted(net.nodes()))
    return set(net.graph.distinct_neighbors(u))


def _glued_by_a_host(net: DexNetwork) -> set[int] | None:
    """Victims that cut a Z(p)-connected group T of one host's vertices
    off from everything else in Z(p) (they host every neighbour of T
    outside T) while the host's other vertices stay wired to the rest:
    T's piece joins the others only through that host."""
    layer = net.overlay.old
    z = layer.pcycle
    for h, held in sorted(layer.sim.items()):
        group, todo = set(), [min(held)]
        while todo:  # T: the Z(p) component of one vertex within ``held``
            x = todo.pop()
            if x not in group:
                group.add(x)
                todo += [y for y in z.neighbor_multiset(x) if y in held]
        if group == held:
            continue
        victims = {layer.host[y] for x in group for y in z.neighbor_multiset(x)} - {h}
        if len(victims) <= 6 and net.graph.survivors_connected(victims):
            return victims
    return None


@pytest.fixture(autouse=True)
def any_load(monkeypatch: pytest.MonkeyPatch) -> None:
    """Certify every batch, whatever the victims' load (the shipped
    bound hands large ones to the array BFS, which is cheaper there)."""
    monkeypatch.setattr(multi, "CERTIFICATE_MAX_LOAD", float("inf"))


@pytest.fixture
def no_scan_prefix(monkeypatch: pytest.MonkeyPatch) -> None:
    """Scan every painted vertex, not just each subtree's prefix."""
    monkeypatch.setattr(multi, "SCAN_PREFIX", 1 << 30)


@pytest.mark.parametrize("mode", ["simplified", "staggered"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_the_array_bfs_between_steps(mode: str, seed: int):
    """Seeded churn in both type-2 modes; at every state with a single
    layer, random victim sets of several sizes plus the tree's special
    vertices and a node's whole neighbourhood."""
    rng = random.Random(seed)
    config = DexConfig(seed=seed, type2_mode=mode, validate_every_step=False)
    net = DexNetwork.bootstrap(rng.choice([48, 120, 300]), config, seed=seed)
    checked = disconnected = 0
    for _ in range(14):
        nodes = sorted(net.nodes())
        if net.staggered is not None:
            assert certify_survivors(net, {nodes[0]}) is None
        else:
            cases = [
                set(rng.sample(nodes, rng.randint(1, max(1, len(nodes) // d))))
                for d in (20, 6, 3)
            ]
            cases += _zero_neighbourhood_victims(net) + [_cut_off(net, rng)]
            for victims in cases:
                if len(victims) < len(nodes):
                    disconnected += _assert_agrees(net, victims) > 1
                    checked += 1
        if rng.random() < 0.5:
            hosts = rng.sample(nodes, max(1, len(nodes) // 5))
            net.insert_batch_partial([(net.fresh_id() + i, a) for i, a in enumerate(hosts)])
        else:
            net.delete_batch_partial(rng.sample(nodes, max(1, len(nodes) // 6)))
    assert checked >= 20 and disconnected, (checked, disconnected)


def test_two_live_layers_go_to_the_array_bfs():
    """While a staggered op is in flight the real graph is the image of
    two p-cycles, so only the array BFS decides."""
    net = DexNetwork.bootstrap(96, DexConfig(seed=2, type2_mode="staggered"), seed=2)
    net.start_staggered_inflate(CostLedger())
    assert net.staggered is not None
    nodes = sorted(net.nodes())
    assert certify_survivors(net, set(nodes[:3])) is None
    legal, rejected, _adopter = partition_delete_batch(net, nodes[:3])
    assert legal or rejected


def test_bridge_victim_disconnects():
    """The shape of ``test_connectivity_rejects_only_the_bridge``: a fresh
    node whose only neighbour is the victim."""
    net = DexNetwork.bootstrap(24, DexConfig(seed=3, type2_mode="simplified"), seed=3)
    base = net.fresh_id()
    hosts = sorted(net.nodes())
    net.insert_batch([(base, hosts[0]), (base + 1, hosts[1])])
    leaf = next(u for u in (base, base + 1) if len(net.graph.distinct_neighbors(u)) == 1)
    bridge = net.graph.distinct_neighbors(leaf)[0]
    others = [u for u in hosts if u not in (bridge, leaf)][:2]
    assert _assert_agrees(net, {bridge, *others}) == 2
    assert _assert_agrees(net, set(others)) == 1


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_pieces_joined_only_through_a_shared_host(seed: int):
    rng = random.Random(seed)
    net = DexNetwork.bootstrap(200, DexConfig(seed=seed, type2_mode="simplified"), seed=seed)
    for _ in range(3):  # churn scatters the hosts' vertices over Z(p)
        hosts = rng.sample(sorted(net.nodes()), 40)
        net.insert_batch_partial([(net.fresh_id() + i, a) for i, a in enumerate(hosts)])
        net.delete_batch_partial(rng.sample(sorted(net.nodes()), 40))
    victims = _glued_by_a_host(net)
    assert victims is not None, "no vertex isolated by at most three hosts"
    assert _assert_agrees(net, victims) == 1


def test_every_painted_vertex_scanned(no_scan_prefix: None):
    """Without the scan prefix every piece is scanned completely: the
    same answers on the same kind of states."""
    rng = random.Random(8)
    net = DexNetwork.bootstrap(300, DexConfig(seed=8, type2_mode="simplified"), seed=8)
    nodes = sorted(net.nodes())
    for victims in _zero_neighbourhood_victims(net) + [
        set(rng.sample(nodes, k)) for k in (5, 40, 120)
    ]:
        _assert_agrees(net, victims)


@pytest.mark.parametrize("seed", [1, 2])
def test_partition_is_the_same_as_with_the_array_bfs(seed: int, monkeypatch):
    """End to end: legal victims, rejections and adopters are identical
    when the certificate is switched off and the array BFS decides."""
    rng = random.Random(seed)
    nets = [
        DexNetwork.bootstrap(400, DexConfig(seed=seed, type2_mode="simplified"), seed=seed)
        for _ in range(2)
    ]
    restored = 0
    for _ in range(10):
        victims = rng.sample(sorted(nets[0].nodes()), 90)
        with_certificate = partition_delete_batch(nets[0], victims)
        with monkeypatch.context() as m:
            m.setattr(multi, "certify_survivors", lambda dex, victims: None)
            with_bfs = partition_delete_batch(nets[1], victims)
        assert with_certificate == with_bfs
        restored += any("disconnect" in r.reason for r in with_bfs[1])
        for net in nets:
            net.delete_batch_partial(victims)
        hosts = rng.sample(sorted(nets[0].nodes()), 80)
        for net in nets:
            net.insert_batch_partial([(net.fresh_id() + i, a) for i, a in enumerate(hosts)])
    assert restored, "no batch went through the restore sweep"


def test_large_loads_go_to_the_array_bfs(monkeypatch):
    monkeypatch.undo()
    net = DexNetwork.bootstrap(640, DexConfig(seed=9, type2_mode="simplified"), seed=9)
    nodes = sorted(net.nodes())
    load = multi.CERTIFICATE_MAX_LOAD * net.size
    small = set(nodes[: int(load // net.overlay.old.load(nodes[0])) // 2 or 1])
    assert certify_survivors(net, small) is not None
    assert certify_survivors(net, set(nodes[: int(load) + 1])) is None
