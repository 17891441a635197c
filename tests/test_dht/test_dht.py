"""The DHT of Section 4.4.4: O(log n) ops, items follow vertices, and
retrievability survives churn including staggered cycle swaps."""

import math

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.dht.dht import DexDHT
from tests.conftest import drive_inserts


def dht_net(n0=24, seed=81, **over):
    net = DexNetwork.bootstrap(n0, DexConfig(seed=seed, **over))
    return net, DexDHT(net)


class TestBasicOps:
    def test_put_get_roundtrip(self):
        net, dht = dht_net()
        dht.put("name", "dex")
        assert dht.get("name") == "dex"
        assert dht.stats.hits == 1

    def test_missing_key(self):
        net, dht = dht_net()
        assert dht.get("ghost") is None

    def test_overwrite(self):
        net, dht = dht_net()
        dht.put("k", 1)
        dht.put("k", 2)
        assert dht.get("k") == 2

    def test_delete(self):
        net, dht = dht_net()
        dht.put("k", 1)
        assert dht.delete("k")
        assert dht.get("k") is None
        assert not dht.delete("k")

    def test_responsible_node_is_live(self):
        net, dht = dht_net()
        dht.put("k", 1)
        assert net.graph.has_node(dht.responsible_node("k"))

    def test_item_follows_vertex_transfer(self):
        """Storage responsibility moves with the simulating vertex."""
        net, dht = dht_net()
        dht.put("k", "v")
        owner_before = dht.responsible_node("k")
        for _ in range(30):
            net.insert()  # spare transfers move vertices around
        assert dht.get("k") == "v"
        assert net.graph.has_node(dht.responsible_node("k"))
        del owner_before

    def test_keys_view(self):
        net, dht = dht_net()
        for i in range(10):
            dht.put(f"k{i}", i)
        assert dht.keys() == {f"k{i}" for i in range(10)}
        assert dht.item_count() == 10


class TestCosts:
    def test_ops_cost_logarithmic(self):
        net, dht = dht_net(n0=64)
        drive_inserts(net, 100)
        before = dht.stats.total_messages
        ops = 40
        for i in range(ops):
            dht.put(f"key-{i}", i)
        for i in range(ops):
            assert dht.get(f"key-{i}") == i
        per_op = (dht.stats.total_messages - before) / (2 * ops)
        assert per_op <= 6 * math.log2(net.size)


class TestChurnSurvival:
    def test_survives_mixed_churn(self):
        net, dht = dht_net(seed=83)
        data = {f"key-{i}": i for i in range(60)}
        for k, v in data.items():
            dht.put(k, v)
        for i in range(120):
            if i % 3 == 2 and net.size > 10:
                net.delete(net.random_node())
            else:
                net.insert()
        for k, v in data.items():
            assert dht.get(k) == v

    def test_survives_staggered_inflation(self):
        net, dht = dht_net(seed=85)
        data = {f"key-{i}": i for i in range(80)}
        for k, v in data.items():
            dht.put(k, v)
        crossed = False
        for _ in range(400):
            net.insert()
            if net.staggered is not None:
                crossed = True
                # mid-operation reads must already work
                assert dht.get("key-3") == 3
        assert crossed
        assert net.staggered is None
        for k, v in data.items():
            assert dht.get(k) == v
        assert dht.stats.migrated_items >= len(data)

    def test_survives_staggered_deflation(self):
        net, dht = dht_net(seed=87)
        drive_inserts(net, 260)
        data = {f"key-{i}": i for i in range(60)}
        for k, v in data.items():
            dht.put(k, v)
        while net.size > 24:
            net.delete(net.random_node())
        for k, v in data.items():
            assert dht.get(k) == v

    def test_puts_during_staggered_op(self):
        net, dht = dht_net(seed=89)
        added = {}
        for i in range(400):
            net.insert()
            if net.staggered is not None and i % 2 == 0:
                dht.put(f"mid-{i}", i)
                added[f"mid-{i}"] = i
        assert added
        for k, v in added.items():
            assert dht.get(k) == v

    def test_simplified_mode_rehash(self):
        net, dht = dht_net(seed=91, type2_mode="simplified")
        data = {f"key-{i}": i for i in range(50)}
        for k, v in data.items():
            dht.put(k, v)
        p0 = net.p
        while net.p == p0:
            net.insert()
        for k, v in data.items():
            assert dht.get(k) == v
