"""Property-based whole-system tests: a stateful churn machine asserting
the DEX invariants (I1-I8, and the DHT's retrievability) after every
adversarial step hypothesis can dream up."""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.dht.dht import DexDHT


class DexChurnMachine(RuleBasedStateMachine):
    """Arbitrary insert/delete/DHT interleavings keep every invariant."""

    def __init__(self):
        super().__init__()
        self.net: DexNetwork | None = None
        self.dht: DexDHT | None = None
        self.expected: dict[str, int] = {}
        self.key_counter = 0

    @initialize(
        mode=st.sampled_from(["staggered", "simplified"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def setup(self, mode, seed):
        self.net = DexNetwork.bootstrap(
            12, DexConfig(seed=seed, type2_mode=mode)
        )
        self.dht = DexDHT(self.net)

    @rule()
    def insert_node(self):
        self.net.insert()

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete_node(self, pick):
        if self.net.size <= self.net.config.min_network_size:
            return
        nodes = sorted(self.net.nodes())
        self.net.delete(nodes[pick % len(nodes)])

    @rule(value=st.integers())
    def dht_put(self, value):
        key = f"key-{self.key_counter}"
        self.key_counter += 1
        self.dht.put(key, value)
        self.expected[key] = value

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def dht_get(self, pick):
        if not self.expected:
            return
        keys = sorted(self.expected)
        key = keys[pick % len(keys)]
        assert self.dht.get(key) == self.expected[key]

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def dht_delete(self, pick):
        if not self.expected:
            return
        keys = sorted(self.expected)
        key = keys[pick % len(keys)]
        assert self.dht.delete(key)
        del self.expected[key]

    @invariant()
    def invariants_hold(self):
        if self.net is not None:
            self.net.check_invariants()

    @invariant()
    def dht_complete(self):
        if self.dht is not None:
            assert self.dht.keys() == set(self.expected)


DexChurnMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=40, deadline=None
)
TestDexChurnMachine = DexChurnMachine.TestCase
