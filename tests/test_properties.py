"""Property-based whole-system tests: a stateful churn machine asserting
the DEX invariants (I1-I8, and the DHT's retrievability) after every
adversarial step hypothesis can dream up -- single steps and partial
batches of up to n/3 entries, in both type-2 modes.  While a staggered
op is in flight, batches aim where the op is: at the hosts of old
vertices it has not reached, at hosts of the new layer, or at Spare /
Low members.

Tier-1 runs a small budget; ``pytest tests/test_properties.py
--hypothesis-profile=deep`` (the profile lives in ``tests/conftest.py``)
searches far longer, and also from n0 = 384, where about seven join
batches of n/3 carry the network past n = 2400."""

import random

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.dht.dht import DexDHT

DEEP = settings.get_current_profile_name() == "deep"
#: no batch of n/3 joins past this size: it keeps a run that draws the
#: rule again and again from growing without bound
MAX_SIZE_FOR_THIRD_JOINS = 4096


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
        n0=st.sampled_from([12, 48, 96, 384] if DEEP else [12, 48, 96]),
    )
    def setup(self, mode, seed, n0):
        self.net = DexNetwork.bootstrap(n0, DexConfig(seed=seed, type2_mode=mode))
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

    def stagger_pool(self, data, what: str) -> list[int]:
        """The nodes a batch draws its hosts or victims from: every live
        node, or, while a staggered op is in flight, one pool by stagger
        phase -- hosts of old vertices the op has not processed (phase
        1) or dropped (phase 2) yet, hosts of new-layer vertices, or the
        Spare (hosts) / Low (victims) members."""
        nodes = sorted(self.net.nodes())
        op = self.net.staggered
        if op is None:
            return nodes
        layer = self.net.overlay.old
        todo = layer.host_view()[[op.vertex_at(pos) for pos in range(op.frontier, op.p_old)]]
        new = op.new.host_view()
        pools = {
            "unprocessed old": set(todo[todo >= 0].tolist()),
            "new layer": set(new[new >= 0].tolist()),
            "spare / low": layer.spare if what == "hosts" else layer.low,
        }
        pool = data.draw(st.sampled_from(sorted(pools)), label=f"{what} pool")
        return sorted(pools[pool]) or nodes

    def live_sample(self, data, what: str, size: int | None = None) -> list[int]:
        """``size`` (default: drawn, up to n/3) nodes from the stagger
        pool, repeats allowed (a repeat is an entry the batch must
        refuse with a reason, not a crash).  The picks come from a drawn
        seed, so a batch of n/3 costs the search a few bytes, not n."""
        pool = self.stagger_pool(data, what)
        if size is None:
            size = data.draw(st.integers(1, max(1, self.net.size // 3)), label=f"{what} count")
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label=f"{what} seed"))
        return [rng.choice(pool) for _ in range(size)]

    @staticmethod
    def accounted(outcome, submitted: list) -> None:
        """Every submitted entry is healed or refused with a reason."""
        assert len(outcome.accepted) + len(outcome.rejected) == len(submitted)
        assert all(r.reason for r in outcome.rejected)
        assert (outcome.report is None) == (not outcome.accepted)

    @rule(data=st.data())
    def insert_batch_partial(self, data):
        base = self.net.fresh_id()
        hosts = self.live_sample(data, "hosts")
        batch = [(base + i, host) for i, host in enumerate(hosts)]
        self.accounted(self.net.insert_batch_partial(batch), batch)

    @precondition(lambda self: 3 <= self.net.size <= MAX_SIZE_FOR_THIRD_JOINS)
    @rule(data=st.data())
    def insert_third_of_n(self, data):
        """Exactly floor(n/3) joins: the batch size that found the last
        staggered-batch defect, once n had passed 2400."""
        base = self.net.fresh_id()
        hosts = self.live_sample(data, "hosts", size=self.net.size // 3)
        batch = [(base + i, host) for i, host in enumerate(hosts)]
        self.accounted(self.net.insert_batch_partial(batch), batch)

    @rule(data=st.data())
    def delete_batch_partial(self, data):
        victims = self.live_sample(data, "victims")
        self.accounted(self.net.delete_batch_partial(victims), victims)

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


DexChurnMachine.TestCase.settings = (
    settings()  # the loaded profile's budget
    if DEEP
    else settings(max_examples=12, stateful_step_count=40, deadline=None)
)
TestDexChurnMachine = DexChurnMachine.TestCase
