"""LayerMapping bookkeeping: loads and the incremental Spare/Low sets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import LayerMapping
from repro.errors import MappingError
from repro.virtual.pcycle import PCycle

LOW = 16  # 2 * zeta


def fresh_mapping(p: int = 23) -> LayerMapping:
    return LayerMapping(PCycle(p), low_threshold=LOW)


class TestBasics:
    def test_assign_and_query(self):
        lm = fresh_mapping()
        lm.assign(0, 10)
        lm.assign(1, 10)
        lm.assign(2, 11)
        assert lm.host_of(0) == 10
        assert lm.load(10) == 2
        assert lm.vertices_of(10) == {0, 1}
        assert lm.active_count == 3

    def test_double_assign_raises(self):
        lm = fresh_mapping()
        lm.assign(0, 10)
        with pytest.raises(MappingError):
            lm.assign(0, 11)

    def test_unassign(self):
        lm = fresh_mapping()
        lm.assign(0, 10)
        assert lm.unassign(0) == 10
        assert not lm.is_active(0)
        assert lm.load(10) == 0

    def test_host_of_inactive_raises(self):
        with pytest.raises(MappingError):
            fresh_mapping().host_of(5)

    def test_reassign(self):
        lm = fresh_mapping()
        lm.assign(0, 10)
        lm.assign(1, 10)
        assert lm.reassign(1, 11) == 10
        assert lm.host_of(1) == 11
        assert lm.load(10) == 1

    def test_reassign_noop(self):
        lm = fresh_mapping()
        lm.assign(0, 10)
        assert lm.reassign(0, 10) == 10


class TestSpareAndLow:
    def test_spare_threshold(self):
        lm = fresh_mapping()
        lm.assign(0, 10)
        assert not lm.in_spare(10)  # Eq. 2: load >= 2
        lm.assign(1, 10)
        assert lm.in_spare(10)
        lm.unassign(1)
        assert not lm.in_spare(10)

    def test_low_threshold(self):
        lm = fresh_mapping(499)
        for z in range(LOW):
            lm.assign(z, 10)
        assert lm.in_low(10)  # Eq. 1: load <= 2*zeta
        lm.assign(LOW, 10)
        assert not lm.in_low(10)

    def test_counts(self):
        lm = fresh_mapping()
        lm.assign(0, 1)
        lm.assign(1, 1)
        lm.assign(2, 2)
        assert lm.spare_count() == 1
        assert lm.low_count() == 2

    def test_pick_transferable_avoids_zero(self):
        lm = fresh_mapping()
        lm.assign(0, 10)
        lm.assign(5, 10)
        rng = random.Random(0)
        for _ in range(20):
            assert lm.pick_transferable(10, rng) == 5

    def test_pick_transferable_needs_spare(self):
        lm = fresh_mapping()
        lm.assign(0, 10)
        with pytest.raises(MappingError):
            lm.pick_transferable(10, random.Random(0))


class TestPropertyBookkeeping:
    @given(st.lists(st.tuples(st.integers(0, 22), st.integers(0, 5)), max_size=80))
    @settings(max_examples=80)
    def test_sets_match_bruteforce(self, ops):
        """After arbitrary assign/move/unassign sequences, Spare and Low
        equal their from-scratch recomputation (invariant I7)."""
        lm = fresh_mapping()
        for vertex, node in ops:
            if not lm.is_active(vertex):
                lm.assign(vertex, node)
            elif lm.host_of(vertex) == node:
                lm.unassign(vertex)
            else:
                lm.reassign(vertex, node)
        loads = {}
        for z in lm.active_vertices():
            loads[lm.host_of(z)] = loads.get(lm.host_of(z), 0) + 1
        assert lm.spare == {u for u, l in loads.items() if l >= 2}
        assert lm.low == {u for u, l in loads.items() if 1 <= l <= LOW}
        lm.verify()


class TestAssignAll:
    @given(st.dictionaries(st.integers(0, 22), st.sampled_from([0, 3, 2**40, 2**40 + 1])))
    @settings(max_examples=80)
    def test_equals_assign_per_item(self, hosts):
        """The bulk loader against ``assign`` per item (any vertex
        subset, any order): the same host order, sets and loads, with the
        dict adopted and its own objects in ``sim``."""
        one_by_one, bulk = fresh_mapping(), fresh_mapping()
        for z, u in hosts.items():
            one_by_one.assign(z, u)
        bulk.assign_all(hosts)
        assert bulk.host is hosts
        assert list(bulk.host.items()) == list(one_by_one.host.items())
        for name in ("sim", "spare", "low"):
            assert getattr(bulk, name) == getattr(one_by_one, name), name
        bulk.verify()
        assert bulk.host_array().tolist() == [hosts.get(z, -1) for z in range(23)]
        own = {id(x) for x in hosts} | {id(x) for x in hosts.values()}
        assert all(id(x) in own for u, vs in bulk.sim.items() for x in (u, *vs))

    def test_rejects_a_loaded_layer_and_a_foreign_vertex(self):
        lm = fresh_mapping()
        for bad in ({23: 0}, {-1: 0, 4: 1}):
            with pytest.raises(MappingError):
                lm.assign_all(bad)
        assert lm.active_count == 0
        lm.assign(3, 7)
        with pytest.raises(MappingError):
            lm.assign_all({4: 7})
