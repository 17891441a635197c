"""LayerMapping bookkeeping: loads and the incremental Spare/Low sets."""

import random
import sys
from array import array
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dex import DexNetwork
from repro.core.mapping import LayerMapping
from repro.errors import MappingError, VirtualGraphError
from repro.virtual.pcycle import PCycle

LOW = 16  # 2 * zeta


def itself(u: int) -> int:
    return u


def fresh_mapping(p: int = 23, own=itself) -> LayerMapping:
    return LayerMapping(PCycle(p), low_threshold=LOW, own=own)


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
    @given(st.dictionaries(st.integers(0, 22), st.sampled_from(range(4))))
    @settings(max_examples=80)
    def test_equals_assign_per_item(self, picks):
        """The bulk loader against ``assign`` per item (any vertex
        subset): the same host table, vertex arrays, sets and loads, with
        the table adopted and the live nodes' own id objects as keys."""
        live = [0, 3, 2**40, 2**40 + 1]
        hosts = {z: live[i] for z, i in picks.items()}
        one_by_one = fresh_mapping()
        bulk = fresh_mapping(own={u: u for u in live}.__getitem__)
        for z, u in sorted(hosts.items()):
            one_by_one.assign(z, u)
        table = array("q", [hosts.get(z, -1) for z in range(23)])
        bulk.assign_all(table)
        assert bulk.host is table
        assert bulk.host == one_by_one.host
        assert bulk.active_count == one_by_one.active_count == len(hosts)
        assert bulk.sim == one_by_one.sim  # ascending arrays on both sides
        for name in ("spare", "low"):
            assert getattr(bulk, name) == getattr(one_by_one, name), name
        bulk.verify()
        assert bulk.host_view().tolist() == [hosts.get(z, -1) for z in range(23)]
        own = {id(u) for u in live}
        assert all(id(u) in own for u in chain(bulk.sim, bulk.spare, bulk.low))

    def test_rejects_a_loaded_layer_and_a_foreign_vertex(self):
        lm = fresh_mapping()
        for bad in (array("q", [0]) * 24, array("q", [0]) * 22, array("q", [-2]) * 23):
            with pytest.raises(MappingError, match="does not map Z_23"):
                lm.assign_all(bad)
        assert lm.active_count == 0 and not lm.sim
        lm.assign(3, 7)
        with pytest.raises(MappingError, match="empty layer"):
            lm.assign_all(array("q", [7]) * 23)


class DictMapping:
    """The dict-and-set mapping the flat arrays replaced, kept as the
    reference model: ``host`` a dict, one vertex ``set`` per node."""

    def __init__(self, p: int, low_threshold: int) -> None:
        self.p, self.low_threshold = p, low_threshold
        self.host: dict[int, int] = {}
        self.sim: dict[int, set[int]] = {}
        self.spare: set[int] = set()
        self.low: set[int] = set()
        self.deltas: list[tuple[int, int, int]] = []

    def _sets_after_change(self, u: int) -> None:
        load = len(self.sim.get(u, ()))
        spare_delta = low_delta = 0
        if (load >= 2) != (u in self.spare):
            spare_delta = 1 if load >= 2 else -1
            self.spare ^= {u}
        if (1 <= load <= self.low_threshold) != (u in self.low):
            low_delta = 1 if 1 <= load <= self.low_threshold else -1
            self.low ^= {u}
        if spare_delta or low_delta:
            self.deltas.append((u, spare_delta, low_delta))

    def host_of(self, z: int) -> int:
        try:
            return self.host[z]
        except KeyError:
            raise MappingError(f"vertex {z} is not active") from None

    def assign(self, z: int, u: int) -> None:
        if not 0 <= z < self.p:
            raise VirtualGraphError(f"vertex {z} not in Z_{self.p}")
        if z in self.host:
            raise MappingError(f"vertex {z} already active at {self.host[z]}")
        self.host[z] = u
        self.sim.setdefault(u, set()).add(z)
        self._sets_after_change(u)

    def assign_all(self, hosts: dict[int, int]) -> None:
        if self.host:
            raise MappingError("bulk assignment needs an empty layer")
        for z, u in sorted(hosts.items()):
            self.host[z] = u
            self.sim.setdefault(u, set()).add(z)
        for u in self.sim:
            load = len(self.sim[u])
            if load >= 2:
                self.spare.add(u)
            if load <= self.low_threshold:
                self.low.add(u)

    def unassign(self, z: int) -> int:
        u = self.host_of(z)
        del self.host[z]
        self.sim[u].discard(z)
        if not self.sim[u]:
            del self.sim[u]
        self._sets_after_change(u)
        return u

    def reassign(self, z: int, new_host: int) -> int:
        old = self.host_of(z)
        if old == new_host:
            return old
        self.host[z] = new_host
        self.sim[old].discard(z)
        if not self.sim[old]:
            del self.sim[old]
        self.sim.setdefault(new_host, set()).add(z)
        self._sets_after_change(old)
        self._sets_after_change(new_host)
        return old

    def reassign_all(self, u: int, new_host: int) -> list[int]:
        if u == new_host or u not in self.sim:
            return []
        vertices = self.sim.pop(u)
        for z in vertices:
            self.host[z] = new_host
        self.sim.setdefault(new_host, set()).update(vertices)
        self._sets_after_change(u)
        self._sets_after_change(new_host)
        return sorted(vertices)


NODES = [0, 1, 2, 3, 2**40]


def _ops() -> st.SearchStrategy:
    # vertices 0, 1, p - 1, any, and the two just outside Z_p
    vertex = st.sampled_from([0, 1, "p-1", -1, "p"]) | st.integers(0, 22)
    node = st.sampled_from(NODES)
    return st.lists(
        st.tuples(
            st.sampled_from(["assign", "unassign", "reassign", "reassign_all", "assign_all"]),
            st.integers(0, 1),  # which layer
            vertex,
            node,
            node,
        ),
        max_size=120,
    )


def _vertex(z: int | str, p: int) -> int:
    if isinstance(z, str):
        return p - 1 if z == "p-1" else p
    return z if z < 0 else z % p


class TestAgainstTheDictModel:
    """The array mapping against :class:`DictMapping` on both layers of a
    staggered op (two cycles, two Low thresholds): host table, vertex
    contents, Spare/Low, ``on_counts_delta`` calls and error text."""

    LAYERS = ((23, 16), (11, 2))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_state_after_every_operation(self, data):
        pairs = []
        for p, low in self.LAYERS:
            lm = LayerMapping(PCycle(p), low_threshold=low, own=itself)
            deltas: list[tuple[int, int, int]] = []
            lm.on_counts_delta = lambda u, s, lo, deltas=deltas: deltas.append((u, s, lo))
            pairs.append((lm, deltas, DictMapping(p, low)))
        for kind, which, z, u, v in data.draw(_ops()):
            lm, deltas, ref = pairs[which]
            z = _vertex(z, lm.p)
            if kind == "assign_all":
                if data.draw(st.booleans()):  # empty the layer first
                    for y in sorted(ref.host):
                        lm.unassign(y)
                        ref.unassign(y)
                hosts = data.draw(st.dictionaries(st.integers(0, lm.p - 1), st.sampled_from(NODES)))
                args_lm = (array("q", [hosts.get(y, -1) for y in range(lm.p)]),)
                args_ref: tuple = (hosts,)
            elif kind == "reassign_all":
                args_lm = args_ref = (u, v)
            elif kind in ("assign", "reassign"):
                args_lm = args_ref = (z, u)
            else:
                args_lm = args_ref = (z,)
            outcomes = []
            for target, args in ((lm, args_lm), (ref, args_ref)):
                try:
                    outcomes.append(("ok", getattr(target, kind)(*args)))
                except (MappingError, VirtualGraphError) as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
            assert outcomes[0] == outcomes[1], (kind, args_ref)
            assert lm.host.tolist() == [ref.host.get(y, -1) for y in range(lm.p)]
            assert lm.active_count == len(ref.host)
            assert {w: sorted(vs) for w, vs in lm.sim.items()} == {
                w: sorted(vs) for w, vs in ref.sim.items()
            }
            assert (lm.spare, lm.low) == (ref.spare, ref.low)
            assert deltas == ref.deltas
            lm.verify()


def test_footprint_at_4096_nodes():
    """The host table and the per-node vertex arrays of a bootstrapped
    n = 4096 network (p = 16 411, load about 4) take at most 40 bytes per
    vertex by ``sys.getsizeof``: 8 for the table entry, about 24 for a
    fourth of an exactly sized ``array('i')`` (an 80-byte header plus 4
    bytes a vertex).  The ``sim`` dict, node -> array, adds about 9."""
    lm = DexNetwork.bootstrap(4096).overlay.old
    arrays = sys.getsizeof(lm.host) + sum(map(sys.getsizeof, lm.sim.values()))
    assert arrays <= 40 * lm.active_count
    assert arrays + sys.getsizeof(lm.sim) <= 50 * lm.active_count
