"""Paper cost units pinned for batches in ``staggered`` mode: the twin of
``test_cost_transcript.py`` (which pins ``simplified`` batches).  A
seeded join-only script at n = 256 crosses one staggered inflation, and
a leave-only script crosses one staggered deflation.  Per step each must
charge exactly the recorded costs and end in the same state.  A batch
that meets an op in flight heals in the same waves against the op's
targets, so these scripts pin that path too.  The costs were recorded
when it replaced the one-by-one hand-over to the op, which had charged
22 375, 54 390, 61 373 and 12 665 rounds for the four deflation
batches."""

import hashlib
import random
from itertools import groupby

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.events import StepReport
from repro.errors import AdversaryError
from repro.persist.snapshot import state_fingerprint

# fmt: off
#: per step: (rounds, messages, floods, topology_changes, walks, retries)
JOIN_COSTS = [
    (5, 40, 0, 176, 32, 0), (8, 44, 0, 195, 32, 0), (8, 44, 0, 182, 32, 0),
    (5, 40, 0, 196, 32, 0), (11, 62, 0, 203, 32, 0), (13, 51, 0, 204, 32, 0),
    (20, 63, 0, 209, 33, 1), (13, 57, 0, 223, 32, 0), (29, 82, 0, 218, 33, 1),
    (28, 94, 0, 224, 32, 0), (13, 55, 0, 218, 32, 0), (32, 116, 0, 219, 33, 1),
    (41, 118, 0, 230, 33, 1), (34, 164, 0, 235, 32, 0), (55, 184, 0, 224, 33, 1),
    (50, 159, 0, 234, 33, 1), (63, 182, 0, 227, 35, 3), (114, 343, 0, 236, 37, 5),
    (58, 252, 0, 236, 35, 3), (114, 412, 0, 245, 37, 5), (69, 354, 0, 246, 35, 3),
    (88, 13087, 0, 2720, 38, 0), (16, 98, 0, 258, 32, 0), (8, 44, 0, 178, 32, 0),
    (8, 44, 0, 178, 32, 0), (9, 45, 0, 191, 32, 0),
]
#: recovery kinds, run-length encoded
JOIN_KINDS = [("type1", 21), ("type1-during-stagger", 2), ("type1", 3)]
JOIN_STATE = "f5406a151e2482b1d1af4b85923d827896d2af91e8b94450fe23cff6e2f5f86b"
LEAVE_COSTS = [
    (2, 50, 0, 157, 41, 0), (2, 49, 0, 168, 40, 0), (4, 72, 0, 193, 44, 0),
    (1, 59, 0, 201, 47, 0), (6, 67, 0, 209, 46, 0), (6, 84, 0, 230, 50, 0),
    (11, 101, 0, 245, 52, 1), (9, 120, 0, 367, 64, 0), (13, 128, 0, 297, 60, 0),
    (7, 99, 0, 260, 53, 0), (17, 187, 0, 367, 72, 1), (5, 101, 0, 323, 60, 0),
    (21, 218, 0, 430, 86, 3), (24, 218, 0, 452, 86, 5), (21, 222, 0, 378, 74, 1),
    (23, 222, 0, 389, 84, 12), (39, 447, 0, 547, 124, 18), (34, 464, 0, 573, 120, 14),
    (99, 1262, 0, 797, 209, 54), (138, 6972, 0, 625, 475, 243), (122, 13250, 0, 591, 922, 730),
    (146, 15711, 0, 590, 1206, 944), (102, 4197, 0, 488, 549, 354), (15, 149, 0, 188, 73, 0),
]
LEAVE_KINDS = [("type1", 19), ("type1-during-stagger", 5)]
LEAVE_STATE = "5b53803cad5396acfd673485e42d7cda035d2bea51fdb0759adb1ecb81d5537c"
# fmt: on


def _costs(report: StepReport) -> tuple[int, ...]:
    c = report.costs
    return (c.rounds, c.messages, c.floods, c.topology_changes, c.walks, c.retries)


def _kinds(reports: list[StepReport]) -> list[tuple[str, int]]:
    return [(k, len(list(g))) for k, g in groupby(r.recovery.value for r in reports)]


def _digest(net: DexNetwork) -> str:
    return hashlib.sha256(repr(state_fingerprint(net)).encode()).hexdigest()


def _net(seed: int) -> DexNetwork:
    return DexNetwork.bootstrap(256, DexConfig(seed=seed, type2_mode="staggered"))


def test_join_only_script_charges_the_recorded_costs():
    net, pick = _net(81), random.Random(82)
    reports = []
    primes = [net.p]
    for _ in JOIN_COSTS:
        hosts = pick.sample(sorted(net.nodes()), 32)
        base = net.fresh_id()
        reports.append(net.insert_batch([(base + i, h) for i, h in enumerate(hosts)]))
        if net.p != primes[-1]:
            primes.append(net.p)
    assert [_costs(r) for r in reports] == JOIN_COSTS
    assert _kinds(reports) == JOIN_KINDS
    assert [r.staggered_active for r in reports].count(True) == 1
    assert primes == [1031, 4127]
    assert sum(r.costs.walk_hops for r in reports) == 3040
    assert net.size == 1088
    assert _digest(net) == JOIN_STATE


def test_leave_only_script_charges_the_recorded_costs():
    net, pick = _net(83), random.Random(84)
    reports = []
    for _ in LEAVE_COSTS:
        while True:  # a random victim set may disconnect the rest: redraw
            try:
                reports.append(net.delete_batch(pick.sample(sorted(net.nodes()), 10)))
                break
            except AdversaryError:
                continue
    assert [_costs(r) for r in reports] == LEAVE_COSTS
    assert _kinds(reports) == LEAVE_KINDS
    assert [r.staggered_active for r in reports].count(True) == 4
    assert sum(r.costs.walk_hops for r in reports) == 41502
    assert (net.size, net.p) == (16, 131)
    assert _digest(net) == LEAVE_STATE
