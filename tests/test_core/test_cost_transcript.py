"""Paper cost units pinned: seeded join-only and leave-only batch
scripts at n = 256 (simplified type-2), each crossing a type-2 and
flooding ``computeSpare`` / ``computeLow``, must charge per step exactly
what they charged at commit 3c96a47 -- before the analytic flood read
its quantities from the array adjacency and the cached counters -- and
end in the same state.  A change here is an *algorithmic* change (or an
RNG draw added or removed), whatever the wall clock says."""

import hashlib
import random

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.events import StepReport
from repro.errors import AdversaryError
from repro.persist.snapshot import state_fingerprint

# fmt: off
#: per step: (rounds, messages, floods, topology_changes, walks, retries)
JOIN_COSTS = [
    (6, 41, 0, 185, 32, 0), (7, 42, 0, 191, 32, 0), (9, 46, 0, 185, 32, 0),
    (17, 58, 0, 194, 32, 0), (12, 52, 0, 203, 32, 0), (44, 3085, 1, 208, 33, 1),
    (42, 3160, 1, 215, 33, 1), (34, 3248, 1, 213, 33, 1), (32, 3262, 1, 212, 34, 2),
    (60, 3397, 1, 210, 33, 1), (41, 3467, 1, 220, 33, 1), (41, 3501, 1, 203, 33, 1),
    (59, 3636, 1, 222, 33, 1), (62, 3715, 1, 224, 34, 2), (36, 197, 0, 235, 32, 0),
    (64, 3960, 1, 225, 34, 2), (66, 4036, 1, 234, 33, 1), (81, 4034, 1, 238, 34, 2),
    (146, 8219, 2, 240, 39, 7), (193, 12365, 3, 238, 42, 10), (94, 4350, 1, 239, 34, 2),
    (194, 13025, 3, 247, 49, 17), (452, 26810, 6, 244, 80, 48), (289, 35622, 3, 4743, 53, 21),
    (8, 48, 0, 188, 32, 0), (7, 47, 0, 178, 32, 0),
]
JOIN_TYPE2_STEP = 23
JOIN_STATE = "32109e66bb050429c0fc4aac3b7e849ecee8e27d6d2f6e2c1519f0668deeec22"
LEAVE_COSTS = [
    (1, 44, 0, 153, 40, 0), (3, 58, 0, 146, 41, 0), (1, 50, 0, 155, 42, 0),
    (6, 88, 0, 188, 46, 0), (2, 61, 0, 200, 48, 0), (9, 92, 0, 208, 48, 0),
    (6, 103, 0, 232, 46, 0), (7, 118, 0, 268, 51, 0), (6, 89, 0, 226, 51, 0),
    (5, 90, 0, 284, 57, 0), (6, 141, 0, 332, 65, 0), (18, 3000, 1, 396, 77, 2),
    (18, 3065, 1, 430, 70, 1), (21, 3197, 1, 513, 88, 1), (19, 3213, 1, 375, 80, 9),
    (27, 3488, 1, 655, 133, 16), (27, 3605, 1, 560, 121, 10), (37, 6971, 2, 583, 142, 27),
    (75, 11234, 3, 771, 224, 71), (214, 11321, 3, 1471, 259, 100),
]
LEAVE_TYPE2_STEP = 19
LEAVE_STATE = "a8a117d512bc2258d1a8b865fb2bfdfbd457d892a95eb0594ad959fbd928ab78"
# fmt: on


def _costs(report: StepReport) -> tuple[int, ...]:
    c = report.costs
    return (c.rounds, c.messages, c.floods, c.topology_changes, c.walks, c.retries)


def _digest(net: DexNetwork) -> str:
    return hashlib.sha256(repr(state_fingerprint(net)).encode()).hexdigest()


def _net(seed: int) -> DexNetwork:
    return DexNetwork.bootstrap(256, DexConfig(seed=seed, type2_mode="simplified"))


def test_join_only_script_charges_the_recorded_costs():
    net, pick = _net(71), random.Random(72)
    reports = []
    for _ in JOIN_COSTS:
        hosts = pick.sample(sorted(net.nodes()), 32)
        base = net.fresh_id()
        reports.append(net.insert_batch([(base + i, h) for i, h in enumerate(hosts)]))
    assert [_costs(r) for r in reports] == JOIN_COSTS
    assert [r.recovery.value for r in reports].index("type2-inflate") == JOIN_TYPE2_STEP
    assert sum(r.costs.floods for r in reports) == 30
    assert (net.size, net.p) == (1088, 4127)
    assert _digest(net) == JOIN_STATE


def test_leave_only_script_charges_the_recorded_costs():
    net, pick = _net(73), random.Random(74)
    reports = []
    for _ in LEAVE_COSTS:
        while True:  # a random victim set may disconnect the rest: redraw
            try:
                reports.append(net.delete_batch(pick.sample(sorted(net.nodes()), 10)))
                break
            except AdversaryError:
                continue
    assert [_costs(r) for r in reports] == LEAVE_COSTS
    assert [r.recovery.value for r in reports].index("type2-deflate") == LEAVE_TYPE2_STEP
    assert sum(r.costs.floods for r in reports) == 14
    assert (net.size, net.p) == (56, 131)
    assert _digest(net) == LEAVE_STATE
