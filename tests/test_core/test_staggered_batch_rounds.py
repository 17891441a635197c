"""A batch that meets a staggered op heals in the same token waves as
any other batch (Section 5, Corollary 2: O(log^3 n) rounds per batch
step), so it costs about what the batches around it cost.

A seeded join schedule and a leave-only script (the one
``test_staggered_cost_transcript.py`` pins) run with the invariants
checked after every batch.  On each, the worst batch that meets an op
costs at most 4x the worst batch that does not.  A batch meets an op
when one is in flight before or after it, or when it healed during one
(an op can start and complete inside a large batch).  While such a
batch healed its leftovers one token walk at a time, with one
coordinator route per event, the leave script read 61 373 rounds
against 99 and the join schedule 529 against 96."""

import random
from typing import Callable

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.events import StepReport
from repro.errors import AdversaryError
from repro.types import RecoveryType

#: the worst batch meeting an op may cost this many times the worst other
MAX_RATIO = 4


def _assert_meeting_batches_cost_like_the_rest(
    net: DexNetwork, batch: Callable[[], StepReport], batches: int
) -> None:
    meeting, other = [], []
    for _ in range(batches):
        before = net.staggered is not None
        report = batch()
        net.check_invariants()
        met = (
            before
            or report.staggered_active
            or report.recovery is RecoveryType.TYPE1_DURING_STAGGER
        )
        (meeting if met else other).append(report.costs.rounds)
    assert meeting and other
    assert max(meeting) <= MAX_RATIO * max(other), (meeting, max(other))


def test_join_batches_meeting_an_op_cost_like_the_rest():
    net = DexNetwork.bootstrap(256, DexConfig(seed=7, type2_mode="staggered"))
    pick = random.Random(8)

    def joins() -> StepReport:
        hosts = pick.sample(sorted(net.nodes()), 64)
        base = net.fresh_id()
        return net.insert_batch([(base + i, h) for i, h in enumerate(hosts)])

    _assert_meeting_batches_cost_like_the_rest(net, joins, 20)


def test_leave_batches_meeting_an_op_cost_like_the_rest():
    net = DexNetwork.bootstrap(256, DexConfig(seed=83, type2_mode="staggered"))
    pick = random.Random(84)

    def leaves() -> StepReport:
        while True:  # a random victim set may disconnect the rest: redraw
            try:
                return net.delete_batch(pick.sample(sorted(net.nodes()), 10))
            except AdversaryError:
                continue

    _assert_meeting_batches_cost_like_the_rest(net, leaves, 24)
