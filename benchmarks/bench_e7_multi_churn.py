"""EXP-E7 -- Section 5 / Corollary 2: batched churn of up to eps*n nodes
per step heals in O(n log^2 n) messages and O(log^3 n) rounds per batch
step: with the simplified type-2 procedures, and with staggered ones on
join batches that meet an op in flight -- the regime where the round
bound is at risk, since the op also advances one chunk per event.
"""

from __future__ import annotations

import math
import random

import pytest

from benchmarks._util import emit
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.multi import delete_batch, insert_batch
from repro.harness import Table
from repro.types import RecoveryType

N0 = 128
EPS = 0.10
BATCHES = 14


@pytest.fixture(scope="module")
def batch_run():
    net = DexNetwork.bootstrap(N0, DexConfig(seed=15, type2_mode="simplified"))
    reports = []
    for i in range(BATCHES):
        size = max(2, int(EPS * net.size))
        if i % 3 == 2:
            victims = sorted(net.nodes())[-size:]
            reports.append(("delete", net.size, delete_batch(net, victims)))
        else:
            hosts = sorted(net.nodes())
            pairs = [
                (net.fresh_id() + j, hosts[j % len(hosts)]) for j in range(size)
            ]
            reports.append(("insert", net.size, insert_batch(net, pairs)))
    net.check_invariants()
    return net, reports


def test_corollary2_batches(benchmark, request, batch_run):
    net, reports = batch_run
    table = Table(
        f"Corollary 2: batched churn (eps={EPS}, {BATCHES} batches, n0={N0})",
        ["batch", "kind", "n before", "rounds", "messages", "msgs / (n log^2 n)"],
    )
    for i, (kind, n_before, report) in enumerate(reports):
        norm = n_before * math.log2(max(n_before, 2)) ** 2
        table.add_row(
            i, kind, n_before, report.rounds, report.messages,
            round(report.messages / norm, 3),
        )
    table.add_note(
        "paper: O(n log^2 n) messages and O(log^3 n) rounds per batch step w.h.p."
    )
    emit(request, table)

    for kind, n_before, report in reports:
        log_n = math.log2(max(n_before, 2))
        assert report.messages <= 12 * n_before * log_n**2
        assert report.rounds <= 20 * log_n**3

    net2 = DexNetwork.bootstrap(64, DexConfig(seed=16, type2_mode="simplified"))

    def one_batch():
        hosts = sorted(net2.nodes())
        pairs = [(net2.fresh_id() + j, hosts[j]) for j in range(4)]
        insert_batch(net2, pairs)

    benchmark(one_batch)


#: the staggered run: join batches of STAGGERED_B attached to uniform live
#: nodes from STAGGERED_N0, through a staggered inflation that spans
#: several batches (it advances one chunk of ceil(1/theta) per join)
STAGGERED_N0 = 1024
STAGGERED_B = 64
STAGGERED_BATCHES = 48


def test_corollary2_staggered_batches_meeting_an_op(request):
    net = DexNetwork.bootstrap(STAGGERED_N0, DexConfig(seed=7, type2_mode="staggered"))
    pick = random.Random(7)
    table = Table(
        f"Corollary 2, staggered: join batches of {STAGGERED_B} from n0={STAGGERED_N0}",
        ["batch", "n after", "meets op", "rounds", "log2^3 n", "messages / join"],
    )
    meeting = []
    for i in range(STAGGERED_BATCHES):
        before = net.staggered is not None
        hosts = pick.sample(sorted(net.nodes()), STAGGERED_B)
        base = net.fresh_id()
        report = insert_batch(net, [(base + j, h) for j, h in enumerate(hosts)])
        met = (
            before
            or report.staggered_active
            or report.recovery is RecoveryType.TYPE1_DURING_STAGGER
        )
        bound = math.log2(net.size) ** 3
        table.add_row(
            i, net.size, "yes" if met else "", report.rounds, round(bound),
            round(report.messages / STAGGERED_B, 1),
        )
        if met:
            meeting.append((report.rounds, bound))
    net.check_invariants()
    table.add_note("paper: O(log^3 n) rounds per batch step w.h.p., an op in flight or not")
    emit(request, table)

    assert meeting
    assert all(rounds <= bound for rounds, bound in meeting)
