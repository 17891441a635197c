"""EXP-E4 -- Corollary 1: with the simplified type-2 procedures the
*amortized* per-step costs are O(log n) rounds and O(log^2 n) messages
(type-2 steps cost O(n log^2 n) but happen every Omega(n) steps).
"""

from __future__ import annotations

import math

import pytest

from benchmarks._util import emit
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.harness import Table
from repro.types import RecoveryType

SIZES = [64, 128, 256]


def amortized_run(n0: int, seed: int):
    """Insert until at least one inflation has been amortized over a full
    Omega(n) window (runs ~9x the bootstrap capacity)."""
    net = DexNetwork.bootstrap(n0, DexConfig(seed=seed, type2_mode="simplified"))
    type2 = 0
    steps = 9 * n0
    for _ in range(steps):
        if net.insert().recovery is RecoveryType.TYPE2_INFLATE:
            type2 += 1
    rounds = sum(r.rounds for r in net.reports) / len(net.reports)
    msgs = sum(r.messages for r in net.reports) / len(net.reports)
    worst_msgs = max(r.messages for r in net.reports)
    return net, type2, rounds, msgs, worst_msgs


@pytest.fixture(scope="module")
def amortized_rows():
    return [(n0, *amortized_run(n0, seed=9)) for n0 in SIZES]


def test_corollary1_amortized(benchmark, request, amortized_rows):
    table = Table(
        "Corollary 1: amortized costs over 9*n insertion steps "
        "(simplified type-2)",
        [
            "n0",
            "type-2 count",
            "amortized rounds",
            "amortized msgs",
            "worst-step msgs",
            "amort msgs / log^2 n",
        ],
    )
    for n0, net, type2, rounds, msgs, worst in amortized_rows:
        log2n = math.log2(net.size) ** 2
        table.add_row(
            n0, type2, round(rounds, 1), round(msgs, 1), worst, round(msgs / log2n, 2)
        )
    table.add_note(
        "paper: amortized O(log n) rounds / O(log^2 n) messages; the worst "
        "step (the inflation itself) pays O(n log^2 n)"
    )
    emit(request, table)

    for n0, net, type2, rounds, msgs, worst in amortized_rows:
        assert type2 >= 1
        log_n = math.log2(net.size)
        assert rounds <= 20 * log_n  # amortized O(log n)
        assert msgs <= 30 * log_n**2  # amortized O(log^2 n)
        assert worst > msgs  # the spike exists but is amortized away

    benchmark(lambda: amortized_run(64, seed=10))
