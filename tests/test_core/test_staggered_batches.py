"""Staggered type-2 recovery under the batch API: the two known defects,
pinned as repros before any fix.

1. A batch of B events advances an in-flight staggered op by one chunk
   (``DexNetwork._finish_step`` calls ``advance`` once per step), so a
   stream of join batches drains Spare faster than the op restores it
   and an insertion exhausts its type-1 retries.
2. ``core.multi``'s delete path calls
   ``dex.staggered.redistribute_after_deletion`` once per adopter; one
   call can force-complete the op and reset ``dex.staggered`` to
   ``None``, and the next adopter dereferences it.

Both are strict xfails: the PR that fixes a defect must remove its
marker, and a change that makes one pass by accident fails here."""

import random

import pytest

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import RecoveryError


@pytest.mark.xfail(strict=True, raises=RecoveryError)
@pytest.mark.parametrize("seed", [1, 2])
def test_join_batches_outrun_the_staggered_inflation(seed: int) -> None:
    # raises at batch 30 (n = 4096 before it) on both seeds
    net = DexNetwork.bootstrap(256, DexConfig(seed=seed, type2_mode="staggered"))
    for b in range(40):
        hosts = random.Random(seed * 1000 + b).sample(sorted(net.nodes()), 128)
        base = net.fresh_id()
        net.insert_batch_partial([(base + i, h) for i, h in enumerate(hosts)])
    net.check_invariants()


@pytest.mark.xfail(strict=True, raises=AttributeError)
@pytest.mark.parametrize("seed", [1, 8])
def test_leave_batches_survive_a_completed_staggered_op(seed: int) -> None:
    # raises at batch 15 on both seeds
    net = DexNetwork.bootstrap(512, DexConfig(seed=seed, type2_mode="staggered"))
    b = 0
    while net.size > 8:
        victims = list(net.nodes())
        random.Random(seed * 1000 + b).shuffle(victims)
        net.delete_batch_partial(victims[:32])
        b += 1
    net.check_invariants()
