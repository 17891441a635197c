"""Staggered type-2 recovery under the batch API: the two defects that
once broke it, kept as regression tests.

1. A batch of B events must advance an in-flight staggered op by B
   chunks (Lemma 9 counts adversarial events); at one chunk per step a
   stream of join batches drained Spare faster than the op restored it
   and an insertion exhausted its type-1 retries.
2. ``core.multi``'s delete path calls
   ``dex.staggered.redistribute_after_deletion`` once per adopter; one
   call can force-complete the op and reset ``dex.staggered`` to
   ``None``, so every call re-reads it.

One defect is still open, pinned as a strict xfail: a batch of joins a
third the network's size, landing while a staggered inflation is in
flight, exhausts an insertion's type-1 retries; the simplified mode
heals the same batches."""

import random

import pytest

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import RecoveryError


@pytest.mark.parametrize("seed", [1, 2])
def test_join_batches_outrun_the_staggered_inflation(seed: int) -> None:
    # raised RecoveryError at batch 30 (n = 4096 before it) on both seeds
    # while a batch advanced the op by one chunk
    net = DexNetwork.bootstrap(256, DexConfig(seed=seed, type2_mode="staggered"))
    for b in range(40):
        hosts = random.Random(seed * 1000 + b).sample(sorted(net.nodes()), 128)
        base = net.fresh_id()
        net.insert_batch_partial([(base + i, h) for i, h in enumerate(hosts)])
    net.check_invariants()


@pytest.mark.parametrize("seed", [1, 8])
def test_leave_batches_survive_a_completed_staggered_op(seed: int) -> None:
    # raised AttributeError at batch 15 on both seeds while the leftover
    # loop dereferenced a completed op
    net = DexNetwork.bootstrap(512, DexConfig(seed=seed, type2_mode="staggered"))
    b = 0
    while net.size > 8:
        victims = list(net.nodes())
        random.Random(seed * 1000 + b).shuffle(victims)
        net.delete_batch_partial(victims[:32])
        b += 1
    net.check_invariants()


@pytest.mark.parametrize(
    "mode",
    [
        pytest.param(
            "staggered",
            marks=pytest.mark.xfail(
                strict=True,
                raises=RecoveryError,
                reason="a join batch of n/3 outruns the in-flight staggered op",
            ),
        ),
        "simplified",
    ],
)
def test_third_of_n_join_batches_heal_in_both_modes(mode: str) -> None:
    # Shrunk from a mixed random script (seed 2002: join batches of up
    # to n/3 and leave batches of up to n/4 from n0 in {48, 96, 192},
    # which raised at step 21, n = 2475).  Join batches alone do it: staggered raises
    # RecoveryError on the fifth batch (n = 3234, an op in flight) for
    # every seed tried, simplified heals all five.
    rng = random.Random(0)
    net = DexNetwork.bootstrap(768, DexConfig(seed=0, type2_mode=mode))
    for _ in range(5):
        nodes = sorted(net.nodes())
        base = net.fresh_id()
        net.insert_batch_partial([(base + i, rng.choice(nodes)) for i in range(len(nodes) // 3)])
        net.check_invariants()
