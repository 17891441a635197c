"""The vectorized lockstep wave engine vs. the scalar reference inside
the *full* batch healing engine (PR 3).

Both engines implement one draw protocol, so two networks driven by the
same seed and the same adversarial schedule -- one healing every wave on
the vector engine, one on the scalar reference -- must stay *identical*
step for step: same node set, same adjacency, same vertex hosting, same
Spare/Low sets, same ledger costs.  This is the differential test behind
the engine-equivalence invariant; a transcript divergence anywhere in
200 mixed batches fails loudly at the first diverging round.

``run_wave``'s ``"auto"`` choice (vector from ``VECTOR_MIN_TOKENS``
tokens on) is what the engine runs; each batch here forces one engine
by setting that threshold to 0 (always vector) or past any wave (always
scalar) for the duration of its step.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.multi import delete_batch, insert_batch
from repro.errors import AdversaryError
from repro.net import walks

#: ``VECTOR_MIN_TOKENS`` that makes ``run_wave(engine="auto")`` pick each engine
THRESHOLD = {"vector": 0, "scalar": sys.maxsize}


def engine_net(n0: int = 24, seed: int = 61) -> DexNetwork:
    config = DexConfig(seed=seed, type2_mode="simplified", validate_every_step=False)
    return DexNetwork.bootstrap(n0, config, seed=seed)


@contextmanager
def forced_engine(engine: str) -> Iterator[None]:
    """Every wave of the steps inside runs on ``engine``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "VECTOR_MIN_TOKENS", THRESHOLD[engine])
        yield


def assert_networks_identical(a: DexNetwork, b: DexNetwork, step: int) -> None:
    assert a.size == b.size, f"sizes diverged at step {step}"
    assert a.p == b.p, f"cycle primes diverged at step {step}"
    assert sorted(a.nodes()) == sorted(b.nodes()), f"node sets diverged at step {step}"
    assert a.overlay.old.host == b.overlay.old.host, (
        f"vertex hosting diverged at step {step}"
    )
    assert a.overlay.old.spare == b.overlay.old.spare, (
        f"Spare sets diverged at step {step}"
    )
    assert a.overlay.old.low == b.overlay.old.low, f"Low sets diverged at step {step}"
    for u in a.nodes():
        assert dict(a.graph._adj[u]) == dict(b.graph._adj[u]), (
            f"adjacency diverged at node {u}, step {step}"
        )


def drive_same_schedule(vec: DexNetwork, sca: DexNetwork, steps: int) -> None:
    """One adversary rng per network (identical seeds) so engine-side
    draws can never skew the schedule."""
    rng_v, rng_s = random.Random(17), random.Random(17)
    for step in range(steps):
        grow = (step % 4 != 3) if vec.size < 120 else (step % 2 == 0)
        size = 2 + (step % 7)
        if grow:
            pairs_v = _insert_batch_for(vec, rng_v, size)
            pairs_s = _insert_batch_for(sca, rng_s, size)
            assert pairs_v == pairs_s
            with forced_engine("vector"):
                rv = insert_batch(vec, pairs_v)
            with forced_engine("scalar"):
                rs = insert_batch(sca, pairs_s)
        else:
            size = min(size, vec.size - vec.config.min_network_size)
            if size < 1:
                continue
            victims_v = _victims_for(vec, rng_v, size)
            victims_s = _victims_for(sca, rng_s, size)
            assert victims_v == victims_s
            try:
                with forced_engine("vector"):
                    rv = delete_batch(vec, victims_v)
            except AdversaryError:
                # Model-level rejection is schedule-side, not engine-side:
                # the scalar twin must reject the identical batch.
                try:
                    with forced_engine("scalar"):
                        delete_batch(sca, victims_s)
                except AdversaryError:
                    continue
                raise AssertionError(
                    f"engines disagreed on batch rejection at step {step}"
                )
            with forced_engine("scalar"):
                rs = delete_batch(sca, victims_s)
        assert rv.recovery == rs.recovery, f"recovery kinds diverged at step {step}"
        assert rv.rounds == rs.rounds, f"wave rounds diverged at step {step}"
        assert rv.costs.messages == rs.costs.messages, (
            f"message costs diverged at step {step}"
        )
        assert_networks_identical(vec, sca, step)


def _insert_batch_for(net: DexNetwork, rng: random.Random, size: int):
    per_host: dict[int, int] = {}
    pairs = []
    base = net.fresh_id()
    for i in range(size):
        host = net.sample_node(rng)
        while per_host.get(host, 0) >= 4:
            host = net.sample_node(rng)
        per_host[host] = per_host.get(host, 0) + 1
        pairs.append((base + i, host))
    return pairs


def _victims_for(net: DexNetwork, rng: random.Random, size: int) -> list[int]:
    victims: set[int] = set()
    while len(victims) < size:
        victims.add(net.sample_node(rng))
    return sorted(victims)


class TestEngineDifferential:
    def test_200_mixed_batches_transcript_equal(self):
        """200 mixed insert/delete batches: the vector-healed network
        must be indistinguishable from the scalar-healed one after every
        single batch (crossing type-2 inflations and deflations)."""
        vec = engine_net()
        sca = engine_net()
        drive_same_schedule(vec, sca, steps=200)
        # both ends are also internally consistent
        invariants.check_all(vec.overlay, vec.config)
        invariants.check_all(sca.overlay, sca.config)

    def test_wave_oracle_catches_protocol_drift(self):
        """The invariant oracle itself: run it on a healthy network (it
        must pass) -- drift between the engines is simulated by the unit
        fuzz in tests/test_net/test_walks.py, so here we only prove the
        oracle is wired and runs."""
        net = engine_net()
        invariants.check_wave_engine_equivalence(net.overlay)
