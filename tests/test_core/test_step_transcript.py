"""Single-step paper cost units pinned: a seeded sawtooth of single
``insert`` / ``delete`` steps at n0 = 128 (staggered type-2) climbs
through one staggered inflation and falls back through one staggered
deflation.  Every step heals through sequential type-1 token walks
(``repro.net.walks.random_walk``), so this is the transcript of the
scalar walk's draw stream: per step it must charge exactly what it
charged at commit 4f9b399 -- before the walk loop was inlined -- and end
in the same state.  ``test_cost_transcript.py`` pins the batch path
(``run_wave``); this file pins the single-step path."""

import hashlib
import random
from itertools import groupby

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.events import StepReport
from repro.persist.snapshot import state_fingerprint

#: (steps, join share) per leg: up through the inflation, down through
#: the deflation
LEGS = ((700, 0.8), (800, 0.2))
#: sha256 of the per-step (rounds, messages, topology_changes, walks,
#: retries) list
COSTS = "126bda169d991c0b10638bc3a8a1a41e8c614c97a0ca5c05f255e8906f717418"
HOPS = 168083
#: recovery kinds, run-length encoded
KINDS = [
    ("type1", 592), ("type1-during-stagger", 21), ("type1", 746),
    ("type1-during-stagger", 83), ("type1", 58),
]  # fmt: skip
PRIMES = [521, 2087, 263]
FINAL_N = 50
#: ``state_fingerprint`` of the final network; its host pairs ascend by
#: vertex (the host table has no order of its own)
STATE = "4e8da395eb6b3222ff104317261c1e5fd47c8604ad29ad49ed882a2a684b4d8e"


def _costs(report: StepReport) -> tuple[int, ...]:
    c = report.costs
    return (c.rounds, c.messages, c.topology_changes, c.walks, c.retries)


def _sha(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_staggered_sawtooth_charges_the_recorded_costs():
    net = DexNetwork.bootstrap(128, DexConfig(seed=5, type2_mode="staggered"))
    pick = random.Random(6)
    reports: list[StepReport] = []
    primes = [net.p]
    for steps, join_share in LEGS:
        for _ in range(steps):
            nodes = sorted(net.nodes())
            u = nodes[pick.randrange(len(nodes))]
            join = pick.random() < join_share
            reports.append(net.insert(attach_to=u) if join else net.delete(u))
            if net.p != primes[-1]:
                primes.append(net.p)
    kinds = [(k, len(list(g))) for k, g in groupby(r.recovery.value for r in reports)]
    assert primes == PRIMES
    assert kinds == KINDS
    assert _sha([_costs(r) for r in reports]) == COSTS
    assert sum(r.costs.walk_hops for r in reports) == HOPS
    assert net.size == FINAL_N
    assert _sha(state_fingerprint(net)) == STATE
