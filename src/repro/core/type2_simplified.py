"""Simplified type-2 recovery (Algorithms 4.5 and 4.6).

The whole virtual graph is replaced within a single step:

* **Inflation** (``simplifiedInfl``): every old vertex is replaced by its
  cloud in the next p-cycle ``Z(p')`` with ``p' in (4p, 8p)`` (Phase 1:
  flood the request, compute clouds, establish cycle edges locally and
  inverse edges by permutation routing), then nodes carrying more than
  ``4*zeta`` new vertices rebalance by random walks *on the new virtual
  graph* in epochs, with walk collisions resolved per Algorithm 4.5
  (Phase 2).
* **Deflation** (``simplifiedDefl``): each old vertex maps to
  ``floor(x/alpha)``; the *dominating* (smallest) old vertex of each
  deflation cloud keeps the new vertex.  Nodes left without any new
  vertex mark themselves *contending* and walk on the new virtual graph
  for a non-``taken`` vertex (Phase 2), guaranteeing surjectivity.

Costs per Lemma 5: O(n) topology changes, O(n log^2 n) messages and
O(log^3 n) rounds w.h.p. -- expensive, but separated by Omega(n) type-1
steps (Lemma 8), giving the amortized bounds of Corollary 1.

Implementation note: both phases mutate a host *plan* (an ``array('q')``
host table over the new cycle, gathered from the old layer's table) and the
overlay is rebuilt once via :meth:`Overlay.replace_primary`, so the real
network never materializes an unbalanced intermediate state; the charged
costs are those of the distributed procedure (see module docstrings of
:mod:`repro.net.flood` and :mod:`repro.net.routing` for fidelity modes).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import RecoveryError
from repro.net.metrics import CostLedger
from repro.net.routing import permutation_routing
from repro.types import NodeId, Vertex
from repro.virtual.pcycle import PCycle
from repro.virtual.primes import deflation_prime, inflation_prime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dex import DexNetwork

_MAX_EPOCHS_FACTOR = 12
_ROUTING_SAMPLE = 48


def _charge_broadcast(dex: "DexNetwork", origin: NodeId, ledger: CostLedger) -> None:
    """Flooding the inflation/deflation request to every node."""
    graph = dex.graph
    ledger.charge_flood(rounds=graph.eccentricity(origin) + 1, messages=2 * graph.num_connections)


def _charge_inverse_edges(
    dex: "DexNetwork",
    old_pcycle: PCycle,
    packets: list[tuple[Vertex, Vertex]],
    ledger: CostLedger,
) -> None:
    """Cost of establishing the chord (inverse) edges of the new cycle by
    routing on the old cycle (stand-in for Cor. 7.7.3 of [28]).

    ``engine`` fidelity schedules the full permutation; ``analytic``
    samples path lengths and extrapolates (substitution 2 of
    ``docs/substitutions.md``).
    """
    if not packets:
        return
    if dex.config.fidelity == "engine":
        rounds, msgs = permutation_routing(old_pcycle, packets, rng=dex.rng)
        ledger.charge_parallel(rounds=rounds, messages=msgs)
        return
    sample = packets
    if len(packets) > _ROUTING_SAMPLE:
        idx = sorted(dex.rng.sample(range(len(packets)), _ROUTING_SAMPLE))
        sample = [packets[i] for i in idx]
    lengths = old_pcycle.distances(*zip(*sample)).tolist()
    mean_len = sum(lengths) / len(lengths)
    max_len = max(lengths)
    congestion = math.ceil(math.log2(max(old_pcycle.p, 2))) ** 2
    ledger.charge_parallel(
        rounds=max_len + congestion,
        messages=round(mean_len * len(packets)),
    )


def _chord_packets(pcycle_new: PCycle, sources: np.ndarray) -> list[tuple[Vertex, Vertex]]:
    """One routing packet per chord edge of the new cycle, addressed
    between the old vertices (``sources``) whose hosts take the
    endpoints."""
    a, b = (ends[pcycle_new.p :] for ends in pcycle_new.edge_arrays())
    chord = a != b  # each chord once, self-loops skipped
    return list(zip(sources[a[chord]].tolist(), sources[b[chord]].tolist()))


# ----------------------------------------------------------------------
# Phase-2 epoch engine (shared by inflation and deflation)
# ----------------------------------------------------------------------
def _virtual_epoch_walks(
    dex: "DexNetwork",
    pcycle_new: PCycle,
    hosts: array[int],
    per_node: dict[NodeId, list[Vertex]],
    tokens: list[NodeId],
    accept: "callable",
    ledger: CostLedger,
) -> list[tuple[NodeId, Vertex] | None]:
    """One epoch: every token walks once on the new virtual graph
    (simulated on the real network with constant overhead).  Collisions
    -- two tokens landing on the same vertex -- eliminate all but the
    first (Algorithm 4.5 line 14 / 4.6 line 12).  Returns per-token
    ``(owner, landing_vertex)`` for the winners, None for the losers."""
    length = dex.config.walk_length(max(dex.size, pcycle_new.p))
    landings: list[tuple[int, NodeId, Vertex]] = []
    for i, owner in enumerate(tokens):
        start_options = per_node.get(owner)
        if start_options:
            at = start_options[dex.rng.randrange(len(start_options))]
        else:
            at = dex.rng.randrange(pcycle_new.p)
        hops = 0
        for _ in range(length):
            options = pcycle_new.neighbor_multiset(at)
            nxt = options[dex.rng.randrange(3)]
            if hosts[nxt] != hosts[at]:
                hops += 1
            at = nxt
        ledger.messages += hops
        landings.append((i, owner, at))
    ledger.rounds += length  # tokens advance in parallel, one hop per round
    results: list[tuple[NodeId, Vertex] | None] = [None] * len(tokens)
    claimed: set[Vertex] = set()
    for i, owner, vertex in landings:
        if vertex in claimed:
            continue  # simultaneous arrival: nobody wins this vertex twice
        if accept(owner, vertex):
            claimed.add(vertex)
            results[i] = (owner, vertex)
    return results


# ----------------------------------------------------------------------
# simplifiedInfl (Algorithm 4.5)
# ----------------------------------------------------------------------
def simplified_inflate(
    dex: "DexNetwork",
    ledger: CostLedger,
    pending: "Sequence[tuple[NodeId, NodeId]]" = (),
) -> None:
    """Replace the cycle with the next p-cycle (Algorithm 4.5).

    ``pending`` lists freshly inserted nodes still waiting for their
    first vertex as ``(node, attach point)`` pairs -- a single step's
    one insertion, or every unhealed insertion of a batch, so the one
    inflation heals them all (Section 5 applies Corollary 2's accounting
    to the whole batch)."""
    config = dex.config
    old = dex.overlay.old
    p_old = old.p
    p_new = inflation_prime(p_old)
    pcycle_new = PCycle(p_new)
    origin = pending[0][1] if pending else dex.coordinator.node

    # ---- Phase 1: everyone computes the same new p-cycle ----
    _charge_broadcast(dex, origin, ledger)
    parents = np.arange(p_new) * p_old // p_new  # Eq. 7 inverted: y's cloud is its parent's
    hosts = _plan(old.host_view(), parents)
    # Cycle edges come from old cycle adjacency: O(1) rounds, one message
    # per new vertex.
    ledger.charge_parallel(rounds=2, messages=p_new)
    _charge_inverse_edges(dex, old.pcycle, _chord_packets(pcycle_new, parents), ledger)
    per_node: dict[NodeId, list[Vertex]] = defaultdict(list)
    for y, w in enumerate(hosts):
        per_node[w].append(y)

    # Line 6: each freshly inserted node receives one newly generated
    # vertex from its attach point (or, should repeated donations drain
    # the attach point, from the currently fullest node -- every old
    # vertex spawned a >= 4-vertex cloud, so a donor always exists).
    for node, donor in pending:
        if len(per_node.get(donor, ())) < 2:
            donor = max(per_node, key=lambda w: len(per_node[w]))
        donated = _take_vertex_from(per_node, donor)
        hosts[donated] = node
        per_node[node].append(donated)
        ledger.charge_route(1)

    # ---- Phase 2: rebalance loads above 4*zeta ----
    loads = Counter(hosts)
    full: set[NodeId] = {w for w, load in loads.items() if load > config.low_threshold}

    def excess_tokens() -> list[NodeId]:
        tokens: list[NodeId] = []
        for w, load in loads.items():
            tokens.extend([w] * max(0, load - config.max_load))
        return tokens

    def accept(owner: NodeId, vertex: Vertex) -> bool:
        w = hosts[vertex]
        return w != owner and w not in full

    max_epochs = _MAX_EPOCHS_FACTOR * max(
        1, math.ceil(math.log2(max(dex.size, 2)))
    )
    epoch = 0
    tokens = excess_tokens()
    while tokens:
        epoch += 1
        if epoch > max_epochs:
            _force_place(hosts, per_node, loads, tokens, config.max_load)
            ledger.retries += len(tokens)
            break
        outcomes = _virtual_epoch_walks(
            dex, pcycle_new, hosts, per_node, tokens, accept, ledger
        )
        for outcome in outcomes:
            if outcome is None:
                continue
            owner, _vertex = outcome
            target = hosts[_vertex]
            moved = _pop_vertex(per_node, owner)
            hosts[moved] = target
            per_node[target].append(moved)
            loads[owner] -= 1
            loads[target] += 1
            if loads[target] > config.low_threshold:
                full.add(target)
        tokens = excess_tokens()

    dex.overlay.replace_primary(pcycle_new, hosts)
    dex.on_cycle_replaced(pcycle_new, ledger)


# ----------------------------------------------------------------------
# simplifiedDefl (Algorithm 4.6)
# ----------------------------------------------------------------------
def simplified_deflate(dex: "DexNetwork", ledger: CostLedger) -> None:
    config = dex.config
    old = dex.overlay.old
    p_old = old.p
    p_new = deflation_prime(p_old)
    if p_new < dex.size:
        raise RecoveryError(
            f"deflation target p={p_new} smaller than network size {dex.size}"
        )
    pcycle_new = PCycle(p_new)
    origin = dex.coordinator.node

    # ---- Phase 1 ----
    _charge_broadcast(dex, origin, ledger)
    dominating = -(np.arange(p_new) * -p_old // p_new)  # ceil(y * alpha), Section 4.4.2
    hosts = _plan(old.host_view(), dominating)
    ledger.charge_parallel(rounds=2, messages=p_new)
    _charge_inverse_edges(dex, old.pcycle, _chord_packets(pcycle_new, dominating), ledger)

    # ---- Phase 2: ensure surjectivity ----
    per_node: dict[NodeId, list[Vertex]] = defaultdict(list)
    for y, w in enumerate(hosts):
        per_node[w].append(y)
    taken: set[Vertex] = set()
    for w, vertices in per_node.items():
        taken.add(min(vertices))  # each node reserves one vertex (line 9)
    contending = sorted(
        u for u in dex.graph.nodes() if not per_node.get(u)
    )

    def accept(owner: NodeId, vertex: Vertex) -> bool:
        return vertex not in taken

    max_epochs = _MAX_EPOCHS_FACTOR * max(1, math.ceil(math.log2(max(dex.size, 2))))
    epoch = 0
    while contending:
        epoch += 1
        if epoch > max_epochs:
            _force_claim(hosts, per_node, taken, contending)
            ledger.retries += len(contending)
            break
        outcomes = _virtual_epoch_walks(
            dex, pcycle_new, hosts, per_node, list(contending), accept, ledger
        )
        resolved: set[NodeId] = set()
        for outcome in outcomes:
            if outcome is None:
                continue
            owner, vertex = outcome
            previous = hosts[vertex]
            per_node[previous].remove(vertex)
            hosts[vertex] = owner
            per_node[owner].append(vertex)
            taken.add(vertex)
            resolved.add(owner)
        contending = [u for u in contending if u not in resolved]

    dex.overlay.replace_primary(pcycle_new, hosts)
    dex.on_cycle_replaced(pcycle_new, ledger)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _plan(old_hosts: np.ndarray, sources: np.ndarray) -> array[int]:
    """The host plan of the new cycle: new vertex ``y`` starts at the host
    of old vertex ``sources[y]``."""
    return array("q", old_hosts[sources].tobytes())


def _take_vertex_from(per_node: dict[NodeId, list[Vertex]], donor: NodeId) -> Vertex:
    """The donor's largest vertex (its list ascends), so vertex 0 leaves
    its host only when nothing else is left."""
    if not per_node.get(donor):
        raise RecoveryError(f"attach node {donor} has no vertex to donate")
    return per_node[donor].pop()


def _pop_vertex(per_node: dict[NodeId, list[Vertex]], owner: NodeId) -> Vertex:
    vertices = per_node[owner]
    vertices.sort()
    # keep vertex 0 at its host when possible (coordinator continuity)
    if len(vertices) > 1 and vertices[0] == 0:
        return vertices.pop(1)
    return vertices.pop()


def _force_place(
    hosts: array[int],
    per_node: dict[NodeId, list[Vertex]],
    loads: Counter,
    tokens: list[NodeId],
    max_load: int,
) -> None:
    """Deterministic fallback if the epoch budget runs out (never taken on
    healthy configurations; keeps long benchmark runs robust)."""
    targets = sorted(loads, key=lambda w: loads[w])
    ti = 0
    for owner in tokens:
        while loads[targets[ti]] >= max_load:
            ti = (ti + 1) % len(targets)
        target = targets[ti]
        moved = _pop_vertex(per_node, owner)
        hosts[moved] = target
        per_node[target].append(moved)
        loads[owner] -= 1
        loads[target] += 1


def _force_claim(
    hosts: array[int],
    per_node: dict[NodeId, list[Vertex]],
    taken: set[Vertex],
    contending: list[NodeId],
) -> None:
    free = [y for y in range(len(hosts)) if y not in taken]
    for owner, vertex in zip(contending, free):
        previous = hosts[vertex]
        per_node[previous].remove(vertex)
        hosts[vertex] = owner
        per_node[owner].append(vertex)
        taken.add(vertex)
