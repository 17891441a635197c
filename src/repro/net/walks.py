"""Random-walk primitives.

Type-1 recovery (Algorithms 4.2/4.3) finds spare capacity by forwarding a
token along a random walk of length O(log n); Phase 2 of the type-2
procedures walks on the *virtual* graph, simulated on the real network
with constant overhead (each virtual hop crosses one real edge because
virtual neighbors are hosted at real neighbors).

Walk steps are weighted by edge multiplicity (the walk of Lemma 2 is on
the multigraph ``G'_t`` whose stationary distribution is
``pi(x) = d_x / 2|E|``); self-loop weight makes the token stay put for a
step.  :func:`run_wave` schedules many tokens simultaneously with the
one-token-per-edge-per-direction congestion rule of Lemma 11 (the batch
healing engine of :mod:`repro.core.multi` runs its recovery walks
through it; an empty member set makes it a plain fixed-length wave).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Container, Sequence

from repro.errors import TopologyError
from repro.obs import trace as _trace
from repro.net.topology import DynamicMultigraph
from repro.types import NodeId

try:  # the lockstep wave engine is numpy; the scalar reference is not
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: below this many tokens ``engine="auto"`` runs the scalar reference:
#: a vector round costs about as much as 50 scalar hops whatever it
#: moves, so on long walks the engines cross near 128 tokens, and on the
#: one- or two-hop walks of a Spare-rich network the scalar loop wins
#: at any size measured (to 2048 tokens).  Purely a performance knob:
#: both engines implement the same draw protocol, so the choice never
#: changes results.
VECTOR_MIN_TOKENS = 256


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a single token walk."""

    end: NodeId
    hops: int
    found: bool


def _weighted_step(
    graph: DynamicMultigraph,
    at: NodeId,
    rng: random.Random,
    excluded: frozenset[NodeId],
) -> NodeId | None:
    """One weighted hop that never steps onto an ``excluded`` node: an
    O(degree) filtered scan of the cached CDF (``None``: nowhere to go)."""
    neighbors, cumulative, _ = graph.neighbor_cdf(at)
    acc = 0
    options: list[tuple[NodeId, int]] = []
    prev = 0
    for v, cum in zip(neighbors, cumulative):
        m = cum - prev
        prev = cum
        if v not in excluded:
            acc += m
            options.append((v, acc))
    if not options:
        return None
    pick = rng.randrange(acc)
    for v, cum in options:
        if pick < cum:
            return v
    raise AssertionError("unreachable")  # pragma: no cover


def random_walk(
    graph: DynamicMultigraph,
    start: NodeId,
    length: int,
    rng: random.Random,
    stop: Callable[[NodeId], bool] | None = None,
    excluded: frozenset[NodeId] = frozenset(),
) -> WalkResult:
    """Forward a token for at most ``length`` hops from ``start``.

    The walk stops early (``found=True``) when ``stop`` holds at a visited
    node *after* at least one hop, mirroring Algorithm 4.2 where the token
    is generated at the initiator and examined at each receiving node.
    ``excluded`` nodes are never stepped onto (Algorithm 4.2 excludes the
    freshly inserted node); a token with nowhere to go stays put.

    Draw protocol: per hop one integer, drawn exactly as
    ``rng.randrange(total)`` draws it, bisected into the node's cached
    cumulative multiplicities.  Exclusions matter only at a node with an
    excluded neighbor (adjacency is symmetric), where the hop is
    :func:`_weighted_step`'s filtered scan; anywhere else that scan keeps
    every weight and picks what the bisect picks from the same integer.
    """
    if length < 0:
        raise TopologyError(f"walk length must be non-negative, got {length}")
    # neighbor_cdf's cache read inline: the graph is frozen for the walk
    cache_get, version = graph._cdf_cache.get, graph._version
    getrandbits = rng.getrandbits
    near = {w for x in excluded for w in graph._adj.get(x, ())}
    at = start
    for hop in range(1, length + 1):
        if at in near:
            nxt = _weighted_step(graph, at, rng, excluded)
            if nxt is None:
                return WalkResult(at, hop - 1, False)
        else:
            entry = cache_get(at)
            if entry is not None and entry[0] == version[at]:
                _, neighbors, cumulative, total = entry
            else:
                neighbors, cumulative, total = graph.neighbor_cdf(at)
            if total == 0:
                return WalkResult(at, hop - 1, False)
            # CPython's Random._randbelow_with_getrandbits(total), which
            # randrange(total) calls, copied; test_walks pins the copy
            k = total.bit_length()
            r = getrandbits(k)
            while r >= total:
                r = getrandbits(k)
            nxt = neighbors[bisect_right(cumulative, r)]
        at = nxt
        if stop is not None and stop(at):
            return WalkResult(at, hop, True)
    return WalkResult(at, length, stop is None)


def _filtered_redraw(
    graph: DynamicMultigraph,
    at: NodeId,
    avoid: NodeId,
    random_unit: Callable[[], float],
) -> NodeId | None:
    """Exact conditional redraw over the support excluding ``avoid``
    (consumes one uniform iff a non-excluded neighbor exists).  Shared
    verbatim by both wave engines so rng consumption stays identical."""
    neighbors, cumulative, total = graph.neighbor_cdf(at)
    acc = 0
    options: list[tuple[NodeId, int]] = []
    prev = 0
    for v, cum in zip(neighbors, cumulative):
        m = cum - prev
        prev = cum
        if v != avoid:
            acc += m
            options.append((v, acc))
    if not options:
        return None  # every neighbor excluded: token is stuck
    pick = int(random_unit() * acc)
    for v, cum in options:
        if pick < cum:
            return v
    raise AssertionError("unreachable")  # pragma: no cover


def _wave_scalar(
    graph: DynamicMultigraph,
    starts: Sequence[NodeId],
    length: int,
    members: "Container[NodeId]",
    active: list[int],
    gen: "np.random.Generator | None",
    rng: random.Random,
    excl: list[NodeId | None],
    transcript: list | None,
) -> tuple[list[NodeId], list[bool], int, int]:
    """Scalar reference implementation of the wave protocol (see
    :func:`run_wave`); also the fallback when numpy is absent."""
    k = len(starts)
    positions = list(starts)
    remaining = [length] * k
    founds = [False] * k
    total_hops = 0
    rounds = 0
    neighbor_cdf = graph.neighbor_cdf
    random_unit = gen.random if gen is not None else rng.random
    # Claimed directed edges as (from, to) tuples: ids are unbounded
    # Python ints (a sharded partition bases its region at i * 2^40),
    # so any fixed-width bit packing would truncate and alias distinct
    # edges.
    used: set[tuple[NodeId, NodeId]] = set()
    used_add = used.add
    # Wave-local CDF memo: the topology is frozen for the wave's whole
    # lifetime (resolution happens after the wave returns), so the
    # version-stamp revalidation inside ``neighbor_cdf`` -- two dict
    # lookups plus a stamp compare per hop -- is paid once per *visited
    # node*, not once per hop.  Bounded by O(visited nodes x degree)
    # array entries, dropped with the wave.
    cdf_memo: dict[NodeId, tuple[list[NodeId], list[int], int]] = {}
    memo_get = cdf_memo.get
    while active:
        rounds += 1
        used.clear()
        # This round's uniform block, consumed in active order.
        if gen is not None:
            block = gen.random(len(active)).tolist()
        else:  # pragma: no cover - numpy-free fallback
            block = [random_unit() for _ in active]
        # The protocol's three passes (block proposals, ordered redraws,
        # ordered edge claims) fuse into one loop: the block is drawn up
        # front and redraws/claims both resolve in active order, so the
        # fused loop consumes the identical uniform stream and resolves
        # the identical claims -- the engine-equivalence oracle checks
        # this against the vector engine after every audited churn step.
        write = 0
        for slot, idx in enumerate(active):
            at = positions[idx]
            entry = memo_get(at)
            if entry is None:
                cdf_memo[at] = entry = neighbor_cdf(at)
            neighbors, cumulative, total = entry
            if total == 0:
                continue  # stuck: the token stays put and leaves the wave
            nxt = neighbors[bisect_right(cumulative, int(block[slot] * total))]
            avoid = excl[idx]
            if avoid is not None and nxt == avoid:
                # Conditional redraw on an excluded-node hit
                # (probability m_u/total, so the O(degree) scan is rare).
                nxt = _filtered_redraw(graph, at, avoid, random_unit)
                if nxt is None:
                    continue  # every neighbor excluded: token is stuck
            if nxt != at:
                key = (at, nxt)
                if key in used:
                    active[write] = idx  # blocked: retry next round
                    write += 1
                    continue
                used_add(key)
            positions[idx] = nxt
            total_hops += 1
            if nxt in members:
                founds[idx] = True
                continue
            remaining[idx] -= 1
            if remaining[idx] > 0:
                active[write] = idx
                write += 1
        del active[write:]
        if transcript is not None:
            transcript.append((tuple(positions), tuple(sorted(used))))
        if rounds > 1000 * max(1, length):  # pragma: no cover - safety
            raise TopologyError("parallel walks failed to complete")
    return positions, founds, total_hops, rounds


def _wave_vector(
    graph: DynamicMultigraph,
    starts: Sequence[NodeId],
    length: int,
    members: "Container[NodeId]",
    active_list: list[int],
    gen: "np.random.Generator",
    rng: random.Random,
    excl: list[NodeId | None],
    transcript: list | None,
) -> tuple[list[NodeId], list[bool], int, int]:
    """Lockstep numpy implementation of the wave protocol: all active
    tokens advance per round as vectorized operations over the graph's
    array adjacency (:meth:`DynamicMultigraph.csr_wave_view`), whose
    stale rows are re-emitted as tokens reach them.  Positions are row
    *slots*; ids reappear only in the results.

    A proposed hop is a *directed-edge slot* -- the pool index the
    weighted draw lands on -- so the Lemma 11 one-token-per-directed-edge
    rule resolves sort-free: a reversed fancy assignment into a
    per-slot claims array leaves each slot holding its *first* claimant
    in active order, and every later claimant blocks.  (No per-round
    reset is needed: a round writes each slot it reads.)"""
    k = len(starts)
    rows = graph.csr_wave_view()
    slot_of, ids = rows.slot_of, rows.ids
    pos = np.asarray([slot_of[s] for s in starts], dtype=np.int64)
    excl_pos = np.asarray(
        [-1 if avoid is None else slot_of.get(avoid, -1) for avoid in excl],
        dtype=np.int64,
    )
    any_excl = bool((excl_pos >= 0).any())
    is_member = members.__contains__
    remaining = np.full(k, length, dtype=np.int64)
    founds = np.zeros(k, dtype=bool)
    total_hops = 0
    rounds = 0
    active = np.asarray(active_list, dtype=np.int64)
    random_unit = gen.random
    #: claims array, one cell per directed-edge slot; written before
    #: read within each round, so it needs no initialization or reset
    first_claim = np.empty(0, dtype=np.int64)
    while active.size:
        rounds += 1
        m = active.size
        at = pos[active]
        # Rows are read only where tokens stand; a refresh may move rows
        # or grow the pool, so the arrays are looked up afresh each round.
        rows.refresh(at)
        rstart, rlen, rtot, nbr, cum = rows.start, rows.len, rows.tot, rows.nbr, rows.cum
        if first_claim.size < rows.tail:
            first_claim = np.empty(rows.tail, dtype=np.int64)
        # Pass 1: this round's uniform block, then every token's
        # weighted proposal in one batched draw -- int(u * total)
        # truncation, then the number of the row's cumulative sums that
        # do not exceed it (the row is neighbor_cdf's cumulative array,
        # so this is the scalar engine's bisect_right and the same
        # uniform maps to the same neighbor).
        u = gen.random(m)
        np.multiply(u, rtot[at], out=u)
        np.floor(u, out=u)
        owner = np.repeat(np.arange(m), rlen[at])
        below = cum[rows.span(at)] <= u[owner]
        j = rstart[at] + np.bincount(owner[below], minlength=m)
        # A token on an empty row (or, below, with every neighbour
        # excluded) is stuck: it stays put and leaves the wave.  A DEX
        # node never is empty (degree = 3 * load >= 3), but the raw
        # multigraph API allows it.
        stuck = rtot[at] == 0.0
        j[stuck] = 0
        # (an empty pool -- every token on an empty row -- has no slot 0)
        nxt = nbr[j] if nbr.size else at
        # Pass 2: conditional redraws, in active order (rare).
        if any_excl:
            hit_mask = (nxt == excl_pos[active]) & ~stuck
            for slot in np.nonzero(hit_mask)[0].tolist():
                here = int(at[slot])
                res = _filtered_redraw(
                    graph, int(ids[here]), excl[int(active[slot])], random_unit
                )
                if res is None:
                    stuck[slot] = True
                else:
                    lo = int(rstart[here])
                    row = nbr[lo : lo + int(rlen[here])]
                    nxt[slot] = slot_of[res]
                    j[slot] = lo + int(np.flatnonzero(row == nxt[slot])[0])
        # Pass 3: sort-free edge claims -- first token in active order
        # wins each directed-edge slot; losers block and retry.
        moved = ~stuck
        claim_sel = np.nonzero((nxt != at) & moved)[0]
        jcl = j[claim_sel]
        first_claim[jcl[::-1]] = claim_sel[::-1]
        win = first_claim[jcl] == claim_sel
        blocked_slots = claim_sel[~win]
        moved[blocked_slots] = False
        moved_tokens = active[moved]
        new_pos = nxt[moved]
        pos[moved_tokens] = new_pos
        total_hops += int(moved_tokens.size)
        found_now = np.fromiter(
            map(is_member, ids[new_pos].tolist()), dtype=bool, count=new_pos.size
        )
        founds[moved_tokens[found_now]] = True
        walk_mask = moved.copy()
        walk_mask[moved] = ~found_now
        walk_tokens = moved_tokens[~found_now]
        remaining[walk_tokens] -= 1
        keep = np.zeros(m, dtype=bool)
        keep[blocked_slots] = True
        keep[walk_mask] = remaining[walk_tokens] > 0
        active = active[keep]
        if transcript is not None:
            winners = claim_sel[win]
            transcript.append((
                tuple(ids[pos].tolist()),
                tuple(sorted(
                    zip(ids[at[winners]].tolist(), ids[nxt[winners]].tolist())
                )),
            ))
        if rounds > 1000 * max(1, length):  # pragma: no cover - safety
            raise TopologyError("parallel walks failed to complete")
    return ids[pos].tolist(), founds.tolist(), total_hops, rounds


def run_wave(
    graph: DynamicMultigraph,
    starts: Sequence[NodeId],
    length: int,
    members: "Container[NodeId]",
    rng: random.Random,
    excluded: Sequence[NodeId | None] | None = None,
    engine: str = "auto",
    transcript: list | None = None,
) -> tuple[list[NodeId], list[bool], int, int]:
    """Specialized congestion-scheduled wave for the batch healing
    engine: every token seeks a node of the ``members`` set (Spare or
    Low), optionally never stepping onto its single excluded node (the
    freshly inserted node of Algorithm 4.2).  Returns
    ``(ends, founds, total_hops, rounds)``: a token stops
    (``found``) the first time it reaches a member after at least one
    hop, exactly like :func:`random_walk` with
    ``stop = members.__contains__``; a token blocked on a congested
    edge retries in the following round.

    Two engines implement one *draw protocol*, so for a fixed rng state
    they produce bit-identical results and the choice is purely a
    performance knob:

    * ``"scalar"`` -- the per-token reference loop (and the fallback
      when numpy is absent); the differential-test oracle.
    * ``"vector"`` -- the lockstep numpy engine: all active tokens of a
      round advance as vectorized operations on the graph's array
      adjacency (batched weighted draws against the row-local cumulative
      multiplicities), with the Lemma 11 one-token-per-directed-edge
      rule enforced via vectorized edge-claim arrays.
    * ``"auto"`` -- vector for waves of at least ``VECTOR_MIN_TOKENS``
      tokens (it re-emits only the stale rows its tokens visit, so
      neither graph size nor earlier churn enters); scalar otherwise.

    Randomness: the wave's order is shuffled once with the caller's
    ``rng``, which then seeds a dedicated PCG64 stream; each round both
    engines consume one *block* of uniforms from that stream (in active
    order), then per-token redraws.  The protocol per round: (1) every
    active token, in the wave's fixed shuffled order, takes its block
    uniform and proposes a weighted hop; (2) tokens whose proposal hit
    their excluded node redraw from the filtered support, in the same
    order; (3) directed-edge claims resolve in order (first claimant
    wins, losers block and retry next round), winners move, members
    stop, exhausted tokens leave.  ``transcript``, when a list,
    receives one ``(positions, claimed_edges)`` tuple per round -- the
    equality witness for the engine-equivalence oracle and differential
    tests.
    """
    if engine not in ("auto", "vector", "scalar"):
        raise TopologyError(f"unknown wave engine {engine!r}")
    # Validate starts before dispatch so both engines reject a dead
    # start identically (the scalar loop would otherwise only notice in
    # round 1, which never runs for length=0 waves).
    for s in starts:
        if not graph.has_node(s):
            raise TopologyError(f"node {s} does not exist")
    excl = list(excluded) if excluded is not None else [None] * len(starts)
    if engine == "vector" and not HAVE_NUMPY:  # pragma: no cover - gated env
        raise TopologyError("wave engine 'vector' requires numpy")
    active = [i for i in range(len(starts)) if length > 0]
    rng.shuffle(active)
    gen = (
        np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
        if HAVE_NUMPY
        else None
    )
    use_vector = engine == "vector" or (
        engine == "auto"
        and HAVE_NUMPY
        and len(starts) >= VECTOR_MIN_TOKENS
    )
    args = (graph, starts, length, members, active, gen, rng, excl, transcript)
    if not _trace.current().enabled:
        return _wave_vector(*args) if use_vector else _wave_scalar(*args)
    with _trace.span(
        "net.wave",
        engine="vector" if use_vector else "scalar",
        tokens=len(starts),
        length=length,
    ) as sp:
        result = _wave_vector(*args) if use_vector else _wave_scalar(*args)
        sp.set(hops=result[2], rounds=result[3])
        return result
