"""Local routing along the virtual p-cycle, and congestion-scheduled
permutation routing.

Every node knows the complete topology of the *virtual* graph (it is a
pure function of the prime p), so it can compute shortest paths locally
and forward messages hop-by-hop (Fact 1: virtual distances only shrink
under the mapping).  The paper uses this for coordinator updates
(Algorithm 4.7), the DHT (Section 4.4.4), and permutation routing for
inverse edges in type-2 recovery (Corollary 7.7.3 of [28], for which we
substitute shortest-path store-and-forward with per-edge congestion:
substitution 2 of ``docs/substitutions.md``).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.types import NodeId, Vertex
from repro.virtual.pcycle import PCycle


def route_cost(
    pcycle: PCycle,
    host_of: Callable[[Vertex], NodeId],
    src_vertex: Vertex,
    dst_vertex: Vertex,
) -> int:
    """Real hops to route a message from the host of ``src_vertex`` to
    the host of ``dst_vertex`` along the virtual shortest path.

    Consecutive path vertices hosted at the same real node cost nothing
    (the contraction can only shorten paths, Fact 1).
    """
    path = pcycle.shortest_path(src_vertex, dst_vertex)
    hops = 0
    for a, b in zip(path, path[1:]):
        if host_of(a) != host_of(b):
            hops += 1
    return hops


def route_real_path(
    pcycle: PCycle,
    host_of: Callable[[Vertex], NodeId],
    src_vertex: Vertex,
    dst_vertex: Vertex,
) -> list[NodeId]:
    """The sequence of distinct real nodes the message visits."""
    path = pcycle.shortest_path(src_vertex, dst_vertex)
    real: list[NodeId] = []
    for z in path:
        node = host_of(z)
        if not real or real[-1] != node:
            real.append(node)
    return real


def permutation_routing(
    pcycle: PCycle,
    packets: Sequence[tuple[Vertex, Vertex]],
    rng: random.Random | None = None,
) -> tuple[int, int]:
    """Route all ``(src, dst)`` packets simultaneously on the virtual
    graph with at most one packet per virtual edge per direction per
    round (store-and-forward, farthest-remaining-first priority).

    Returns ``(rounds, messages)``.  On the 3-regular expander family the
    measured rounds are polylogarithmic, standing in for Corollary 7.7.3
    of [28] (substitution 2 of ``docs/substitutions.md``).
    """
    paths = [pcycle.shortest_path(s, d) for s, d in packets]
    progress = [0] * len(packets)  # index into each path
    total_messages = 0
    rounds = 0
    pending = {i for i, path in enumerate(paths) if len(path) > 1}
    order_rng = rng if rng is not None else random.Random(0)
    while pending:
        rounds += 1
        used: set[tuple[Vertex, Vertex]] = set()
        # Farthest-remaining-first reduces maximum queueing delay.
        order = sorted(
            pending, key=lambda i: len(paths[i]) - progress[i], reverse=True
        )
        moved_any = False
        for i in order:
            path = paths[i]
            here = path[progress[i]]
            nxt = path[progress[i] + 1]
            if (here, nxt) in used:
                continue
            used.add((here, nxt))
            progress[i] += 1
            total_messages += 1
            moved_any = True
            if progress[i] == len(path) - 1:
                pending.discard(i)
        if not moved_any:  # pragma: no cover - cannot happen: disjoint heads
            order_rng.shuffle(order)
            raise AssertionError("permutation routing deadlocked")
    return rounds, total_messages
