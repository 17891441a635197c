"""Flood/echo aggregation -- the primitive behind ``computeSpare`` and
``computeLow`` (Algorithm 4.4).

The initiating node floods a request through the whole network in a
BFS-like manner; every node contributes its local value (am I in Spare?
in Low? count 1 for the network size) and the values are aggregated back
up the BFS tree (the "echo"), reaching the initiator after at most
``2 * ecc(origin)`` rounds and O(|E|) messages.

Two implementations with identical results:

* :func:`flood_echo_engine` -- every message actually scheduled on the
  synchronous engine (used by tests and small runs),
* :func:`flood_echo_analytic` -- the same costs charged from the
  quantities the engine would measure, each read where the graph
  already holds it: ``ecc(origin)`` and the reached count from one
  level-synchronous BFS over the array adjacency
  (``DynamicMultigraph.eccentricity``, rows audited by
  ``verify_sparse_cache``), the degree sum as ``2 * num_connections``
  (audited by ``verify_caches`` / ``check_cached_aggregates``), the
  aggregate from the caller's own counters when it has them.

Both raise :class:`~repro.errors.TopologyError` on a graph the flood
cannot cover.  ``tests/test_net/test_flood.py`` asserts the two agree on
rounds, messages, the flood count and the aggregate.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TopologyError
from repro.net.engine import SyncEngine
from repro.net.message import Message
from repro.net.metrics import CostLedger
from repro.net.topology import DynamicMultigraph
from repro.types import NodeId


class _FloodProc:
    """Engine process implementing flood/echo with per-node values."""

    def __init__(
        self,
        graph: DynamicMultigraph,
        origin: NodeId,
        value_of: Callable[[NodeId], int],
    ) -> None:
        self.graph = graph
        self.origin = origin
        self.value_of = value_of
        self.parent: dict[NodeId, NodeId | None] = {}
        self.waiting: dict[NodeId, set[NodeId]] = {}
        self.partial: dict[NodeId, int] = {}
        self.result: int | None = None

    def on_round(self, node: NodeId, round_no: int, inbox: list[Message]) -> list[Message]:
        out: list[Message] = []
        for msg in inbox:
            kind = msg.kind
            if kind == "start":
                out.extend(self._adopt(node, parent=None))
            elif kind == "flood":
                if node in self.parent or node == self.origin:
                    out.append(Message.make(node, msg.src, "decline"))
                else:
                    out.extend(self._adopt(node, parent=msg.src))
            elif kind == "decline":
                self.waiting[node].discard(msg.src)
            elif kind == "echo":
                self.partial[node] += msg.get("value")
                self.waiting[node].discard(msg.src)
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown message kind {kind}")
        # Emit the echo once all children/acks are in.
        if (node in self.waiting) and not self.waiting[node]:
            parent = self.parent.get(node)
            total = self.partial[node]
            del self.waiting[node]  # emit only once
            if parent is None:
                self.result = total
            else:
                out.append(Message.make(node, parent, "echo", value=total))
        return out

    def _adopt(self, node: NodeId, parent: NodeId | None) -> list[Message]:
        self.parent[node] = parent
        self.partial[node] = self.value_of(node)
        targets = [
            v for v in self.graph.distinct_neighbors(node) if v != parent
        ]
        self.waiting[node] = set(targets)
        return [Message.make(node, v, "flood") for v in targets]


def flood_echo_engine(
    graph: DynamicMultigraph,
    origin: NodeId,
    value_of: Callable[[NodeId], int],
    ledger: CostLedger | None = None,
) -> int:
    """Run flood/echo on the engine, returning the aggregated sum."""
    proc = _FloodProc(graph, origin, value_of)
    engine = SyncEngine(graph, proc, ledger=ledger)
    engine.run([Message.make(origin, origin, "start")])
    if proc.result is None:
        raise TopologyError("flood/echo terminated without a result")
    if ledger is not None:
        ledger.floods += 1
    return proc.result


def flood_echo_analytic(
    graph: DynamicMultigraph,
    origin: NodeId,
    value_of: Callable[[NodeId], int] | int,
    ledger: CostLedger | None = None,
) -> int:
    """The same aggregate -- ``value_of`` summed over the nodes, or
    ``value_of`` itself when the caller already holds the sum -- with
    engine-equivalent costs: the flood sends one message per directed
    connection out of every node (minus the one toward the parent), each
    non-tree flood is declined (one message), and each tree edge carries
    one echo."""
    ecc = graph.eccentricity(origin)  # TopologyError unless every node is reached
    if ledger is not None:
        # flood messages: every node sends to all distinct neighbors except
        # its parent (origin has no parent): sum(deg) - (n - 1)
        tree_edges = graph.num_nodes - 1
        flood_msgs = 2 * graph.num_connections - tree_edges
        decline_msgs = flood_msgs - tree_edges  # non-tree floods get declined
        ledger.charge_flood(rounds=2 * ecc + 2, messages=flood_msgs + decline_msgs + tree_edges)
    return value_of if isinstance(value_of, int) else sum(map(value_of, graph.nodes()))
