"""Distributed-network substrate: the dynamic real-network multigraph,
cost accounting, and the synchronous CONGEST message-passing engine with
its communication primitives (flood/echo aggregation, random-walk tokens,
congestion-scheduled routing).
"""

from repro.net.topology import DynamicMultigraph
from repro.net.metrics import CostLedger
from repro.net.message import Message
from repro.net.engine import SyncEngine, NodeProc
from repro.net.walks import WalkResult, random_walk
from repro.net.flood import flood_echo_engine, flood_echo_analytic
from repro.net.routing import route_cost, permutation_routing

__all__ = [
    "DynamicMultigraph",
    "CostLedger",
    "Message",
    "SyncEngine",
    "NodeProc",
    "WalkResult",
    "random_walk",
    "flood_echo_engine",
    "flood_echo_analytic",
    "route_cost",
    "permutation_routing",
]
