"""``computeSpare`` / ``computeLow`` (Algorithm 4.4).

When a type-1 walk fails, the initiator deterministically learns the
network size and the size of Spare (resp. Low) by a flood/echo
aggregation before deciding between retrying and type-2 recovery.  One
flood aggregates both counters (two O(log n)-bit fields per message,
within the CONGEST budget).

Fidelity follows :attr:`DexConfig.fidelity`: ``engine`` schedules every
message on the synchronous engine and sums a per-node value; ``analytic``
charges the identical costs (``net/flood.py`` says from where) and reads
the aggregate the flood would return from what the simulator already
holds -- n is ``graph.num_nodes``, |Spare| / |Low| the size of the
layer's ``spare`` / ``low`` set, i.e. ``spare_count()`` / ``low_count()``
(audited by ``LayerMapping.verify`` and I8, ``Coordinator.verify``).
The equivalence is asserted by ``tests/test_net/test_flood.py`` and
``tests/test_core/test_engine_fidelity.py``.
"""

from __future__ import annotations

from typing import Collection

from repro.core.config import DexConfig
from repro.core.overlay import Overlay
from repro.net.flood import flood_echo_analytic, flood_echo_engine
from repro.net.metrics import CostLedger
from repro.types import NodeId


def _aggregate(
    overlay: Overlay,
    origin: NodeId,
    config: DexConfig,
    ledger: CostLedger,
    members: Collection[NodeId],
) -> tuple[int, int]:
    # Two counters packed in one flood: n in the high part, membership
    # in the low part (the engine carries them as one payload value;
    # a real implementation sends two O(log n)-bit fields).
    graph = overlay.graph
    if config.fidelity == "engine":
        packed = flood_echo_engine(
            graph, origin, lambda u: (1 << 32) | (1 if u in members else 0), ledger=ledger
        )
    else:
        packed = flood_echo_analytic(
            graph, origin, (graph.num_nodes << 32) | len(members), ledger=ledger
        )
    return packed >> 32, packed & 0xFFFFFFFF


def compute_spare(
    overlay: Overlay, origin: NodeId, config: DexConfig, ledger: CostLedger
) -> tuple[int, int]:
    """Returns ``(n, |Spare|)`` for the primary layer."""
    return _aggregate(overlay, origin, config, ledger, overlay.old.spare)


def compute_low(
    overlay: Overlay, origin: NodeId, config: DexConfig, ledger: CostLedger
) -> tuple[int, int]:
    """Returns ``(n, |Low|)`` for the primary layer."""
    return _aggregate(overlay, origin, config, ledger, overlay.old.low)
