"""Common surface for maintained overlays (DEX and every baseline).

Each overlay supports single-node insert/delete steps and reports the
communication costs the paper's Table 1 compares: recovery rounds,
messages, and topology changes per step, plus measurable structure
(degree, spectral gap).

Overlays *may* additionally implement the Section 5 batch surface with
partial outcomes (:class:`PartialBatchOverlay`): ``insert_batch_partial``
/ ``delete_batch_partial`` heal a whole adversarial batch in one step.
The campaign driver (:func:`repro.harness.runner.run_campaign`) probes
for it with :func:`supports_partial_batch` and heals per step for
overlays that only speak the single-node protocol -- every scenario in
the registry runs against every baseline either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import scipy.sparse as sp

from repro.analysis.spectral import spectral_gap
from repro.types import NodeId


@dataclass(frozen=True)
class OverlaySnapshot:
    """Structure measurements at one instant."""

    n: int
    max_degree: int
    spectral_gap: float

    def row(self) -> str:
        return (
            f"n={self.n:<6d} max_degree={self.max_degree:<4d} "
            f"gap={self.spectral_gap:7.4f}"
        )


class MaintainedOverlay(Protocol):
    """What the churn harness drives."""

    name: str

    @property
    def size(self) -> int: ...

    def nodes(self) -> Iterable[NodeId]: ...

    def insert(self, node_id: NodeId | None = None, attach_to: NodeId | None = None): ...

    def delete(self, node_id: NodeId): ...

    def adjacency(self) -> sp.spmatrix: ...

    def max_degree(self) -> int: ...

    def fresh_id(self) -> NodeId: ...


class PartialBatchOverlay(MaintainedOverlay, Protocol):
    """The optional Section 5 extension, whole-batch healing with
    partial outcomes: validation partitions a batch into legal actions
    (healed in one wave) and per-action rejections, so one illegal
    victim does not reject the whole batch.  DEX implements it via
    :mod:`repro.core.multi`; the campaign driver probes for it with
    :func:`supports_partial_batch` and takes the single-pass path when
    it holds.  The membership-service gateway builds on the same
    surface -- it binds :class:`~repro.core.dex.DexNetwork` directly and
    turns each rejection into an individual client outcome."""

    def insert_batch_partial(
        self, attachments: Sequence[tuple[NodeId, NodeId]]
    ): ...

    def delete_batch_partial(self, nodes: Sequence[NodeId]): ...


def supports_partial_batch(overlay) -> bool:
    """Whether ``overlay`` reports partial-batch outcomes
    (:class:`PartialBatchOverlay`; duck-typed: protocols are not
    runtime-checkable over non-method members)."""
    return callable(getattr(overlay, "insert_batch_partial", None)) and callable(
        getattr(overlay, "delete_batch_partial", None)
    )


def snapshot(overlay: MaintainedOverlay) -> OverlaySnapshot:
    adjacency = overlay.adjacency()
    return OverlaySnapshot(
        n=overlay.size,
        max_degree=overlay.max_degree(),
        spectral_gap=spectral_gap(adjacency),
    )
