"""The public facade: :class:`DexNetwork`.

A :class:`DexNetwork` is a self-healing expander overlay.  The adversary
(or any caller) drives it with :meth:`insert` and :meth:`delete`, one
node per step (Section 2); the network heals itself and returns a
:class:`~repro.core.events.StepReport` with the exact communication costs
of the recovery.  Batched churn (Section 5) lives in
:mod:`repro.core.multi`; the DHT of Section 4.4.4 in :mod:`repro.dht`.

>>> from repro import DexNetwork
>>> net = DexNetwork.bootstrap(16, seed=7)
>>> report = net.insert()
>>> report.recovery.value
'type1'
>>> net.spectral_gap() > 0.01
True
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.analysis.spectral import SpectralTracker
from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.coordinator import Coordinator
from repro.core.events import StepReport
from repro.core.mapping import LayerMapping
from repro.core.overlay import Overlay
from repro.core.type1 import deletion_recovery, insertion_recovery
from repro.core.type2_staggered import StaggeredOp
from repro.errors import AdversaryError, TopologyError
from repro.net.metrics import CostLedger, MetricsLog
from repro.net.topology import DynamicMultigraph
from repro.types import NodeId, RecoveryType, StepKind, Vertex
from repro.virtual.pcycle import PCycle
from repro.virtual.primes import deflation_prime, initial_prime

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.multi import BatchOutcome
    from repro.dht.dht import DexDHT


class DexNetwork:
    """A dynamically self-healing constant-degree expander (Theorem 1)."""

    def __init__(
        self,
        overlay: Overlay,
        config: DexConfig,
        rng: random.Random,
    ) -> None:
        self.overlay = overlay
        self.config = config
        self.rng = rng
        self.coordinator = Coordinator(overlay, config)
        self.staggered: StaggeredOp | None = None
        self.step_count = 0
        self.reports: list[StepReport] = []
        self.metrics = MetricsLog()
        self._next_id = max(overlay.graph.nodes(), default=-1) + 1
        self._observers: list["DexDHT"] = []
        self._spectral = SpectralTracker()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(
        cls,
        n0: int,
        config: DexConfig | None = None,
        seed: int | None = None,
        *,
        id_base: int = 0,
    ) -> "DexNetwork":
        """Build the constant-size initial network ``G_0``: the smallest
        prime ``p0 in (4 n0, 8 n0)`` (Bertrand's postulate) and contiguous
        arcs of the p-cycle assigned to nodes ``id_base..id_base+n0-1``
        -- a balanced virtual mapping with loads in [4, 8].  ``id_base``
        offsets the bootstrap ids (and therefore every ``fresh_id`` that
        follows) so a sharded deployment can give each shard its own
        contiguous, non-overlapping id region.

        Order contract: nodes join in ascending id order and the state --
        adjacency key order included -- is the one activating the
        vertices 0 .. p0-1 one by one leaves
        (:meth:`Overlay.activate_all`); snapshots and
        ``state_fingerprint`` record that order."""
        config = config or DexConfig()
        if n0 < config.min_network_size:
            raise AdversaryError(
                f"initial size {n0} below minimum {config.min_network_size}"
            )
        if id_base < 0:
            raise AdversaryError(f"id_base must be >= 0, got {id_base}")
        rng = random.Random(seed if seed is not None else config.seed)
        p0 = initial_prime(n0)
        pcycle = PCycle(p0)
        graph = DynamicMultigraph()
        layer = LayerMapping(pcycle, config.low_threshold)
        overlay = Overlay(graph, layer)
        graph.add_nodes(range(id_base, id_base + n0))
        arcs = np.diff(np.arange(n0 + 1) * p0 // n0)  # vertices per node, in [4, 8]
        own = np.fromiter(graph.nodes(), object, n0)  # repeated, not copied
        overlay.activate_all(np.repeat(own, arcs).tolist())
        graph.topology_changes = 0  # bootstrap is free (Section 4 start)
        return cls(overlay, config, rng)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicMultigraph:
        return self.overlay.graph

    @property
    def size(self) -> int:
        return self.graph.num_nodes

    @property
    def p(self) -> int:
        return self.overlay.old.p

    @property
    def pcycle(self) -> PCycle:
        return self.overlay.old.pcycle

    def nodes(self) -> Iterator[NodeId]:
        return self.graph.nodes()

    def load_of(self, u: NodeId) -> int:
        return self.overlay.total_load(u)

    def degree_of(self, u: NodeId) -> int:
        return self.graph.degree(u)

    def loads(self) -> dict[NodeId, int]:
        return {u: self.overlay.total_load(u) for u in self.graph.nodes()}

    def max_degree(self) -> int:
        return self.graph.max_degree()

    def max_connections(self) -> int:
        return max(self.graph.connection_count(u) for u in self.graph.nodes())

    def spectral_gap(self) -> float:
        """Measured ``1 - lambda(G_t)`` of the live multigraph.  Repeated
        calls are incremental end to end: the graph patches its cached
        CSR from the dirty set and the tracker warm-starts Lanczos from
        the previous second eigenvector."""
        return self._spectral.measure(self.graph)

    def spare_count(self) -> int:
        return self.overlay.old.spare_count()

    def low_count(self) -> int:
        return self.overlay.old.low_count()

    def fresh_id(self) -> NodeId:
        while self.graph.has_node(self._next_id):
            self._next_id += 1
        return self._next_id

    def random_node(self) -> NodeId:
        """Uniform node sample from the network's own RNG; O(1) via the
        topology's live-node array."""
        return self.graph.random_node(self.rng)

    def sample_node(self, rng: random.Random) -> NodeId:
        """Uniform node sample from a caller-supplied RNG (adversaries
        keep their own randomness stream, Section 2)."""
        return self.graph.random_node(rng)

    # ------------------------------------------------------------------
    # adversarial steps
    # ------------------------------------------------------------------
    def insert(
        self, node_id: NodeId | None = None, attach_to: NodeId | None = None
    ) -> StepReport:
        """One insertion step: the adversary connects a new node to an
        existing one; the network heals (Algorithm 4.2)."""
        u = node_id if node_id is not None else self.fresh_id()
        v = attach_to if attach_to is not None else self.random_node()
        if self.graph.has_node(u):
            raise AdversaryError(f"node id {u} already in the network")
        if not self.graph.has_node(v):
            raise AdversaryError(f"attach point {v} does not exist")
        self._next_id = max(self._next_id, u + 1)
        ledger = CostLedger()
        topo_before = self.graph.topology_changes
        self.graph.add_node(u)
        self.graph.add_edge(u, v)
        recovery = insertion_recovery(self, u, v, ledger)
        # Algorithm 4.2 line 3: drop the adversary's attachment unless a
        # virtual edge requires the connection (reference counting makes
        # this exactly "remove one multiplicity unit").
        self.graph.remove_edge(u, v, 1)
        return self._finish_step(StepKind.INSERT, u, v, recovery, ledger, topo_before)

    def delete(self, node_id: NodeId) -> StepReport:
        """One deletion step (Algorithm 4.3)."""
        if not self.graph.has_node(node_id):
            raise AdversaryError(f"node {node_id} does not exist")
        if self.size - 1 < self.config.min_network_size:
            raise AdversaryError(
                f"deleting node {node_id} would shrink the network below "
                f"the minimum size {self.config.min_network_size}"
            )
        ledger = CostLedger()
        topo_before = self.graph.topology_changes
        recovery, adopter = deletion_recovery(self, node_id, ledger)
        return self._finish_step(
            StepKind.DELETE, node_id, adopter, recovery, ledger, topo_before
        )

    def insert_batch(
        self, attachments: "Sequence[tuple[NodeId, NodeId]]"
    ) -> StepReport:
        """Batched insertion step (Section 5); see
        :func:`repro.core.multi.insert_batch`."""
        from repro.core.multi import insert_batch

        return insert_batch(self, attachments)

    def delete_batch(self, nodes: "Sequence[NodeId]") -> StepReport:
        """Batched deletion step (Section 5); see
        :func:`repro.core.multi.delete_batch`."""
        from repro.core.multi import delete_batch

        return delete_batch(self, nodes)

    def insert_batch_partial(
        self, attachments: "Sequence[tuple[NodeId, NodeId]]"
    ) -> "BatchOutcome":
        """Partial-batch insertion: heal the legal subset in one wave
        and report per-entry rejections; see
        :func:`repro.core.multi.insert_batch_partial`."""
        from repro.core.multi import insert_batch_partial

        return insert_batch_partial(self, attachments)

    def delete_batch_partial(self, nodes: "Sequence[NodeId]") -> "BatchOutcome":
        """Partial-batch deletion: heal the legal victims in one wave
        and report per-victim rejections; see
        :func:`repro.core.multi.delete_batch_partial`."""
        from repro.core.multi import delete_batch_partial

        return delete_batch_partial(self, nodes)

    # ------------------------------------------------------------------
    # step plumbing
    # ------------------------------------------------------------------
    def _finish_step(
        self,
        kind: StepKind,
        node: NodeId,
        locus: NodeId,
        recovery: RecoveryType,
        ledger: CostLedger,
        topo_before: int,
        events: int = 1,
    ) -> StepReport:
        forced = False
        # Staggered op: each adversarial event's recovery advances one chunk
        # (Procedures inflate/deflate; Lemma 9 counts events) until it completes.
        if self.staggered is not None:
            op = self.staggered
            for _ in range(events):
                op.advance(ledger)
                if self.staggered is not op:
                    break
            forced = op.forced
        # Coordinator bookkeeping (Algorithm 4.7): the initiator reports
        # the step's deltas along a virtual shortest path (the counters
        # themselves are already current via the change-listener hooks).
        if self.graph.has_node(locus):
            self.coordinator.charge_update(locus, ledger)
        # Early staggered triggers.
        if self.config.type2_mode == "staggered" and self.staggered is None:
            if self.coordinator.wants_inflate():
                self.start_staggered_inflate(ledger)
            elif self.coordinator.wants_deflate() and self.can_deflate():
                self.start_staggered_deflate(ledger)

        self.step_count += 1
        ledger.topology_changes = self.graph.topology_changes - topo_before
        op = self.staggered
        report = StepReport(
            step=self.step_count,
            kind=kind,
            recovery=recovery,
            node=node,
            n_after=self.size,
            p=self.p,
            costs=ledger,
            p_next=op.p_new if op is not None else None,
            staggered_active=op is not None,
            staggered_progress=op.progress if op is not None else None,
            forced_completion=forced or (op.forced if op is not None else False),
        )
        self.reports.append(report)
        self.metrics.append(ledger)
        if self.config.validate_every_step:
            self.check_invariants()
        return report

    # ------------------------------------------------------------------
    # type-2 orchestration hooks
    # ------------------------------------------------------------------
    def can_deflate(self) -> bool:
        if self.p < 41:
            return False
        try:
            return deflation_prime(self.p) >= self.size
        except Exception:  # pragma: no cover - defensive
            return False

    def start_staggered_inflate(self, ledger: CostLedger) -> None:
        self.staggered = StaggeredOp(self, "inflate", ledger)

    def start_staggered_deflate(self, ledger: CostLedger) -> None:
        self.staggered = StaggeredOp(self, "deflate", ledger)

    def on_staggered_complete(self, op: StaggeredOp, ledger: CostLedger) -> None:
        self.staggered = None
        for observer in self._observers:
            observer.on_cycle_swapped(self, ledger)

    def on_cycle_replaced(self, pcycle: PCycle, ledger: CostLedger) -> None:
        """Called by the simplified type-2 procedures after the swap (the
        coordinator resnapshots via the overlay's primary-swap event)."""
        for observer in self._observers:
            observer.on_cycle_swapped(self, ledger)

    # ------------------------------------------------------------------
    # observers (the DHT of Section 4.4.4 subscribes here)
    # ------------------------------------------------------------------
    def attach_observer(self, observer: "DexDHT") -> None:
        self._observers.append(observer)

    def notify_chunk(self, vertices: list[Vertex], ledger: CostLedger) -> None:
        for observer in self._observers:
            observer.on_chunk_processed(self, vertices, ledger)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        invariants.check_all(self.overlay, self.config)
        if not self.coordinator.verify():
            raise TopologyError("coordinator counters diverged from ground truth")
