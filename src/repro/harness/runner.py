"""Churn experiment runners.

``run_churn(overlay, adversary, steps)`` applies the adversary's actions
one step at a time, records the per-step cost ledgers, and samples
structure snapshots (spectral gap, max degree) every ``sample_every``
steps -- the raw series behind every benchmark table.

``run_campaign(overlay, adversary, events)`` is the batch-aware driver:
the adversary emits whole Section 5 batches (native ``next_batch``, or
any single-action strategy through
:func:`repro.adversary.base.as_batch_adversary`), and each same-kind run
heals through the overlay's batch engine when it has one.  Overlays
with **partial-batch outcomes**
(:meth:`~repro.core.dex.DexNetwork.insert_batch_partial` /
:meth:`~repro.core.dex.DexNetwork.delete_batch_partial`) take the
single-pass path: one engine call heals the legal majority of the run
and reports each illegal action individually (counted in
``CampaignResult.fallbacks``); overlays without the partial forms (every
baseline) heal per step throughout.  Both drivers end a scripted
run cleanly when the trace raises
:class:`~repro.errors.TraceExhausted`, reporting the steps actually
executed, and always sample the terminal state -- even when the final
action was skipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.adversary.base import Adversary, ChurnAction, as_batch_adversary
from repro.analysis.spectral import spectral_gap
from repro.analysis.stats import Summary, summarize
from repro.baselines.interface import supports_partial_batch
from repro.errors import AdversaryError, TraceExhausted
from repro.net.metrics import CostLedger


@dataclass
class ChurnResult:
    """Everything measured during one churn run."""

    name: str
    steps: int
    ledgers: list[CostLedger] = field(default_factory=list)
    gap_samples: list[tuple[int, float]] = field(default_factory=list)
    degree_samples: list[tuple[int, int]] = field(default_factory=list)
    size_samples: list[tuple[int, int]] = field(default_factory=list)
    message_samples: list[tuple[int, int]] = field(default_factory=list)
    skipped_actions: int = 0
    #: wall-clock seconds spent inside the overlay's heal calls (the
    #: adversary's decision making and the samplers are not healing)
    heal_s: float = 0.0

    def cost_summary(self, attribute: str) -> Summary:
        return summarize([getattr(ledger, attribute) for ledger in self.ledgers])

    @property
    def min_gap(self) -> float:
        return min((g for _, g in self.gap_samples), default=float("nan"))

    @property
    def max_degree_seen(self) -> int:
        return max((d for _, d in self.degree_samples), default=0)

    def final_gap(self) -> float:
        return self.gap_samples[-1][1] if self.gap_samples else float("nan")

    def heal_per_event_ms(self) -> float:
        return self.heal_s / max(self.steps, 1) * 1e3

    def messages_total(self) -> int:
        return sum(ledger.messages for ledger in self.ledgers)


@dataclass
class CampaignResult(ChurnResult):
    """A :class:`ChurnResult` healed batch-at-a-time.  ``steps`` counts
    churn *events* (individual joins/leaves); ``ledgers`` holds one
    entry per heal call, so a batch of 64 insertions contributes one
    ledger covering all 64."""

    batches: int = 0
    #: events healed through a true batch call (vs. per-step healing)
    batched_events: int = 0
    #: individual actions the engine rejected: the per-victim/per-entry
    #: rejections reported by the partial-batch path.  Every one is also
    #: counted in ``skipped_actions`` -- the driver-agnostic
    #: rejected-action total that batched and sequential campaigns must
    #: agree on.
    fallbacks: int = 0


def _ledger_of(report_or_ledger) -> CostLedger:
    if isinstance(report_or_ledger, CostLedger):
        return report_or_ledger
    return report_or_ledger.costs  # a DEX StepReport


class _Sampler:
    """Shared snapshot logic: spectral gap, max degree, live size and
    cumulative message cost at a given event index."""

    def __init__(self, overlay, result: ChurnResult):
        self.overlay = overlay
        self.result = result

    def __call__(self, step: int) -> None:
        overlay, result = self.overlay, self.result
        adjacency = overlay.adjacency() if hasattr(overlay, "adjacency") else None
        if adjacency is not None:
            gap = spectral_gap(adjacency)
        elif hasattr(overlay, "spectral_gap"):
            # DEX networks carry a warm-started tracker; repeated samples
            # reuse the previous Lanczos eigenvector.
            gap = overlay.spectral_gap()
        else:
            # CSR assembled from the array adjacency (memoized per sync).
            _, adjacency = overlay.graph.to_sparse_adjacency()
            gap = spectral_gap(adjacency)
        result.gap_samples.append((step, gap))
        result.degree_samples.append((step, overlay.max_degree()))
        result.size_samples.append((step, overlay.size))
        result.message_samples.append((step, result.messages_total()))

    def last_step(self) -> int:
        return self.result.gap_samples[-1][0] if self.result.gap_samples else -1


def run_churn(
    overlay,
    adversary: Adversary,
    steps: int,
    sample_every: int = 50,
    name: str | None = None,
) -> ChurnResult:
    """Drive ``steps`` adversarial actions against ``overlay``, one
    healed step at a time."""
    result = ChurnResult(name=name or getattr(overlay, "name", "dex"), steps=steps)
    sample = _Sampler(overlay, result)

    sample(0)
    executed = 0
    for step in range(1, steps + 1):
        try:
            action: ChurnAction = adversary.next_action(overlay)
        except TraceExhausted:
            # A scripted adversary ran dry: end cleanly with the steps
            # actually executed (the terminal sample happens below).
            result.steps = executed
            break
        executed = step
        t0 = time.perf_counter()
        try:
            if action.kind == "insert":
                out = overlay.insert(node_id=action.node, attach_to=action.attach_to)
            elif action.kind == "delete":
                out = overlay.delete(action.node)
            else:
                raise AdversaryError(f"unknown action kind {action.kind!r}")
        except AdversaryError:
            result.skipped_actions += 1
        else:
            result.ledgers.append(_ledger_of(out))
        finally:
            result.heal_s += time.perf_counter() - t0
        # Sampling is unconditional on the boundary: a skipped action
        # still advances the run, and dropping the ``step == steps``
        # sample used to leave ``final_gap()`` stale.
        if step % sample_every == 0 or step == steps:
            sample(step)
    if sample.last_step() != result.steps:
        sample(result.steps)
    return result


def run_campaign(
    overlay,
    adversary,
    events: int,
    max_batch: int = 64,
    sample_every: int = 256,
    name: str | None = None,
) -> CampaignResult:
    """Drive up to ``events`` churn events against ``overlay`` in
    adversary-emitted batches, healing every same-kind run through the
    overlay's batch engine when it has one."""
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    result = CampaignResult(
        name=name or getattr(overlay, "name", "dex"), steps=events
    )
    sample = _Sampler(overlay, result)
    batch_adversary = as_batch_adversary(adversary)

    sample(0)
    applied = 0
    next_boundary = sample_every
    while applied < events:
        try:
            batch = batch_adversary.next_batch(
                overlay, min(max_batch, events - applied)
            )
        except TraceExhausted:
            batch = []
        if not batch:
            result.steps = applied  # trace ran dry: end cleanly
            break
        result.batches += 1
        for run in _same_kind_runs(batch):
            applied += _apply_run(overlay, run, result)
        if applied >= next_boundary or applied >= events:
            sample(applied)
            next_boundary = (applied // sample_every + 1) * sample_every
    if sample.last_step() != result.steps:
        sample(result.steps)
    return result


def _same_kind_runs(batch: list[ChurnAction]) -> list[list[ChurnAction]]:
    """Split a (possibly mixed) batch into maximal same-kind runs,
    preserving order -- the units the batch engine heals in one wave."""
    runs: list[list[ChurnAction]] = []
    for action in batch:
        if runs and runs[-1][0].kind == action.kind:
            runs[-1].append(action)
        else:
            runs.append([action])
    return runs


def _apply_run(
    overlay, run: list[ChurnAction], result: CampaignResult
) -> int:
    """Heal one same-kind run, batched when possible; returns the number
    of churn events consumed (every attempted action counts, skipped
    ones included, mirroring ``run_churn``'s step accounting)."""
    kind = run[0].kind
    if kind not in ("insert", "delete"):
        result.skipped_actions += len(run)
        return len(run)
    if len(run) > 1 and supports_partial_batch(overlay):
        # Single-pass path: the engine heals the legal majority in one
        # wave and reports each illegal action individually -- no
        # bisection, no replay against intermediate states.
        payload = (
            _assign_insert_ids(overlay, run)
            if kind == "insert"
            else [action.node for action in run]
        )
        t0 = time.perf_counter()
        outcome = getattr(overlay, f"{kind}_batch_partial")(payload)
        result.heal_s += time.perf_counter() - t0
        if outcome.report is not None:
            result.ledgers.append(_ledger_of(outcome.report))
        result.batched_events += len(outcome.accepted)
        result.fallbacks += len(outcome.rejected)
        result.skipped_actions += len(outcome.rejected)
        return len(run)
    for action in run:
        # An action decided against the pre-batch view may reference a
        # node a preceding run already deleted; DEX rejects that itself,
        # but the baselines assume live arguments -- skip it here.
        if kind == "insert":
            stale = action.attach_to is not None and not _has_node(
                overlay, action.attach_to
            )
        else:
            stale = not _has_node(overlay, action.node)
        if stale:
            result.skipped_actions += 1
            continue
        t0 = time.perf_counter()
        try:
            if kind == "insert":
                out = overlay.insert(node_id=action.node, attach_to=action.attach_to)
            else:
                out = overlay.delete(action.node)
        except AdversaryError:
            result.skipped_actions += 1
        else:
            result.ledgers.append(_ledger_of(out))
        finally:
            result.heal_s += time.perf_counter() - t0
    return len(run)


def _has_node(overlay, node) -> bool:
    graph = getattr(overlay, "graph", None)
    if graph is not None and hasattr(graph, "has_node"):
        return graph.has_node(node)
    # Baseline overlays expose dict key views, so membership is O(1).
    return node in overlay.nodes()


def _assign_insert_ids(overlay, run: list[ChurnAction]) -> list[tuple[int, int]]:
    """Concrete ``(new_id, attach_to)`` pairs for an insert run: actions
    that named an id keep it, the rest get fresh consecutive ids (ids
    grow monotonically in every overlay here, so ``fresh_id() + i`` is
    free; ``has_node`` guards the DEX path against collisions with
    explicitly named ids).  Actions without an attach point get a
    uniform live sample from the overlay's own rng -- the same choice
    ``overlay.insert(attach_to=None)`` would make per step."""
    explicit = {action.node for action in run if action.node is not None}
    has_node = getattr(getattr(overlay, "graph", None), "has_node", None)
    sampler = getattr(overlay, "random_node", None)
    pairs: list[tuple[int, int]] = []
    nid: int | None = None
    for action in run:
        attach = action.attach_to
        if attach is None and sampler is not None:
            attach = sampler()
        if action.node is not None:
            pairs.append((action.node, attach))
            continue
        nid = overlay.fresh_id() if nid is None else nid + 1
        while nid in explicit or (has_node is not None and has_node(nid)):
            nid += 1
        pairs.append((nid, attach))
    return pairs
