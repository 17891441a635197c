"""Runtime verification of the DEX invariants (I1-I8, listed in
``docs/substitutions.md``).

The paper *proves* these properties; the reproduction *checks* them after
every step in tests (and on demand via :meth:`DexNetwork.check_invariants`).
A failure raises :class:`InvariantViolation` with enough context to
reproduce the offending state.
"""

from __future__ import annotations

import random

from repro.core.config import DexConfig
from repro.core.overlay import Overlay
from repro.errors import InvariantViolation
from repro.net.walks import HAVE_NUMPY, run_wave
from repro.types import NodeId

#: fixed probe seed for the wave-engine equivalence audit (any value
#: works -- both engines must agree for *every* seed; pinning one keeps
#: the oracle deterministic)
_WAVE_PROBE_SEED = 0xD32

#: tokens/length of the probe wave: enough to cross congested edges and
#: excluded-node redraws, small enough to run after every churn step
_WAVE_PROBE_TOKENS = 16
_WAVE_PROBE_LENGTH = 6


def check_surjectivity(overlay: Overlay) -> None:
    """I1: every live node simulates at least one vertex of a live layer."""
    for u in overlay.graph.nodes():
        if overlay.total_load(u) < 1:
            raise InvariantViolation(f"node {u} simulates no virtual vertex")


def check_balance(overlay: Overlay, config: DexConfig) -> None:
    """I2: loads bounded by 4*zeta (8*zeta during staggered ops)."""
    staggered = overlay.new is not None
    bound = config.stagger_max_load if staggered else config.max_load
    for u in overlay.graph.nodes():
        load = overlay.total_load(u)
        if load > bound:
            raise InvariantViolation(
                f"node {u} simulates {load} vertices, exceeding "
                f"{'8*zeta' if staggered else '4*zeta'} = {bound}"
            )


def check_degrees(overlay: Overlay) -> None:
    """I3: degree(u) == 3 * load(u) + intermediate endpoints."""
    for u in overlay.graph.nodes():
        expected = overlay.expected_degree(u)
        actual = overlay.graph.degree(u)
        if expected != actual:
            raise InvariantViolation(
                f"node {u}: degree {actual} != expected {expected}"
            )


def check_edge_faithfulness(overlay: Overlay) -> None:
    """I4: the real multigraph is exactly the image of the live virtual
    edges plus intermediate edges."""
    expected = overlay.rebuild_expected_graph()
    graph = overlay.graph
    seen: set[tuple[NodeId, NodeId]] = set()
    for u in graph.nodes():
        for v, mult in graph.neighbor_multiplicities(u):
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            if expected.get(key, 0) != mult:
                raise InvariantViolation(
                    f"edge {key}: multiplicity {mult} != expected "
                    f"{expected.get(key, 0)}"
                )
    for key, mult in expected.items():
        if key not in seen and mult != 0:
            raise InvariantViolation(f"expected edge {key} (x{mult}) missing")


def check_connectivity(overlay: Overlay) -> None:
    """I5: the healed network is connected."""
    if not overlay.graph.is_connected():
        raise InvariantViolation("real network is disconnected")


def check_mapping_sets(overlay: Overlay) -> None:
    """I7: Spare/Low sets match recomputed loads."""
    overlay.old.verify()
    if overlay.new is not None:
        overlay.new.verify()


def check_cached_aggregates(overlay: Overlay) -> None:
    """The incremental caches (degrees, node array, edge units, neighbor
    CDFs, sparse adjacency, intermediate endpoints) match a from-scratch
    recomputation."""
    overlay.graph.verify_caches()
    overlay.graph.verify_sparse_cache()
    overlay.verify_intermediate_cache()


def check_wave_engine_equivalence(overlay: Overlay) -> None:
    """The vectorized wave scheduler and the scalar reference produce
    identical transcripts on the live graph under a fixed seed.

    Waves never mutate the graph, so the audit runs a small probe wave
    through both engines -- exercising weighted hops, directed-edge
    claims (token count exceeds some nodes' out-edges) and excluded-node
    redraws -- and compares results *and* the per-round
    ``(positions, claimed edges)`` transcript.  A no-op when numpy is
    absent (the vector engine does not exist without it)."""
    if not HAVE_NUMPY:  # pragma: no cover - the CI image always has numpy
        return
    graph = overlay.graph
    if graph.num_nodes < 2:
        return
    starts = sorted(graph.nodes())[:_WAVE_PROBE_TOKENS]
    # Exclude each token's successor start: live nodes, so the redraw
    # path is exercised whenever a draw lands on one.
    excluded = [starts[(i + 1) % len(starts)] for i in range(len(starts))]
    members = overlay.old.spare
    scalar_t: list = []
    vector_t: list = []
    # the scalar walks cache the CDFs they build; the audit puts the
    # cache back as it found it
    cache = graph._cdf_cache
    kept = cache.copy()
    try:
        scalar = run_wave(
            graph, starts, _WAVE_PROBE_LENGTH, members,
            random.Random(_WAVE_PROBE_SEED), excluded,
            engine="scalar", transcript=scalar_t,
        )
    finally:
        cache.clear()
        cache.update(kept)
    vector = run_wave(
        graph, starts, _WAVE_PROBE_LENGTH, members,
        random.Random(_WAVE_PROBE_SEED), excluded,
        engine="vector", transcript=vector_t,
    )
    if tuple(scalar[0]) != tuple(vector[0]) or tuple(scalar[1]) != tuple(
        vector[1]
    ) or scalar[2:] != vector[2:]:
        raise InvariantViolation(
            f"wave engines diverged: scalar {scalar[1:]} vs vector {vector[1:]}"
        )
    if scalar_t != vector_t:
        bad = next(i for i, (a, b) in enumerate(zip(scalar_t, vector_t)) if a != b)
        raise InvariantViolation(
            f"wave-engine transcripts diverged at round {bad}: "
            f"{scalar_t[bad]} != {vector_t[bad]}"
        )


def check_all(overlay: Overlay, config: DexConfig) -> None:
    check_mapping_sets(overlay)
    check_cached_aggregates(overlay)
    check_wave_engine_equivalence(overlay)
    check_surjectivity(overlay)
    check_balance(overlay, config)
    check_degrees(overlay)
    check_edge_faithfulness(overlay)
    check_connectivity(overlay)
