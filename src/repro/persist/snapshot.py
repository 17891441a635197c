"""Versioned on-disk snapshots of a :class:`~repro.core.dex.DexNetwork`.

One snapshot is one directory::

    ckpt-000000001234/
        manifest.json      # schema, scalars, config, rng state, checksums
        nodes.npy          # live-node array, exact insertion order
        adj_rows.npy       # adjacency dict key order (= nodes() order)
        adj_src.npy        # adjacency triplets, grouped per row ...
        adj_dst.npy        # ... in the row Counter's key order
        adj_mult.npy       # multiplicities, verbatim
        host_vertex.npy    # primary layer: active vertex ...
        host_node.npy      # ... -> hosting node, vertices ascending

The format is *order-faithful*: ``DynamicMultigraph.nodes()`` iterates
the adjacency dict, the walk CDF and the healing engines read Counter
rows, and ``random_node`` samples the live-node array -- so dict/list
orders are behaviour, not an implementation detail.  Every container is
serialized in its exact iteration order and rebuilt by inserting in
that order, and the network RNG state rides along, which makes a
restored network *bit-identical* in behaviour to the one that was saved
(the round-trip property tests drive both through identical churn and
compare transcripts).

Durability follows the classic write-temp + fsync + rename protocol:
arrays and manifest are written into a dot-prefixed temp directory and
fsynced, the manifest itself is renamed into place last inside it, then
the whole directory is atomically renamed to its final name and the
parent fsynced.  A crash at any point leaves either the previous
checkpoints intact or an ignorable ``.tmp-*`` orphan -- never a
half-written ``ckpt-*``.  Loads verify per-file SHA-256 checksums and
cross-check the serialized triplets against the manifest's aggregate
counts before any network object is built; any mismatch raises
:class:`~repro.errors.CorruptSnapshot` and :func:`restore_latest` falls
back to the next-newest checkpoint.

Restore cost is O(load): the arrays are materialized straight into the
multigraph's dicts and the coordinator resnapshots its replicated
counters from ground truth on construction (they are exact at all
times, invariant I8) -- no operation history is replayed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import shutil
import time
from array import array
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.mapping import LayerMapping
from repro.core.overlay import Overlay
from repro.errors import CorruptSnapshot, SnapshotError
from repro.net.topology import DynamicMultigraph
from repro.obs import trace as _trace
from repro.virtual.pcycle import PCycle

#: bump on any incompatible change to the directory layout or manifest
SNAPSHOT_SCHEMA = "dex-snapshot/1"

MANIFEST_NAME = "manifest.json"
_CKPT_PREFIX = "ckpt-"

#: DexConfig fields since removed: the values a checkpoint may carry
#: for each (the first is the one state digests record) and the field it
#: followed.  The chunk then, as now, was ``ceil(1/theta)``; the wave
#: engines share one draw protocol, so any choice restores the same run.
_REMOVED_FIELDS = (
    ("stagger_chunk", (None,), "fidelity"),
    ("wave_engine", ("auto", "vector", "scalar"), "validate_batches"),
)


# ----------------------------------------------------------------------
# low-level durability helpers
# ----------------------------------------------------------------------
def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_durable(path: Path, payload: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


def _array_bytes(values: Iterable[int] | np.ndarray) -> bytes:
    if not isinstance(values, np.ndarray):
        values = np.fromiter(values, dtype=np.int64)
    buffer = io.BytesIO()
    np.save(buffer, values.astype(np.int64, copy=False))
    return buffer.getvalue()


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def checkpoint_name(step_count: int) -> str:
    return f"{_CKPT_PREFIX}{step_count:012d}"


def save_snapshot(net: DexNetwork, root: str | Path) -> Path:
    """Write one atomic checkpoint of ``net`` under ``root`` and return
    its directory.  Saving is *idempotent per step*: if a valid
    checkpoint for ``net.step_count`` already exists it is returned
    as-is (network state only changes through steps).  Raises
    :class:`~repro.errors.SnapshotError` while a staggered type-2
    recovery is in flight -- the two-layer intermediate state is
    transient by design and a checkpoint must be a steady state."""
    if _trace.current().enabled:
        with _trace.span("persist.checkpoint.save", step=net.step_count) as sp:
            out = _save_snapshot_impl(net, root)
            sp.set(path=out.name)
            return out
    return _save_snapshot_impl(net, root)


def _save_snapshot_impl(net: DexNetwork, root: str | Path) -> Path:
    if net.staggered is not None or net.overlay.new is not None:
        raise SnapshotError(
            "cannot snapshot while a staggered type-2 recovery is in "
            "flight; retry after the operation completes"
        )
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    final = root / checkpoint_name(net.step_count)
    if final.exists():
        try:
            _read_manifest(final)
        except CorruptSnapshot:
            shutil.rmtree(final)
        else:
            return final

    graph = net.graph
    layer = net.overlay.old
    active = np.flatnonzero(layer.host_view() >= 0)
    src: list[int] = []
    dst: list[int] = []
    mult: list[int] = []
    for u, neighbors in graph._adj.items():
        for v, m in neighbors.items():
            src.append(u)
            dst.append(v)
            mult.append(m)
    payloads = {
        "nodes.npy": _array_bytes(graph._nodes),
        "adj_rows.npy": _array_bytes(graph._adj.keys()),
        "adj_src.npy": _array_bytes(src),
        "adj_dst.npy": _array_bytes(dst),
        "adj_mult.npy": _array_bytes(mult),
        "host_vertex.npy": _array_bytes(active),
        "host_node.npy": _array_bytes(layer.host_view()[active]),
    }
    state = net.rng.getstate()
    manifest = {
        "schema": SNAPSHOT_SCHEMA,
        "created": time.time(),
        "step_count": net.step_count,
        "next_id": net._next_id,
        "p": net.p,
        "num_nodes": graph.num_nodes,
        "edge_units": graph.num_edge_units,
        "connections": graph.num_connections,
        "topology_changes": graph.topology_changes,
        "config": dataclasses.asdict(net.config),
        "rng_state": [state[0], list(state[1]), state[2]],
        "files": {
            name: {
                "sha256": hashlib.sha256(payload).hexdigest(),
                "bytes": len(payload),
            }
            for name, payload in payloads.items()
        },
    }

    tmp = root / f".tmp-{final.name}-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        for name, payload in payloads.items():
            _write_durable(tmp / name, payload)
        # Manifest last, itself rename-atomic: a reader never sees a
        # manifest whose referenced arrays are not already durable.
        _write_durable(
            tmp / (MANIFEST_NAME + ".part"),
            json.dumps(manifest, sort_keys=True).encode(),
        )
        os.replace(tmp / (MANIFEST_NAME + ".part"), tmp / MANIFEST_NAME)
        _fsync_dir(tmp)
        os.rename(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _fsync_dir(root)
    return final


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _read_manifest(path: Path) -> dict:
    manifest_path = path / MANIFEST_NAME
    try:
        raw = manifest_path.read_bytes()
    except OSError as exc:
        raise CorruptSnapshot(f"{path}: unreadable manifest: {exc}") from exc
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        raise CorruptSnapshot(
            f"{path}: manifest is not valid JSON (truncated write?)"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != SNAPSHOT_SCHEMA:
        raise CorruptSnapshot(
            f"{path}: unsupported snapshot schema "
            f"{manifest.get('schema') if isinstance(manifest, dict) else manifest!r}"
        )
    required = (
        "step_count", "next_id", "p", "num_nodes", "edge_units",
        "connections", "topology_changes", "config", "rng_state", "files",
    )
    missing = [key for key in required if key not in manifest]
    if missing:
        raise CorruptSnapshot(f"{path}: manifest missing keys {missing}")
    return manifest


def _read_arrays(path: Path, manifest: dict) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for name, meta in manifest["files"].items():
        try:
            payload = (path / name).read_bytes()
        except OSError as exc:
            raise CorruptSnapshot(f"{path}: missing array {name}") from exc
        if len(payload) != meta["bytes"]:
            raise CorruptSnapshot(
                f"{path}: {name} is {len(payload)} bytes, "
                f"manifest says {meta['bytes']}"
            )
        if hashlib.sha256(payload).hexdigest() != meta["sha256"]:
            raise CorruptSnapshot(f"{path}: checksum mismatch on {name}")
        try:
            arrays[name] = np.load(io.BytesIO(payload), allow_pickle=False)
        except ValueError as exc:
            raise CorruptSnapshot(f"{path}: undecodable array {name}") from exc
    expected = {
        "nodes.npy", "adj_rows.npy", "adj_src.npy", "adj_dst.npy",
        "adj_mult.npy", "host_vertex.npy", "host_node.npy",
    }
    missing = expected - arrays.keys()
    if missing:
        raise CorruptSnapshot(f"{path}: manifest lists no {sorted(missing)}")
    return arrays


def _check_pair_symmetry(
    path: Path, src: "np.ndarray", dst: "np.ndarray", mult: "np.ndarray"
) -> None:
    """Every positive off-diagonal triplet must have an equal mirror
    ((u, v, m) and (v, u, m)) -- an asymmetric adjacency cannot have
    come from a DynamicMultigraph.  A given ordered pair appears at most
    once per row (rows are dicts), so packing each triplet into one
    int64 and comparing the sorted forward/reverse codes is an exact
    mirror test at a fraction of a 4-key lexsort's cost."""
    off = (mult > 0) & (src != dst)
    s, d, m = src[off], dst[off], mult[off]
    if len(s) == 0:
        return
    forward = s < d
    span_id = int(max(s.max(), d.max())) + 1
    span_m = int(m.max()) + 1
    if span_id < 2**20 and span_m < 2**20:
        code_fwd = (s[forward] * span_id + d[forward]) * span_m + m[forward]
        rev = ~forward
        code_rev = (d[rev] * span_id + s[rev]) * span_m + m[rev]
        symmetric = len(code_fwd) == len(code_rev) and np.array_equal(
            np.sort(code_fwd), np.sort(code_rev)
        )
    else:  # ids too wide to pack -- fall back to the lexsort pairing
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        order = np.lexsort((forward, m, hi, lo))
        lo, hi, m, fwd = lo[order], hi[order], m[order], forward[order]
        symmetric = (
            len(lo) % 2 == 0
            and np.array_equal(lo[0::2], lo[1::2])
            and np.array_equal(hi[0::2], hi[1::2])
            and np.array_equal(m[0::2], m[1::2])
            and bool(np.all(fwd[0::2] != fwd[1::2]))
        )
    if not symmetric:
        raise CorruptSnapshot(f"{path}: adjacency triplets are asymmetric")


def load_snapshot(path: str | Path, *, verify: bool = True) -> DexNetwork:
    """Rebuild a :class:`~repro.core.dex.DexNetwork` from one checkpoint
    directory in O(load).  ``verify=True`` (default) additionally runs
    the full invariant oracle (I1--I8, cached aggregates, wave-engine
    equivalence) on the restored network; pass ``False`` when the caller
    audits separately (the restore-time benchmark times both phases).
    Raises :class:`~repro.errors.CorruptSnapshot` on any integrity
    failure -- before any network state is built."""
    if _trace.current().enabled:
        with _trace.span(
            "persist.checkpoint.restore", path=Path(path).name, verify=verify
        ):
            return _load_snapshot_impl(path, verify=verify)
    return _load_snapshot_impl(path, verify=verify)


def _load_snapshot_impl(path: str | Path, *, verify: bool = True) -> DexNetwork:
    # The rebuild allocates ~n container objects back to back; cyclic-gc
    # passes over the (large, growing) heap mid-build cost more than the
    # build itself at n=1e5, and nothing here can leak a cycle worth
    # collecting early, so collection pauses for the assembly.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        net = _assemble(Path(path))
    finally:
        if gc_was_enabled:
            gc.enable()
    if verify:
        net.check_invariants()
        net.graph.verify_caches()
    return net


def _assemble(path: Path) -> DexNetwork:
    manifest = _read_manifest(path)
    arrays = _read_arrays(path, manifest)

    if arrays["nodes.npy"].size and int(arrays["nodes.npy"].min()) < 0:
        # the host table stores node ids, with -1 for an inactive vertex
        raise CorruptSnapshot(f"{path}: negative node id in the live-node array")
    nodes = arrays["nodes.npy"].tolist()
    rows = arrays["adj_rows.npy"].tolist()
    src = arrays["adj_src.npy"]
    dst = arrays["adj_dst.npy"]
    mult = arrays["adj_mult.npy"]
    if not (len(src) == len(dst) == len(mult)):
        raise CorruptSnapshot(f"{path}: adjacency triplet arrays disagree")
    if len(nodes) != manifest["num_nodes"] or len(rows) != len(nodes):
        raise CorruptSnapshot(
            f"{path}: {len(nodes)} nodes / {len(rows)} adjacency rows, "
            f"manifest says {manifest['num_nodes']}"
        )
    if set(nodes) != set(rows) or len(set(nodes)) != len(nodes):
        raise CorruptSnapshot(
            f"{path}: live-node array and adjacency rows name different nodes"
        )
    _check_pair_symmetry(path, src, dst, mult)
    # Every id read from an array is a new int object: row and neighbour
    # keys are mapped onto the node list's own, as a live graph keeps them.
    own = dict(zip(nodes, nodes))
    rows = list(map(own.__getitem__, rows))

    try:
        # a removed field at a value it could hold is dropped, so older
        # checkpoints stay restorable; any other value is refused
        removed = {(name, v) for name, values, _after in _REMOVED_FIELDS for v in values}
        fields = {k: v for k, v in manifest["config"].items() if (k, v) not in removed}
        config = DexConfig(**fields)
    except Exception as exc:  # ConfigError or TypeError on foreign keys
        raise CorruptSnapshot(f"{path}: bad config: {exc}") from exc

    # ---- multigraph: insert rows in their exact serialized order ----
    graph = DynamicMultigraph()
    adj: dict[int, Counter[int]] = {}
    degree: dict[int, int] = {}
    # Triplets are grouped per row, groups in row order (save iterates one
    # dict); aggregates come from the vectorized whole-array view and each
    # row's Counter is filled by C-level dict.update over an islice, so
    # the only per-element Python is the zip feeding it.
    if len(src):
        starts = np.concatenate(([0], np.flatnonzero(np.diff(src)) + 1))
        group_ids = src[starts].tolist()
        if len(set(group_ids)) != len(group_ids):
            raise CorruptSnapshot(f"{path}: adjacency row split in two")
        counts = np.diff(np.concatenate((starts, [len(src)]))).tolist()
        positive = mult > 0
        row_sums = np.add.reduceat(np.where(positive, mult, 0), starts).tolist()
        edge_units = int(mult[positive & (dst >= src)].sum())
        connections = int(np.count_nonzero(positive & (dst > src)))
    else:
        group_ids, counts, row_sums = [], [], []
        edge_units = connections = 0
    neighbor_ids = dst.tolist()
    pairs = zip(map(own.get, neighbor_ids, neighbor_ids), mult.tolist())
    fill = dict.update
    if group_ids == rows:
        # fast path: every row has neighbors and groups line up exactly
        # (what save always writes) -- Counter allocation, adj/degree
        # assembly and the duplicate scan all stay in C
        counters = [dict.__new__(Counter) for _ in rows]
        adj = dict(zip(rows, counters))
        degree = dict(zip(rows, row_sums))
        for neighbors, count in zip(counters, counts):
            fill(neighbors, islice(pairs, count))
        if sum(map(len, counters)) != len(src):
            raise CorruptSnapshot(f"{path}: duplicate neighbor in a row")
    else:
        group = 0
        num_groups = len(group_ids)
        for u in rows:
            neighbors: Counter[int] = dict.__new__(Counter)
            if group < num_groups and group_ids[group] == u:
                count = counts[group]
                fill(neighbors, islice(pairs, count))
                if len(neighbors) != count:
                    raise CorruptSnapshot(
                        f"{path}: duplicate neighbor in row {u}"
                    )
                degree[u] = row_sums[group]
                group += 1
            else:
                degree[u] = 0
            adj[u] = neighbors
        if group != num_groups:
            raise CorruptSnapshot(
                f"{path}: adjacency triplets out of row order or for "
                f"unknown rows (first: {group_ids[group]})"
            )
    if edge_units != manifest["edge_units"] or connections != manifest["connections"]:
        raise CorruptSnapshot(
            f"{path}: serialized adjacency sums to {edge_units} edge units / "
            f"{connections} connections, manifest says "
            f"{manifest['edge_units']} / {manifest['connections']}"
        )
    graph._adj = adj
    graph._nodes = nodes
    graph._node_pos = {u: i for i, u in enumerate(nodes)}
    graph._degree = degree
    graph._edge_units = edge_units
    graph._connections = connections
    graph.topology_changes = manifest["topology_changes"]
    # caches start cold; versions only need per-node monotonicity from here
    graph._version = dict.fromkeys(adj, 0)
    graph._stamp = 0

    # ---- primary layer: the host table, sets derived ----
    pcycle = PCycle(int(manifest["p"]))
    layer = LayerMapping(pcycle, config.low_threshold, graph.own)
    raw_vertex = arrays["host_vertex.npy"]
    if len(raw_vertex) != len(arrays["host_node.npy"]):
        raise CorruptSnapshot(f"{path}: host arrays disagree in length")
    if len(raw_vertex) and (
        int(raw_vertex.min()) < 0 or int(raw_vertex.max()) >= pcycle.p
    ):
        raise CorruptSnapshot(f"{path}: host map vertex outside the p-cycle")
    raw_node = arrays["host_node.npy"]
    if np.unique(raw_vertex).size != raw_vertex.size:
        raise CorruptSnapshot(f"{path}: host map vertex listed twice")
    foreign = set(raw_node.tolist()) - graph._node_pos.keys()
    if foreign:
        raise CorruptSnapshot(
            f"{path}: host map names dead nodes {sorted(foreign)[:5]}"
        )
    table = np.full(pcycle.p, -1, dtype=np.int64)
    table[raw_vertex] = raw_node
    # sim / spare / low are functions of the host table
    layer.assign_all(array("q", table.tobytes()))

    # ---- network: the coordinator resnapshots its counters (I8) ----
    overlay = Overlay(graph, layer)
    rng = random.Random()
    version, internal, gauss = manifest["rng_state"]
    try:
        rng.setstate((version, tuple(internal), gauss))
    except (TypeError, ValueError) as exc:
        raise CorruptSnapshot(f"{path}: bad rng state: {exc}") from exc
    net = DexNetwork(overlay, config, rng)
    net.step_count = int(manifest["step_count"])
    net._next_id = int(manifest["next_id"])
    return net


# ----------------------------------------------------------------------
# checkpoint-directory management
# ----------------------------------------------------------------------
def list_checkpoints(root: str | Path) -> list[Path]:
    """Checkpoint directories under ``root``, oldest first.  Temp
    orphans and foreign entries are ignored; validity is *not* checked
    (that is the loader's job)."""
    root = Path(root)
    if not root.is_dir():
        return []
    found = [
        entry
        for entry in root.iterdir()
        if entry.is_dir()
        and entry.name.startswith(_CKPT_PREFIX)
        and entry.name[len(_CKPT_PREFIX):].isdigit()
    ]
    return sorted(found, key=lambda entry: int(entry.name[len(_CKPT_PREFIX):]))


def restore_latest(
    root: str | Path, *, verify: bool = True
) -> tuple[DexNetwork, Path, list[tuple[Path, CorruptSnapshot]]]:
    """Restore from the newest loadable checkpoint under ``root``.
    Corrupt checkpoints are skipped newest-to-oldest and reported in the
    third element of the result (``(path, error)`` pairs), so a caller
    can log exactly what was lost.  Raises
    :class:`~repro.errors.SnapshotError` when no checkpoint loads."""
    skipped: list[tuple[Path, CorruptSnapshot]] = []
    checkpoints = list_checkpoints(root)
    for path in reversed(checkpoints):
        try:
            return load_snapshot(path, verify=verify), path, skipped
        except CorruptSnapshot as exc:
            skipped.append((path, exc))
    if skipped:
        raise SnapshotError(
            f"no loadable checkpoint under {root}: all {len(skipped)} "
            f"candidates corrupt (newest: {skipped[0][1]})"
        )
    raise SnapshotError(f"no checkpoint found under {root}")


def prune_checkpoints(root: str | Path, keep: int) -> list[Path]:
    """Delete all but the newest ``keep`` checkpoints; returns the
    removed paths (a bounded checkpoint directory is what lets a
    long-running gateway checkpoint indefinitely)."""
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    checkpoints = list_checkpoints(root)
    removed = checkpoints[:-keep] if len(checkpoints) > keep else []
    for path in removed:
        shutil.rmtree(path)
    return removed


# ----------------------------------------------------------------------
# test oracle
# ----------------------------------------------------------------------
def _recorded_config(config: DexConfig) -> dict:
    """``asdict(config)`` in the field layout the recorded state digests
    hash: each removed field back in its place, so a digest pins the
    state, not the dataclass's field list."""
    items = list(dataclasses.asdict(config).items())
    for name, values, after in _REMOVED_FIELDS:
        at = [key for key, _value in items].index(after) + 1
        items.insert(at, (name, values[0]))
    return dict(items)


def state_fingerprint(net: DexNetwork) -> dict:
    """An order-sensitive structural digest of everything a snapshot
    round-trips: container contents *and iteration orders*, aggregates,
    coordinator counters, and the RNG state.  Two networks with equal
    fingerprints are behaviourally identical under any further driver
    that draws from ``net.rng``."""
    graph = net.graph
    layer = net.overlay.old
    return {
        "nodes": list(graph._nodes),
        "adj": [(u, list(nbrs.items())) for u, nbrs in graph._adj.items()],
        "degree": dict(graph._degree),
        "edge_units": graph.num_edge_units,
        "connections": graph.num_connections,
        "topology_changes": graph.topology_changes,
        "host": [(z, u) for z, u in enumerate(layer.host) if u >= 0],
        "sim": sorted((u, tuple(sorted(vs))) for u, vs in layer.sim.items()),
        "spare": sorted(layer.spare),
        "low": sorted(layer.low),
        "coordinator": (net.coordinator.n, net.coordinator.spare, net.coordinator.low),
        "step_count": net.step_count,
        "next_id": net._next_id,
        "p": net.p,
        "config": _recorded_config(net.config),
        "rng": net.rng.getstate(),
    }
