"""Crash-safe snapshots: order-faithful round-trips (restored networks
are *bit-identical* in behaviour), atomic durability, checksum-verified
loads that refuse every flavour of corruption, and checkpoint-directory
management."""

from __future__ import annotations

import hashlib
import io
import json
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import CorruptSnapshot, SnapshotError
from repro.persist import (
    SNAPSHOT_SCHEMA,
    list_checkpoints,
    load_snapshot,
    prune_checkpoints,
    restore_latest,
    save_snapshot,
    state_fingerprint,
)
from repro.persist.snapshot import MANIFEST_NAME, checkpoint_name


def make_net(n0: int = 24, seed: int = 9, **overrides) -> DexNetwork:
    config = DexConfig(seed=seed, type2_mode="simplified").with_(**overrides)
    return DexNetwork.bootstrap(n0, config, seed=seed)


def churn(net: DexNetwork, driver: random.Random, steps: int) -> list:
    """Mixed insert/delete steps drawn from ``driver``; returns the
    step reports (the behavioural transcript)."""
    reports = []
    for _ in range(steps):
        if driver.random() < 0.55 or net.size <= net.config.min_network_size:
            reports.append(net.insert())
        else:
            reports.append(net.delete(driver.choice(net.graph._nodes)))
    return reports


def full_audit(net: DexNetwork) -> None:
    invariants.check_all(net.overlay, net.config)
    invariants.check_wave_engine_equivalence(net.overlay)
    net.graph.verify_caches()
    assert net.coordinator.verify(), "coordinator counters diverged"


class TestRoundTrip:
    def test_fingerprint_identical_and_audit_passes(self, tmp_path):
        net = make_net()
        churn(net, random.Random(3), 60)
        restored = load_snapshot(save_snapshot(net, tmp_path))
        assert state_fingerprint(restored) == state_fingerprint(net)
        full_audit(restored)

    def test_subsequent_churn_is_bit_identical(self, tmp_path):
        """The restored network must not merely be isomorphic: driven by
        an identically seeded driver it must emit the same StepReports
        and land in the same state -- container orders and rng state
        round-trip exactly."""
        net = make_net()
        churn(net, random.Random(31), 50)
        restored = load_snapshot(save_snapshot(net, tmp_path))
        original_transcript = churn(net, random.Random(77), 40)
        restored_transcript = churn(restored, random.Random(77), 40)
        assert restored_transcript == original_transcript
        assert state_fingerprint(restored) == state_fingerprint(net)

    def test_staggered_config_round_trips_at_steady_state(self, tmp_path):
        net = make_net(type2_mode="staggered")
        churn(net, random.Random(5), 30)
        restored = load_snapshot(save_snapshot(net, tmp_path))
        assert restored.config.type2_mode == "staggered"
        assert state_fingerprint(restored) == state_fingerprint(net)
        assert churn(net, random.Random(8), 20) == churn(
            restored, random.Random(8), 20
        )

    def test_fresh_bootstrap_round_trips(self, tmp_path):
        net = make_net(n0=12)
        restored = load_snapshot(save_snapshot(net, tmp_path))
        assert state_fingerprint(restored) == state_fingerprint(net)

    def test_restored_keys_are_the_graph_own_id_objects(self, tmp_path):
        """A live graph stores each id once; a restored one must too.
        Every key and member that names a node -- adjacency rows and
        their neighbours, degrees, versions, positions, ``sim``, Spare
        and Low -- is the very object in ``graph._nodes``, not an equal
        copy read from an array (28 bytes each)."""
        net = make_net(n0=1024)
        churn(net, random.Random(4), 40)
        restored = load_snapshot(save_snapshot(net, tmp_path))
        graph, layer = restored.graph, restored.overlay.old
        own = {id(u) for u in graph._nodes}
        names = [
            *graph._adj,
            *(v for nbrs in graph._adj.values() for v in nbrs),
            *graph._degree,
            *graph._version,
            *graph._node_pos,
            *layer.sim,
            *layer.spare,
            *layer.low,
        ]
        assert len(names) > 10 * restored.size
        assert sum(id(u) not in own for u in names) == 0

    def test_save_is_idempotent_per_step(self, tmp_path):
        net = make_net()
        first = save_snapshot(net, tmp_path)
        again = save_snapshot(net, tmp_path)
        assert first == again
        assert list_checkpoints(tmp_path) == [first]

    def test_save_refuses_mid_recovery_state(self, tmp_path):
        net = make_net()
        net.staggered = object()  # a staggered type-2 recovery in flight
        with pytest.raises(SnapshotError):
            save_snapshot(net, tmp_path)

    def test_no_temp_orphans_after_save(self, tmp_path):
        net = make_net()
        save_snapshot(net, tmp_path)
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]


class TestCorruption:
    def checkpoint(self, tmp_path, steps: int = 40):
        net = make_net()
        churn(net, random.Random(13), steps)
        return net, save_snapshot(net, tmp_path)

    def test_flipped_array_byte_is_refused(self, tmp_path):
        _, path = self.checkpoint(tmp_path)
        target = path / "nodes.npy"
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshot, match="checksum"):
            load_snapshot(path)

    def test_truncated_manifest_is_refused(self, tmp_path):
        _, path = self.checkpoint(tmp_path)
        manifest = path / MANIFEST_NAME
        manifest.write_bytes(manifest.read_bytes()[: manifest.stat().st_size // 2])
        with pytest.raises(CorruptSnapshot, match="JSON"):
            load_snapshot(path)

    def test_missing_manifest_is_refused(self, tmp_path):
        _, path = self.checkpoint(tmp_path)
        (path / MANIFEST_NAME).unlink()
        with pytest.raises(CorruptSnapshot, match="manifest"):
            load_snapshot(path)

    def test_missing_array_is_refused(self, tmp_path):
        _, path = self.checkpoint(tmp_path)
        (path / "adj_mult.npy").unlink()
        with pytest.raises(CorruptSnapshot, match="missing array"):
            load_snapshot(path)

    def test_foreign_schema_is_refused(self, tmp_path):
        _, path = self.checkpoint(tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["schema"] = "dex-snapshot/999"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CorruptSnapshot, match="schema"):
            load_snapshot(path)

    def test_consistent_rewrite_with_wrong_aggregates_is_refused(self, tmp_path):
        """An attacker (or bitrot survivor) who fixes the checksums but
        leaves the manifest aggregates stale still gets refused: the
        loader recomputes edge units / connections from the triplets."""
        _, path = self.checkpoint(tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["edge_units"] += 1
        (path / MANIFEST_NAME).write_text(json.dumps(manifest, sort_keys=True))
        with pytest.raises(CorruptSnapshot, match="edge units"):
            load_snapshot(path)

    def test_negative_node_id_is_refused(self, tmp_path):
        """Node ids live in an int64 host table with -1 for "inactive",
        so a checkpoint naming a negative node, consistently in every
        array and with fixed-up checksums, is refused, not restored with
        that node's vertices silently inactive."""
        net, path = self.checkpoint(tmp_path)
        victim = sorted(net.nodes())[0]
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        for name in ("nodes.npy", "adj_rows.npy", "adj_src.npy", "adj_dst.npy", "host_node.npy"):
            values = np.load(path / name)
            values[values == victim] = -5
            buffer = io.BytesIO()
            np.save(buffer, values)
            payload = buffer.getvalue()
            (path / name).write_bytes(payload)
            manifest["files"][name] = {
                "sha256": hashlib.sha256(payload).hexdigest(),
                "bytes": len(payload),
            }
        (path / MANIFEST_NAME).write_text(json.dumps(manifest, sort_keys=True))
        with pytest.raises(CorruptSnapshot, match="negative node id"):
            load_snapshot(path)

    def rewrite_config(self, path, **fields) -> None:
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["config"].update(fields)
        (path / MANIFEST_NAME).write_text(json.dumps(manifest, sort_keys=True))

    def test_removed_chunk_field_at_its_old_default_still_restores(self, tmp_path):
        """Manifests store ``asdict(config)``, so one written while
        DexConfig still had ``stagger_chunk`` carries it as ``null``
        (nothing ever set it); that checkpoint must stay restorable."""
        net, path = self.checkpoint(tmp_path)
        self.rewrite_config(path, stagger_chunk=None)
        assert state_fingerprint(load_snapshot(path)) == state_fingerprint(net)

    def test_removed_chunk_field_with_a_value_is_refused(self, tmp_path):
        """A chunk other than ceil(1/theta) is a config this code cannot
        honour: refused, not silently replaced by the derived chunk."""
        _, path = self.checkpoint(tmp_path)
        self.rewrite_config(path, stagger_chunk=7)
        with pytest.raises(CorruptSnapshot, match="bad config"):
            load_snapshot(path)

    @pytest.mark.parametrize("engine", ["auto", "vector", "scalar"])
    def test_removed_wave_engine_field_still_restores(self, tmp_path, engine):
        """A checkpoint written while DexConfig had ``wave_engine`` (next
        to the old ``stagger_chunk``) restores to the same network: both
        engines follow one draw protocol, so the choice never changed a
        run."""
        net, path = self.checkpoint(tmp_path)
        self.rewrite_config(path, stagger_chunk=None, wave_engine=engine)
        assert state_fingerprint(load_snapshot(path)) == state_fingerprint(net)

    def test_removed_wave_engine_field_with_an_unknown_value_is_refused(self, tmp_path):
        _, path = self.checkpoint(tmp_path)
        self.rewrite_config(path, wave_engine="gpu")
        with pytest.raises(CorruptSnapshot, match="bad config"):
            load_snapshot(path)

    def test_restore_latest_falls_back_to_older_checkpoint(self, tmp_path):
        net = make_net()
        churn(net, random.Random(2), 20)
        old_fingerprint = state_fingerprint(net)
        old_path = save_snapshot(net, tmp_path)
        churn(net, random.Random(3), 20)
        new_path = save_snapshot(net, tmp_path)
        blob = bytearray((new_path / "adj_src.npy").read_bytes())
        blob[-1] ^= 0x01
        (new_path / "adj_src.npy").write_bytes(bytes(blob))

        restored, path, skipped = restore_latest(tmp_path)
        assert path == old_path
        assert [p for p, _err in skipped] == [new_path]
        assert all(isinstance(e, CorruptSnapshot) for _p, e in skipped)
        assert state_fingerprint(restored) == old_fingerprint

    def test_restore_latest_without_checkpoints_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="no checkpoint"):
            restore_latest(tmp_path)

    def test_restore_latest_all_corrupt_raises(self, tmp_path):
        _, path = self.checkpoint(tmp_path)
        (path / MANIFEST_NAME).unlink()
        with pytest.raises(SnapshotError, match="corrupt"):
            restore_latest(tmp_path)


class TestCheckpointDirectory:
    def test_list_sorts_and_ignores_foreign_entries(self, tmp_path):
        net = make_net()
        first = save_snapshot(net, tmp_path)
        churn(net, random.Random(1), 10)
        second = save_snapshot(net, tmp_path)
        (tmp_path / ".tmp-ckpt-000000000099-123").mkdir()
        (tmp_path / "ckpt-notanumber").mkdir()
        (tmp_path / "unrelated.txt").write_text("x")
        assert list_checkpoints(tmp_path) == [first, second]

    def test_prune_keeps_the_newest(self, tmp_path):
        net = make_net()
        paths = []
        for burst in range(4):
            churn(net, random.Random(burst), 5)
            paths.append(save_snapshot(net, tmp_path))
        removed = prune_checkpoints(tmp_path, keep=2)
        assert removed == paths[:2]
        assert list_checkpoints(tmp_path) == paths[2:]
        with pytest.raises(ValueError):
            prune_checkpoints(tmp_path, keep=0)

    def test_checkpoint_name_is_zero_padded_and_sortable(self):
        assert checkpoint_name(7) == "ckpt-000000000007"
        assert checkpoint_name(10**10) > checkpoint_name(999)

    def test_schema_constant_exported(self):
        assert SNAPSHOT_SCHEMA.startswith("dex-snapshot/")


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=0, max_value=60),
    extra=st.integers(min_value=1, max_value=25),
)
def test_property_round_trip_then_identical_futures(tmp_path_factory, seed, steps, extra):
    """Churn N steps, snapshot, restore: state fingerprints match and a
    shared-seed future produces bit-identical transcripts on both."""
    root = tmp_path_factory.mktemp("snap")
    net = make_net(n0=14, seed=seed % 97)
    churn(net, random.Random(seed), steps)
    restored = load_snapshot(save_snapshot(net, root))
    assert state_fingerprint(restored) == state_fingerprint(net)
    assert churn(net, random.Random(seed + 1), extra) == churn(
        restored, random.Random(seed + 1), extra
    )
    assert state_fingerprint(restored) == state_fingerprint(net)
    restored.check_invariants()
    restored.graph.verify_caches()
