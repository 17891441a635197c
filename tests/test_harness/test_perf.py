"""The perf harness: report plumbing, older-schema migration, the
batch-churn driver, gateway-soak and frontier benchmark helpers, and
the sweep worker (in-process)."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.harness import perf


class TestReportPlumbing:
    def test_v1_report_upgrades_in_place(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": "dex-perf/1",
            "churn_steps": 200,
            "runs": {"before": {"n64": {"churn_per_step_ms": 1.0}}},
        }))
        report = perf.load_report(path)
        assert report["schema"] == perf.SCHEMA
        assert report["runs"]["before"]["n64"]["churn_per_step_ms"] == 1.0

    def test_v2_report_upgrades_in_place(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": "dex-perf/2",
            "runs": {"pr2": {"n64": {"batch_churn_per_node_ms": 0.5}}},
            "sweeps": {"pr2": {"n100000_s11": {"wall_s": 3.0}}},
        }))
        report = perf.load_report(path)
        assert report["schema"] == perf.SCHEMA
        assert report["runs"]["pr2"]["n64"]["batch_churn_per_node_ms"] == 0.5
        assert report["sweeps"]["pr2"]["n100000_s11"]["wall_s"] == 3.0

    def test_unknown_schema_starts_fresh(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": "other/9", "runs": {"x": {}}}))
        report = perf.load_report(path)
        assert report == {"schema": perf.SCHEMA, "runs": {}}

    def test_corrupt_report_refused(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit):
            perf.load_report(path)

    def test_write_report_and_sweep_coexist(self, tmp_path):
        path = tmp_path / "bench.json"
        perf.write_section(path, "runs", "lbl", {"n64": {"churn_per_step_ms": 0.5}})
        perf.write_section(
            path, "sweeps", "lbl", {"n64_s1": {"wall_s": 1.0}}, meta={"workers": 2}
        )
        report = json.loads(path.read_text())
        assert report["schema"] == perf.SCHEMA
        assert report["runs"]["lbl"]["n64"]["churn_per_step_ms"] == 0.5
        assert report["sweeps"]["lbl"]["n64_s1"]["wall_s"] == 1.0
        assert "workers" in report["sweeps"]["lbl"]["meta"]

    def test_v4_report_upgrades_in_place(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": "dex-perf/4",
            "campaigns": {"pr4": {"flash-crowd/dex/n64_s1": {"events": 32}}},
        }))
        report = perf.load_report(path)
        assert report["schema"] == perf.SCHEMA
        assert report["campaigns"]["pr4"]["flash-crowd/dex/n64_s1"]["events"] == 32

    def test_write_service_merges_under_service_key(self, tmp_path):
        path = tmp_path / "bench.json"
        perf.write_section(path, "runs", "lbl", {"n64": {"churn_per_step_ms": 0.5}})
        perf.write_section(
            path, "service", "service",
            {"n64": {"events_per_s": 1000.0, "ack_p50_ms": 3.0}}, merge=True,
        )
        report = json.loads(path.read_text())
        assert report["schema"] == perf.SCHEMA
        assert report["service"]["service"]["n64"]["events_per_s"] == 1000.0
        assert "created" in report["service"]["service"]["meta"]
        # existing sections untouched
        assert report["runs"]["lbl"]["n64"]["churn_per_step_ms"] == 0.5
        # a second invocation under the same label accumulates rows
        # instead of clobbering the earlier ones (soak + shard-sweep
        # runs share one label)
        perf.write_section(
            path, "service", "service",
            {"n64/shards2": {"events_per_s": 1700.0}}, merge=True,
        )
        report = json.loads(path.read_text())
        assert report["service"]["service"]["n64"]["events_per_s"] == 1000.0
        assert report["service"]["service"]["n64/shards2"]["events_per_s"] == 1700.0
        # without merge the label's entry is replaced (a re-recorded run)
        perf.write_section(path, "service", "service", {"n8": {"events_per_s": 1.0}})
        report = json.loads(path.read_text())
        assert set(report["service"]["service"]) == {"n8", "meta"}

class TestBenchHelpers:
    def test_run_batch_churn_heals_and_keeps_invariants(self):
        net = DexNetwork.bootstrap(32, DexConfig(validate_every_step=False), seed=5)
        healed, engine_s = perf.run_batch_churn(
            net, batch=4, rounds=3, adversary=random.Random(7)
        )
        assert healed == 24
        assert engine_s > 0
        net.check_invariants()

    def test_sweep_point_in_process(self):
        key, metrics = perf._sweep_point((64, 9, 4, 2))
        assert key == "n64_s9"
        assert metrics["nodes_healed"] == 16
        assert metrics["bootstrap_s"] >= 0
        assert metrics["batch_churn_per_node_ms"] > 0

    def test_run_sweep_single_worker(self):
        results = perf.run_sweep(sizes=[48], seeds=[1, 2], batch=4, rounds=1, workers=1)
        assert set(results) == {"n48_s1", "n48_s2"}

    def test_bench_service_soak_row(self):
        row = perf.bench_service_soak(
            48, duration_s=0.2, max_batch=8, clients=16, seed=3
        )
        assert row["events"] > 0
        assert row["events_per_s"] > 0
        assert row["ack_p50_ms"] is not None and row["ack_p50_ms"] > 0
        assert row["ack_p99_ms"] >= row["ack_p50_ms"]
        assert row["batches"] > 0
        assert row["final_n"] >= 3
        # the one soak driver: a single-process row is a cluster of one
        assert row["shards"] == 1 and "handoffs" not in row
        assert row["completed"] == row["offered"]
        assert row["audit_ok"] and row["audit_errors"] == []

    def test_cluster_soak_row_carries_the_overload_columns(self):
        row = perf.bench_service_soak(
            48,
            shards=2,
            duration_s=0.3,
            max_batch=8,
            clients=16,
            seed=3,
            policy="shed-oldest",
            deadline_ms=500.0,
        )
        assert row["shards"] == 2 and row["policy"] == "shed-oldest"
        assert row["deadline_ms"] == 500.0 and row["queue_limit"] == 8192
        assert row["completed"] == row["offered"] > 0
        assert row["audit_ok"], row["audit_errors"]
        assert len(row["per_shard_events_per_s"]) == 2
        assert row["batches"] > 0 and row["mean_batch"] > 0  # from the workers
        assert row["handoffs"]["in_flight"] == 0

    def test_bench_service_records_per_request_baseline(self):
        row = perf.bench_service(
            48, duration_s=0.2, max_batch=8, clients=16, seed=3
        )
        assert row["per_request_events_per_s"] > 0
        assert row["service_speedup_x"] > 0

    def test_soak_row_carries_policy_and_goodput(self):
        row = perf.bench_service_soak(
            48,
            duration_s=0.2,
            max_batch=8,
            clients=16,
            seed=3,
            policy="adaptive-window",
            deadline_ms=500.0,
        )
        assert row["policy"] == "adaptive-window"
        assert row["deadline_ms"] == 500.0
        assert row["goodput_per_s"] > 0
        for key in ("shed", "deadline_timeouts", "retries"):
            assert row[key] >= 0

    def test_v5_report_upgrades_in_place(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": "dex-perf/5",
            "service": {"pr5": {"n64": {"events_per_s": 900.0}}},
        }))
        report = perf.load_report(path)
        assert report["schema"] == perf.SCHEMA == "dex-perf/8"
        assert report["service"]["pr5"]["n64"]["events_per_s"] == 900.0


class TestPolicyFrontier:
    def test_frontier_rows_cover_policy_rate_grid(self):
        results = perf.bench_policy_frontier(
            32,
            rates=[400.0],
            policies=["fixed", "shed-oldest"],
            duration_s=0.25,
            max_batch=8,
            queue_limit=32,
            seed=3,
        )
        assert set(results) == {"n32/fixed/r400", "n32/shed-oldest/r400"}
        for key, row in results.items():
            # The no-hung-clients contract, measured: every offered
            # request came back as exactly one completion.
            assert row["completed"] == row["offered"]
            assert row["offered"] > 0
            assert 0.0 <= row["shed_rate"] <= 1.0
            assert row["goodput_per_s"] >= 0
            assert row["policy_state"]["policy"] == key.split("/")[1]
        assert results["n32/shed-oldest/r400"]["queue_limit"] == 32
