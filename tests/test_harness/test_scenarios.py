"""The scenario campaign registry, its CLI, and batch-vs-sequential
campaign equivalence (invariants + structural bounds)."""

import json

import pytest

from repro.core import invariants
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.harness import perf, scenarios
from repro.harness.runner import run_campaign, run_churn
from repro.harness.scenarios import SCENARIOS, point_key, run_matrix, run_scenario


class TestRegistry:
    def test_expected_scenarios_present(self):
        expected = {
            "flash-crowd", "mass-leave", "degree-attack",
            "coordinator-attack", "spare-depletion", "low-load-attack",
            "oscillating", "random-churn", "trace-replay",
        }
        assert expected <= set(SCENARIOS)

    @pytest.mark.parametrize("key", sorted(SCENARIOS))
    def test_every_scenario_builds_and_acts(self, key):
        net = DexNetwork.bootstrap(24, DexConfig(seed=7))
        adversary = SCENARIOS[key].build(24, 7)
        # Every strategy speaks at least the single-action protocol; the
        # campaign driver adapts the rest.
        action = adversary.next_action(net)
        assert action.kind in ("insert", "delete")

    def test_default_events_scale_with_n(self):
        scenario = SCENARIOS["flash-crowd"]
        assert scenario.default_events(64) == 128  # floor
        assert scenario.default_events(4096) == 2048

    def test_replay_script_is_finite_and_balanced(self):
        script = scenarios._replay_script(256)
        assert script and set(script) == {"insert", "delete"}
        assert script.count("insert") == script.count("delete")


class TestRunScenario:
    def test_row_fields(self):
        row = run_scenario("trace-replay", "dex", 32, 7, events=64, max_batch=8)
        for field in (
            "scenario", "overlay", "n0", "seed", "events", "batches",
            "batched_events", "skipped",
            "heal_per_event_ms", "min_gap", "final_gap", "max_degree",
            "messages_total", "wall_s", "final_n",
        ):
            assert field in row, field
        assert row["events"] > 0
        assert row["min_gap"] > 0

    def test_compare_sequential_records_speedup(self):
        row = run_scenario(
            "flash-crowd", "dex", 32, 7, events=48, max_batch=8,
            compare_sequential=True,
        )
        assert "seq_heal_per_event_ms" in row
        assert row["campaign_speedup_x"] > 0

    def test_series_flag_persists_full_time_series(self):
        row = run_scenario(
            "flash-crowd", "dex", 32, 7, events=48, max_batch=8,
            sample_every=16, series=True,
        )
        series = row["series"]
        assert set(series) == {"gap", "degree", "size", "messages"}
        boundaries = [step for step, _ in series["gap"]]
        assert boundaries[0] == 0 and boundaries[-1] == row["events"]
        for key in ("degree", "size", "messages"):
            assert [step for step, _ in series[key]] == boundaries
        # cumulative message series stays monotone, ready for plotting
        message_totals = [total for _, total in series["messages"]]
        assert message_totals == sorted(message_totals)
        assert series["messages"][-1][1] == row["messages_total"]

    def test_series_omitted_by_default(self):
        row = run_scenario("flash-crowd", "dex", 32, 7, events=32, max_batch=8)
        assert "series" not in row

    def test_matrix_in_process(self):
        results = run_matrix(
            ["trace-replay"], ["dex", "law-siu"], [32], [7],
            events=48, max_batch=8, workers=1,
        )
        assert set(results) == {
            point_key("trace-replay", "dex", 32, 7),
            point_key("trace-replay", "law-siu", 32, 7),
        }
        for row in results.values():
            assert row["events"] > 0


class TestCampaignEquivalence:
    """A fixed-seed campaign healed through the batch engine preserves
    every invariant and cache audit, and its structural series stay
    within the bounds the sequential runner achieves."""

    @pytest.mark.parametrize("key", ["flash-crowd", "mass-leave", "oscillating"])
    def test_batch_campaign_matches_sequential_bounds(self, key):
        seed, n0, events = 13, 48, 96
        campaign_net = DexNetwork.bootstrap(n0, DexConfig(seed=seed))
        campaign = run_campaign(
            campaign_net, SCENARIOS[key].build(n0, seed), events,
            max_batch=16, sample_every=24,
        )
        # I1-I8, cached aggregates (incl. CSR patch), wave-engine
        # equivalence, coordinator oracle -- after batch healing.
        campaign_net.check_invariants()
        invariants.check_cached_aggregates(campaign_net.overlay)

        seq_net = DexNetwork.bootstrap(n0, DexConfig(seed=seed))
        sequential = run_churn(
            seq_net, SCENARIOS[key].build(n0, seed), campaign.steps,
            sample_every=24,
        )
        assert campaign.min_gap > 0.01
        assert campaign.min_gap >= 0.5 * sequential.min_gap
        assert campaign.max_degree_seen <= 2 * sequential.max_degree_seen

    def test_adaptive_campaign_keeps_invariants(self):
        seed, n0 = 17, 48
        net = DexNetwork.bootstrap(n0, DexConfig(seed=seed))
        result = run_campaign(
            net, SCENARIOS["spare-depletion"].build(n0, seed), 64, max_batch=16
        )
        assert result.steps == 64
        net.check_invariants()


class TestCLI:
    def test_list(self, capsys):
        assert scenarios.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out and "overlays:" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            scenarios.main(["--scenarios", "does-not-exist"])

    def test_small_matrix_writes_campaign_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = scenarios.main([
            "--scenarios", "trace-replay", "--overlays", "dex",
            "--sizes", "32", "--seeds", "7", "--events", "48",
            "--max-batch", "8", "--workers", "1",
            "--label", "smoke", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == perf.SCHEMA
        entry = report["campaigns"]["smoke"]
        assert "workers" in entry["meta"]
        row = entry[point_key("trace-replay", "dex", 32, 7)]
        assert row["events"] > 0

    def test_wall_budget_guard_fails_when_exceeded(self, tmp_path):
        code = scenarios.main([
            "--scenarios", "trace-replay", "--overlays", "dex",
            "--sizes", "32", "--seeds", "7", "--events", "32",
            "--workers", "1", "--wall-budget", "0.0",
        ])
        assert code == 1


class TestWriteCampaigns:
    def test_merges_alongside_runs_and_sweeps(self, tmp_path):
        path = tmp_path / "bench.json"
        perf.write_section(path, "runs", "lbl", {"n64": {"churn_per_step_ms": 0.5}})
        perf.write_section(
            path, "campaigns", "lbl", {"flash-crowd/dex/n64_s7": {"events": 10}},
            meta={"workers": 2},
        )
        report = json.loads(path.read_text())
        assert report["schema"] == perf.SCHEMA
        assert report["runs"]["lbl"]["n64"]["churn_per_step_ms"] == 0.5
        assert report["campaigns"]["lbl"]["flash-crowd/dex/n64_s7"]["events"] == 10
        assert report["campaigns"]["lbl"]["meta"]["workers"] == 2
