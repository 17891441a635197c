"""Fault-injection harness: SIGKILL a checkpointing soak worker, restore
from disk, and prove recovery -- invariants hold, no journalled ack
contradicts the restored state, in-flight loss stays within the bound.
Small configurations here; the CI crash-recovery smoke runs the n=256
flavour."""

from __future__ import annotations

import pytest

from repro.harness.faults import CORRUPTIONS, FaultPlan, RecoveryReport, run_fault_scenario


class TestFaultPlan:
    def test_defaults_are_valid(self):
        plan = FaultPlan()
        assert 0.0 < plan.kill_at_fraction < 1.0
        assert plan.corruption in CORRUPTIONS

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_kill_fraction_must_be_interior(self, fraction):
        with pytest.raises(ValueError, match="kill_at_fraction"):
            FaultPlan(kill_at_fraction=fraction)

    def test_unknown_corruption_is_refused(self):
        with pytest.raises(ValueError, match="corruption"):
            FaultPlan(corruption="set-disk-on-fire")


class TestRecoveryReportVerdict:
    def base(self) -> RecoveryReport:
        return RecoveryReport(
            plan={},
            killed=True,
            invariants_ok=True,
            journal_lost=0,
            journal_lost_bound=0,
            resumed_invariants_ok=True,
            resumed_ok_events=5,
        )

    def test_green_path(self):
        assert self.base().passed

    def test_any_red_flag_fails(self):
        for flag in (
            {"killed": False},
            {"error": "boom"},
            {"invariants_ok": False},
            {"journal_mismatches": [{"node": 3}]},
            {"journal_lost": 1},  # bound is 0
            {"resumed_invariants_ok": False},
            {"resumed_ok_events": 0},
        ):
            report = self.base()
            for key, value in flag.items():
                setattr(report, key, value)
            assert not report.passed, flag


class TestKillAndRecover:
    def test_sigkill_mid_soak_recovers_within_one_interval_loss(self, tmp_path):
        """The acceptance scenario in miniature: kill at ~50%, restore,
        audit, verify the journal against the restored state, resume.
        Every op covered by the restored checkpoint must be visible;
        only journaled-ahead ops whose checkpoint never published may be
        lost, at most one checkpoint interval's worth."""
        report = run_fault_scenario(
            n0=128,
            duration_s=1.5,
            plan=FaultPlan(kill_at_fraction=0.5),
            checkpoint_every=2,
            checkpoint_keep=4,
            max_batch=16,
            clients=24,
            resume_s=0.5,
            seed=23,
            root=tmp_path / "faults",
        )
        assert report.killed, report.error
        assert report.checkpoints_on_disk >= 1
        assert report.invariants_ok and report.resumed_invariants_ok
        assert report.journal_mismatches == []
        assert report.journal_lost_bound == 2 * 16  # one interval
        assert report.journal_lost <= report.journal_lost_bound
        assert report.resumed_ok_events > 0
        assert report.final_step >= report.restored_step
        assert report.passed, report

    def test_corrupted_newest_checkpoint_falls_back_within_bound(self, tmp_path):
        """Crash plus disk damage: the newest checkpoint is corrupted
        after the kill, restore falls back to an older one, and the
        journalled loss stays within one checkpoint interval's worth of
        in-flight operations."""
        report = run_fault_scenario(
            n0=128,
            duration_s=2.0,
            plan=FaultPlan(kill_at_fraction=0.5, corruption="corrupt-array"),
            checkpoint_every=2,
            checkpoint_keep=4,
            max_batch=16,
            clients=24,
            resume_s=0.5,
            seed=29,
            root=tmp_path / "faults",
        )
        assert report.killed, report.error
        assert report.corrupted is not None
        assert report.skipped_corrupt >= 1
        assert report.journal_lost_bound == 2 * 2 * 16  # two intervals
        assert report.journal_lost <= report.journal_lost_bound
        assert report.journal_mismatches == []
        assert report.passed, report


class TestOverloadFault:
    def test_overload_fraction_must_be_interior(self):
        for fraction in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="overload_at_fraction"):
                FaultPlan(overload_at_fraction=fraction)
        with pytest.raises(ValueError, match="overload_clients"):
            FaultPlan(overload_at_fraction=0.5, overload_clients=0)

    def test_no_kill_report_passes_without_a_kill(self):
        report = RecoveryReport(
            plan={"kill": False},
            killed=False,
            invariants_ok=True,
            journal_lost=0,
            journal_lost_bound=0,
            resumed_invariants_ok=True,
            resumed_ok_events=5,
        )
        assert report.passed
        report.plan = {"kill": True}
        assert not report.passed  # a planned kill that never landed

    def test_overload_spike_clean_drain_answers_everyone(self, tmp_path):
        """An offered-load spike mid-soak with no kill: the worker runs
        to completion, drains, and writes its final receipt -- proving
        no request future hung under the overload (a hung future would
        wedge the drain and trip the no-kill timeout).  Under ``fixed``
        with a fleet larger than the queue the door itself rejects: the
        drill must then measure the overloaded gateway, not a rejected
        client spinning on the event loop (every queued request would
        wait out the rest of the spike, 720 ms here)."""
        for policy, overload_clients in (("shed-oldest", 96), ("fixed", 256)):
            report = run_fault_scenario(
                n0=64,
                duration_s=1.2,
                plan=FaultPlan(
                    kill=False,
                    overload_at_fraction=0.4,
                    overload_clients=overload_clients,
                ),
                checkpoint_every=2,
                checkpoint_keep=4,
                max_batch=16,
                clients=16,
                resume_s=0.3,
                seed=31,
                policy=policy,
                root=tmp_path / f"faults-{policy}",
            )
            assert not report.killed
            assert report.passed, report
            assert report.overload is not None
            snapshot = report.overload["snapshot"]
            assert snapshot["events"] > 0
            # The spike fleet saturated a queue the steady fleet never
            # fills; the policy answered the excess at the door.
            assert snapshot["backpressure"] + snapshot["shed"] > 0
            assert snapshot["ack_p99_ms"] < 360, (policy, snapshot)
            assert snapshot["backpressure"] < 20 * snapshot["events"], (policy, snapshot)
            assert report.journal_mismatches == []
