"""Churn runners (sequential + campaign) and table formatting."""

import pytest

from repro.adversary import ChurnAction, FlashCrowd, RandomChurn, TraceAdversary
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.errors import TraceExhausted
from repro.harness.experiments import lawsiu_factory
from repro.harness.report import Table
from repro.harness.runner import run_campaign, run_churn


class ScriptedActions:
    """Replays explicit ChurnActions, then signals exhaustion."""

    def __init__(self, actions):
        self._actions = iter(actions)

    def next_action(self, view):
        action = next(self._actions, None)
        if action is None:
            raise TraceExhausted("script done")
        return action


class TestRunner:
    def test_series_lengths(self):
        net = DexNetwork.bootstrap(16, DexConfig(seed=101))
        result = run_churn(net, RandomChurn(0.5, seed=101), steps=60, sample_every=20)
        assert result.steps == 60
        assert len(result.ledgers) == 60
        # initial sample + every 20 + final
        assert len(result.gap_samples) >= 4
        assert result.size_samples[0] == (0, 16)

    def test_cost_summary(self):
        net = DexNetwork.bootstrap(16, DexConfig(seed=103))
        result = run_churn(net, RandomChurn(0.5, seed=103), steps=30, sample_every=10)
        summary = result.cost_summary("messages")
        assert summary.count == 30
        assert summary.mean > 0

    def test_min_gap_positive_for_dex(self):
        net = DexNetwork.bootstrap(16, DexConfig(seed=105))
        result = run_churn(net, RandomChurn(0.5, seed=105), steps=40, sample_every=10)
        assert result.min_gap > 0.01

    def test_final_sample_taken_when_last_action_skipped(self):
        """Regression: a skipped (illegal) action on the final step used
        to drop the terminal sample, leaving final_gap() stale."""
        net = DexNetwork.bootstrap(16, DexConfig(seed=107))
        actions = [ChurnAction("insert") for _ in range(4)]
        actions.append(ChurnAction("delete", node=10**9))  # nonexistent
        result = run_churn(net, ScriptedActions(actions), steps=5, sample_every=50)
        assert result.skipped_actions == 1
        assert result.steps == 5
        # The terminal state is sampled: 16 + 4 inserts, skip changed nothing.
        assert result.size_samples[-1] == (5, 20)
        assert result.gap_samples[-1][0] == 5

    def test_trace_exhaustion_ends_run_cleanly(self):
        """Regression: an exhausted TraceAdversary used to leak
        StopIteration out of run_churn."""
        net = DexNetwork.bootstrap(16, DexConfig(seed=109))
        trace = TraceAdversary(["insert"] * 7, seed=109)
        result = run_churn(net, trace, steps=50, sample_every=10)
        assert result.steps == 7  # the steps actually executed
        assert len(result.ledgers) == 7
        assert result.size_samples[-1] == (7, 23)
        assert result.gap_samples[-1][0] == 7


class TestCampaignRunner:
    def test_batches_heal_through_batch_engine(self):
        net = DexNetwork.bootstrap(32, DexConfig(seed=201))
        result = run_campaign(
            net, FlashCrowd(surge=24, seed=201), events=64,
            max_batch=16, sample_every=16,
        )
        assert result.steps == 64
        assert result.batches >= 4
        assert result.batched_events > 0
        assert result.size_samples[0] == (0, 32)
        assert result.gap_samples[-1][0] == 64
        assert result.min_gap > 0.01
        net.check_invariants()  # I1-I8 + cache audits + coordinator oracle

    def test_event_accounting_and_message_series(self):
        net = DexNetwork.bootstrap(32, DexConfig(seed=203))
        result = run_campaign(
            net, RandomChurn(0.5, seed=203), events=48, max_batch=8,
            sample_every=16,
        )
        assert result.steps == 48
        assert sum(ledger.messages for ledger in result.ledgers) == (
            result.message_samples[-1][1]
        )
        steps = [step for step, _ in result.message_samples]
        totals = [total for _, total in result.message_samples]
        assert steps == sorted(steps)
        assert totals == sorted(totals)  # cumulative, monotone

    def test_trace_exhaustion_reports_executed_events(self):
        net = DexNetwork.bootstrap(32, DexConfig(seed=205))
        trace = TraceAdversary(["insert"] * 10 + ["delete"] * 4, seed=205)
        result = run_campaign(net, trace, events=100, max_batch=8)
        assert result.steps == 14
        assert result.size_samples[-1] == (14, 38)

    def test_overlay_without_batch_support_falls_back(self):
        overlay = lawsiu_factory(32, seed=207)
        result = run_campaign(
            overlay, FlashCrowd(surge=16, seed=207), events=32, max_batch=8
        )
        assert result.steps == 32
        assert result.batched_events == 0  # no insert_batch on law-siu
        assert result.batches >= 2
        assert overlay.size > 32

    def test_singleton_runs_use_per_step_path(self):
        net = DexNetwork.bootstrap(32, DexConfig(seed=209))
        result = run_campaign(
            net, RandomChurn(0.5, seed=209), events=16, max_batch=1
        )
        assert result.steps == 16
        assert result.batched_events == 0
        assert len(result.ledgers) == 16

    def test_max_batch_validated(self):
        net = DexNetwork.bootstrap(16, DexConfig(seed=211))
        with pytest.raises(ValueError):
            run_campaign(net, RandomChurn(seed=211), events=8, max_batch=0)


class ScriptedBatches:
    """Emits pre-planned whole batches (the batch-native protocol)."""

    def __init__(self, batches):
        self._batches = list(batches)

    def next_batch(self, view, max_batch):
        if not self._batches:
            return []
        batch = self._batches[0]
        taken, rest = batch[:max_batch], batch[max_batch:]
        if rest:
            self._batches[0] = rest
        else:
            self._batches.pop(0)
        return taken


class TestPartialBatchCampaign:
    """The single-pass partial path that replaced bisection."""

    def _delete_schedule(self, net):
        victims = sorted(net.nodes())[:4]
        return [
            [ChurnAction("insert") for _ in range(6)],
            # 4 legal victims + a nonexistent one + a duplicate
            [ChurnAction("delete", node=u) for u in victims]
            + [ChurnAction("delete", node=10**9)]
            + [ChurnAction("delete", node=victims[0])],
        ]

    def test_rejections_heal_legal_majority_in_one_call(self):
        net = DexNetwork.bootstrap(32, DexConfig(seed=301))
        result = run_campaign(
            net, ScriptedBatches(self._delete_schedule(net)), events=12,
            max_batch=16,
        )
        assert result.steps == 12
        # one insert wave + one delete wave: exactly two engine calls,
        # no bisection, no per-step replay
        assert len(result.ledgers) == 2
        assert result.fallbacks == 2  # the bogus and the duplicate victim
        assert result.skipped_actions == 2
        assert result.batched_events == 10
        net.check_invariants()

    def test_batched_and_sequential_agree_on_rejected_actions(self):
        """Regression for the fallback accounting: the same schedule
        healed batched and per-step must report identical
        rejected-action totals (and end at the same size)."""
        batched_net = DexNetwork.bootstrap(32, DexConfig(seed=303))
        seq_net = DexNetwork.bootstrap(32, DexConfig(seed=303))
        batched = run_campaign(
            batched_net,
            ScriptedBatches(self._delete_schedule(batched_net)),
            events=12,
            max_batch=16,
        )
        sequential = run_campaign(
            seq_net,
            ScriptedBatches(self._delete_schedule(seq_net)),
            events=12,
            max_batch=1,  # singleton runs: the per-step path
        )
        assert batched.skipped_actions == sequential.skipped_actions == 2
        assert batched.fallbacks == 2
        assert sequential.batched_events == 0
        assert batched_net.size == seq_net.size


class TestTable:
    def test_render(self):
        table = Table("demo", ["name", "value"])
        table.add_row("alpha", 1.23456)
        table.add_row("beta", 7)
        table.add_note("a note")
        text = table.render()
        assert "demo" in text
        assert "alpha" in text
        assert "1.235" in text
        assert "note: a note" in text

    def test_arity_checked(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)
