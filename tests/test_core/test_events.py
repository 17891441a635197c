"""StepReport structure and summary formatting."""

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.types import StepKind


class TestStepReports:
    def test_report_fields(self, small_net):
        report = small_net.insert()
        assert report.step == 1
        assert report.kind is StepKind.INSERT
        assert report.n_after == 17
        assert report.p == small_net.p
        assert report.rounds == report.costs.rounds
        assert report.messages == report.costs.messages
        assert report.topology_changes >= 1  # at least the node join

    def test_summary_line_contains_essentials(self, small_net):
        line = small_net.insert().summary_line()
        assert "insert" in line
        assert "n=18" in line.replace(" ", "") or "n=17" in line.replace(" ", "")
        assert "rounds=" in line

    def test_reports_accumulate(self, small_net):
        for _ in range(5):
            small_net.insert()
        assert len(small_net.reports) == 5
        assert [r.step for r in small_net.reports] == [1, 2, 3, 4, 5]

    def test_staggered_flags_in_reports(self):
        net = DexNetwork.bootstrap(16, DexConfig(seed=19))
        saw_progress = False
        for _ in range(200):
            report = net.insert()
            if report.staggered_active:
                assert 0.0 <= report.staggered_progress <= 1.0
                assert report.p_next is not None
                assert report.p_next > report.p
                saw_progress = True
                tagged = report.summary_line()
                assert "stagger" in tagged
        assert saw_progress

    def test_metrics_log_mirrors_reports(self, small_net):
        for _ in range(4):
            small_net.insert()
        # each step's ledger is stored once, on its report
        assert len(small_net.reports) == 4
        assert not hasattr(small_net, "metrics")
        for report in small_net.reports:
            assert report.messages == report.costs.messages
