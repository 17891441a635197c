"""Cross-check the two cost-fidelity modes (DESIGN.md substitution 1):
the `engine` mode schedules every computeSpare/computeLow message on the
synchronous engine, the `analytic` mode charges the closed form; the
aggregates must be identical and the charges must agree."""

import pytest

from repro.core.aggregation import compute_low, compute_spare
from repro.core.config import DexConfig
from repro.core.dex import DexNetwork
from repro.core.multi import partition_delete_batch
from repro.core.type1 import adopt_deleted
from repro.net.metrics import CostLedger


@pytest.fixture
def nets():
    analytic = DexNetwork.bootstrap(14, DexConfig(seed=31, fidelity="analytic"))
    engine = DexNetwork.bootstrap(14, DexConfig(seed=31, fidelity="engine"))
    return analytic, engine


class TestFidelityAgreement:
    def test_compute_spare_same_aggregate(self, nets):
        analytic, engine = nets
        origin = 0
        la, le = CostLedger(), CostLedger()
        na, sa = compute_spare(analytic.overlay, origin, analytic.config, la)
        ne, se = compute_spare(engine.overlay, origin, engine.config, le)
        assert (na, sa) == (ne, se)
        assert la.messages == le.messages
        assert abs(la.rounds - le.rounds) <= 3

    def test_compute_low_same_aggregate(self, nets):
        analytic, engine = nets
        la, le = CostLedger(), CostLedger()
        assert compute_low(analytic.overlay, 0, analytic.config, la) == compute_low(
            engine.overlay, 0, engine.config, le
        )
        assert la.messages == le.messages

    def test_same_aggregates_mid_batch(self):
        """Between the adoption sweep and the redistribution waves --
        adopters overloaded, victims gone, rows stale -- is where a
        failed walk floods: the cached counts the analytic flood reads
        must be what the engine's per-node sum finds."""
        pair = [
            DexNetwork.bootstrap(64, DexConfig(seed=37, fidelity=f, type2_mode="simplified"))
            for f in ("analytic", "engine")
        ]
        answers = []
        for net in pair:
            for k in range(30):  # loads rise: some nodes leave Low ...
                net.delete(sorted(net.nodes())[(7 * k) % net.size])
            for _ in range(8):  # ... and one-vertex joiners are not in Spare
                net.insert()
            victims = sorted(net.nodes())[2:20:3]
            legal, rejected, adopter = partition_delete_batch(net, victims)
            assert len(legal) == 6 and not rejected
            for u in legal[:-1]:
                net.overlay.adopt_node(u, adopter[u])
            adopt_deleted(net, legal[-1], CostLedger(), adopter=adopter[legal[-1]])
            origin = adopter[legal[0]]
            ledger = CostLedger()
            spare = compute_spare(net.overlay, origin, net.config, ledger)
            low = compute_low(net.overlay, origin, net.config, ledger)
            assert spare[0] == low[0] == net.size == 36
            assert 0 < spare[1] < 36 and 0 < low[1] < 36
            answers.append((spare, low, ledger.messages, ledger.floods))
        assert answers[0] == answers[1] and answers[0][3] == 2

    def test_engine_mode_full_churn(self):
        """A short full-churn run in engine fidelity stays correct (the
        expensive path; exercised here at small n)."""
        net = DexNetwork.bootstrap(
            12,
            DexConfig(
                seed=33,
                fidelity="engine",
                type2_mode="simplified",
                validate_every_step=True,
            ),
        )
        for _ in range(60):
            net.insert()
        assert net.spectral_gap() > 0.01

    def test_engine_mode_matches_analytic_history(self):
        """With identical seeds the two modes make identical topology
        decisions (only cost accounting differs)."""
        def history(fidelity):
            net = DexNetwork.bootstrap(12, DexConfig(seed=35, fidelity=fidelity))
            out = []
            for _ in range(30):
                report = net.insert()
                out.append((report.recovery, report.n_after, report.p))
            return out

        assert history("analytic") == history("engine")
