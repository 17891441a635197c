"""Cost ledgers: what each charge adds to one step's record."""

from repro.net.metrics import CostLedger


class TestCostLedger:
    def test_charge_walk(self):
        ledger = CostLedger()
        ledger.charge_walk(7)
        assert ledger.walks == 1
        assert ledger.walk_hops == 7
        assert ledger.messages == 7
        assert ledger.rounds == 7

    def test_charge_route(self):
        ledger = CostLedger()
        ledger.charge_route(5)
        assert ledger.messages == 5 and ledger.rounds == 5
        assert ledger.walks == 0

    def test_charge_flood(self):
        ledger = CostLedger()
        ledger.charge_flood(rounds=10, messages=200)
        assert ledger.floods == 1
        assert ledger.rounds == 10 and ledger.messages == 200

    def test_charge_parallel_rounds_are_additive_here(self):
        # charge_parallel models one batch: rounds = the batch max,
        # added onto whatever the step already used
        ledger = CostLedger()
        ledger.charge_route(3)
        ledger.charge_parallel(rounds=4, messages=40)
        assert ledger.rounds == 7
        assert ledger.messages == 43

    def test_as_dict_roundtrip(self):
        ledger = CostLedger(rounds=5, retries=2)
        d = ledger.as_dict()
        assert d["rounds"] == 5 and d["retries"] == 2
        assert set(d) >= {"rounds", "messages", "topology_changes", "walks"}

