"""The exception hierarchy: everything derives from ReproError so library
failures are cleanly catchable."""

import pytest

from repro import errors


class TestHierarchy:
    ALL = [
        errors.ConfigError,
        errors.TopologyError,
        errors.VirtualGraphError,
        errors.MappingError,
        errors.InvariantViolation,
        errors.RecoveryError,
        errors.AdversaryError,
        errors.ServiceError,
        errors.GatewayClosed,
        errors.PolicyError,
        errors.SnapshotError,
        errors.CorruptSnapshot,
        errors.DHTError,
        errors.SimulationError,
    ]

    def test_all_derive_from_repro_error(self):
        for exc in self.ALL:
            assert issubclass(exc, errors.ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.RecoveryError("boom")

    def test_not_collapsed_into_one(self):
        assert not issubclass(errors.TopologyError, errors.MappingError)
        assert not issubclass(errors.DHTError, errors.SimulationError)

    def test_corrupt_snapshot_is_a_snapshot_error(self):
        assert issubclass(errors.CorruptSnapshot, errors.SnapshotError)
        assert not issubclass(errors.SnapshotError, errors.CorruptSnapshot)

    def test_policy_error_is_a_service_error(self):
        assert issubclass(errors.PolicyError, errors.ServiceError)

    def test_library_raises_its_own_types(self):
        from repro.virtual.primes import initial_prime

        with pytest.raises(errors.VirtualGraphError):
            initial_prime(0)

        from repro.core.config import DexConfig

        with pytest.raises(errors.ConfigError):
            DexConfig(theta=2.0)

        from repro import DexNetwork

        net = DexNetwork.bootstrap(8, DexConfig(seed=1))
        with pytest.raises(errors.AdversaryError):
            net.insert(node_id=0)
