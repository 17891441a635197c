"""DexConfig validation and derived thresholds."""

import math

import pytest

from repro.core.config import DexConfig
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        config = DexConfig()
        assert config.zeta == 8
        assert config.type2_mode == "staggered"

    def test_zeta_lower_bound(self):
        with pytest.raises(ConfigError):
            DexConfig(zeta=4)

    def test_theta_range(self):
        with pytest.raises(ConfigError):
            DexConfig(theta=0.0)
        with pytest.raises(ConfigError):
            DexConfig(theta=0.5)

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            DexConfig(type2_mode="fancy")
        with pytest.raises(ConfigError):
            DexConfig(fidelity="quantum")


class TestDerived:
    def test_load_thresholds(self):
        config = DexConfig()
        assert config.low_threshold == 16  # 2*zeta (Eq. 1)
        assert config.max_load == 32  # 4*zeta (Definition 3 usage)
        assert config.stagger_max_load == 64  # 8*zeta (Lemma 9a)

    def test_walk_length_logarithmic(self):
        config = DexConfig(walk_multiplier=3.0)
        assert config.walk_length(1024) == 30
        assert config.walk_length(1) >= 2

    def test_thresholds_scale_with_n(self):
        config = DexConfig(theta=0.02)
        assert config.type1_threshold(100) == 2
        assert config.coordinator_threshold(100) == 6

    def test_chunk_default_is_inverse_theta(self):
        assert DexConfig(theta=0.02).chunk_size == 50

    def test_paper_preset(self):
        config = DexConfig.paper()
        assert config.theta == pytest.approx(1.0 / (68 * 8 + 1))
        assert config.chunk_size == math.ceil(68 * 8 + 1)

    def test_with_override(self):
        config = DexConfig().with_(seed=99)
        assert config.seed == 99
        assert config.theta == DexConfig().theta
