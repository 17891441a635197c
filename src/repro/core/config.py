"""Configuration of the DEX algorithm.

The structural constant is ``zeta = 8``: the maximum cloud size of the
p-cycle construction (inflation/deflation factors lie in (4, 8), so
clouds have at most 8 vertices).  From it the paper derives the load
bounds ``2*zeta`` (the Low threshold), ``4*zeta`` (the balanced-mapping
bound, Definition 3 usage) and ``8*zeta`` (the transient bound during
staggered type-2 recovery, Lemma 9a).

``theta`` is the *rebuilding parameter*: type-1 recovery is expected to
succeed while ``|Spare| >= theta*n`` (insertions) or ``|Low| >= theta*n``
(deletions); type-2 recovery triggers below the threshold (Fact 2), and
the coordinator of the staggered variant triggers early at ``3*theta*n``
(Section 4.4).  The proof needs ``theta <= 1/(68*zeta + 1)`` (Eq. 3);
:meth:`DexConfig.paper` restores that value, while the default 0.02 keeps
identical trigger structure at laptop-scale n (substitution 3 of
``docs/substitutions.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigError

PAPER_ZETA = 8


@dataclass(frozen=True)
class DexConfig:
    """Immutable algorithm parameters."""

    zeta: int = PAPER_ZETA
    theta: float = 0.02
    walk_multiplier: float = 3.0
    max_type1_retries: int = 60
    type2_mode: str = "staggered"  # "staggered" (worst-case) or "simplified" (amortized)
    fidelity: str = "analytic"  # "analytic" or "engine" cost accounting for primitives
    min_network_size: int = 3
    validate_every_step: bool = False
    #: batched churn validates the adversary's batch up front (attach
    #: fan-out, surviving neighbors, remainder connectivity).  Single
    #: steps perform no such model check, so perf comparisons of the
    #: *healing* engines disable it; leave on whenever the batch source
    #: is untrusted.
    validate_batches: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.zeta < 8:
            raise ConfigError(
                f"zeta must be >= 8 (the p-cycle cloud-size bound), got {self.zeta}"
            )
        if not (0.0 < self.theta <= 1.0 / 3.0):
            raise ConfigError(f"theta must be in (0, 1/3], got {self.theta}")
        if self.walk_multiplier <= 0:
            raise ConfigError("walk_multiplier must be positive")
        if self.type2_mode not in ("staggered", "simplified"):
            raise ConfigError(f"unknown type2_mode {self.type2_mode!r}")
        if self.fidelity not in ("analytic", "engine"):
            raise ConfigError(f"unknown fidelity {self.fidelity!r}")
        if self.min_network_size < 2:
            raise ConfigError("min_network_size must be >= 2")

    # ------------------------------------------------------------------
    # derived thresholds
    # ------------------------------------------------------------------
    @property
    def low_threshold(self) -> int:
        """Load at or below which a node is in Low (Eq. 1): ``2*zeta``."""
        return 2 * self.zeta

    @property
    def max_load(self) -> int:
        """The balanced-mapping bound: ``4*zeta`` (Lemma 3/5)."""
        return 4 * self.zeta

    @property
    def stagger_max_load(self) -> int:
        """Transient bound during staggered type-2 recovery: ``8*zeta``
        (Lemma 9a)."""
        return 8 * self.zeta

    @property
    def chunk_size(self) -> int:
        """Old vertices processed per step of a staggered operation:
        the paper's ``ceil(1/theta)`` active vertices, the value Lemma 9
        is stated for."""
        return max(1, math.ceil(1.0 / self.theta))

    def walk_length(self, n: int) -> int:
        """Type-1 walk budget: ``ceil(walk_multiplier * log2(n))`` hops."""
        return max(2, math.ceil(self.walk_multiplier * math.log2(max(n, 2))))

    def type1_threshold(self, n: int) -> int:
        """``theta * n`` as an integer count (Fact 2 comparisons)."""
        return math.ceil(self.theta * n)

    def coordinator_threshold(self, n: int) -> int:
        """``3 * theta * n`` -- the staggered early trigger (Section 4.4)."""
        return math.ceil(3.0 * self.theta * n)

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, **overrides: object) -> "DexConfig":
        """The analysis constants: ``theta = 1/(68*zeta + 1)`` (Eq. 3)."""
        base = cls(theta=1.0 / (68.0 * PAPER_ZETA + 1.0))
        return replace(base, **overrides) if overrides else base

    def with_(self, **overrides: object) -> "DexConfig":
        """Functional update helper."""
        return replace(self, **overrides)
