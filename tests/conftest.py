"""Shared fixtures and helpers for the DEX reproduction test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.core.config import DexConfig
from repro.core.dex import DexNetwork

#: ``--hypothesis-profile=deep``: the churn machine of test_properties.py
#: with a budget far past tier-1's (CI runs it as its own step); the
#: default profile is left as it is.  A failure prints its
#: ``@reproduce_failure`` blob, so a red run replays without the search.
settings.register_profile(
    "deep", max_examples=200, stateful_step_count=60, deadline=None, print_blob=True
)

#: primes used across the structural tests (all valid p-cycle sizes)
SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def small_net() -> DexNetwork:
    """A 16-node DEX network with per-step invariant validation."""
    return DexNetwork.bootstrap(
        16, DexConfig(seed=7, validate_every_step=True), seed=7
    )


@pytest.fixture
def simplified_net() -> DexNetwork:
    return DexNetwork.bootstrap(
        16,
        DexConfig(seed=7, validate_every_step=True, type2_mode="simplified"),
        seed=7,
    )


def drive_inserts(net: DexNetwork, count: int) -> None:
    for _ in range(count):
        net.insert()


def drive_deletes(net: DexNetwork, count: int) -> None:
    for _ in range(count):
        net.delete(net.random_node())
