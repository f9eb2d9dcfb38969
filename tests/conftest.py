"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.platform import Platform, uniform_speeds

# Property tests draw the same examples on every run and save no failing
# example to replay later, so a run's result depends on the code alone.
# ``HYPOTHESIS_PROFILE=explore`` searches at random (with the example
# database) instead.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repeatable"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_platform() -> Platform:
    """Four workers with simple integer speeds (total 10)."""
    return Platform([1.0, 2.0, 3.0, 4.0])


@pytest.fixture
def paper_platform() -> Platform:
    """Twenty workers with speeds uniform in [10, 100] (paper default)."""
    return Platform(uniform_speeds(20, 10, 100, rng=7))


@pytest.fixture
def homogeneous_platform() -> Platform:
    return Platform.homogeneous(8, speed=5.0)
