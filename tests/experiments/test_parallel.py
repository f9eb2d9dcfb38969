"""The picklable cell specs, cell requests and the ``--workers`` option resolver."""

import pickle

import numpy as np
import pytest

from repro.experiments.parallel import (
    CellRequest,
    FixedPlatformSpec,
    HeterogeneityPlatformSpec,
    ScenarioPlatformSpec,
    StrategySpec,
    UniformPlatformSpec,
    resolve_workers,
)
from repro.platform.speeds import SCENARIO_NAMES


OUTER = StrategySpec("RandomOuter", 20)
PLATFORM = UniformPlatformSpec(6)


class TestSpecs:
    def test_strategy_spec_builds_named_strategy(self):
        strategy = StrategySpec("DynamicOuter", 12)()
        assert strategy.kernel == "outer"

    def test_strategy_spec_forwards_kwargs(self):
        spec = StrategySpec("DynamicOuter2Phases", 12, phase1_fraction=0.5)
        assert spec() is not None
        assert spec == StrategySpec("DynamicOuter2Phases", 12, phase1_fraction=0.5)
        assert spec != StrategySpec("DynamicOuter2Phases", 12)

    def test_fixed_platform_spec_ignores_rng(self):
        spec = FixedPlatformSpec([10.0, 20.0, 30.0])
        a = spec(np.random.default_rng(0))
        b = spec(np.random.default_rng(99))
        assert np.array_equal(a.speeds, b.speeds)

    def test_heterogeneity_spec_validates_h(self):
        with pytest.raises(ValueError):
            HeterogeneityPlatformSpec(4, 100.0)

    def test_scenario_spec_rejects_unknown(self):
        with pytest.raises(ValueError):
            ScenarioPlatformSpec("no-such-scenario", 4)

    def test_specs_are_picklable(self):
        for spec in (
            OUTER,
            PLATFORM,
            FixedPlatformSpec([1.0, 2.0]),
            HeterogeneityPlatformSpec(4, 50.0),
            ScenarioPlatformSpec(sorted(SCENARIO_NAMES)[0], 4),
        ):
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestDispatchHelpers:
    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)
        with pytest.raises(TypeError):
            resolve_workers(True)
        with pytest.raises(TypeError):
            resolve_workers(2.0)

    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError):
            CellRequest(OUTER, PLATFORM, 20, 0, seed=0)
