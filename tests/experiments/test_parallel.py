"""The parallel replicate runner: bit-identity, pickling, dispatch edges."""

import pickle

import numpy as np
import pytest

from repro.core.strategies.registry import make_strategy
from repro.experiments.parallel import (
    FixedPlatformSpec,
    HeterogeneityPlatformSpec,
    RepJob,
    ScenarioPlatformSpec,
    StrategySpec,
    UniformPlatformSpec,
    _chunk_indices,
    parallel_average_normalized_comm,
    resolve_workers,
)
from repro.experiments.runner import average_normalized_comm
from repro.platform.platform import Platform
from repro.platform.speeds import SCENARIO_NAMES, uniform_speeds
from repro.utils.rng import spawn_seed_sequences


OUTER = StrategySpec("RandomOuter", 20)
MATRIX = StrategySpec("DynamicMatrix", 8)
PLATFORM = UniformPlatformSpec(6)


class TestBitIdentical:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_outer_kernel_matches_serial(self, workers):
        serial = average_normalized_comm(OUTER, PLATFORM, 20, 7, seed=42, workers=1)
        par = average_normalized_comm(OUTER, PLATFORM, 20, 7, seed=42, workers=workers)
        assert par == serial

    @pytest.mark.parametrize("workers", [2, 4])
    def test_matrix_kernel_matches_serial(self, workers):
        serial = average_normalized_comm(MATRIX, PLATFORM, 8, 5, seed=3, workers=1)
        par = average_normalized_comm(MATRIX, PLATFORM, 8, 5, seed=3, workers=workers)
        assert par == serial

    def test_scenario_factory_matches_serial(self):
        spec = ScenarioPlatformSpec(sorted(SCENARIO_NAMES)[0], 5)
        serial = average_normalized_comm(OUTER, spec, 20, 4, seed=1, workers=1)
        par = average_normalized_comm(OUTER, spec, 20, 4, seed=1, workers=2)
        assert par == serial

    def test_closure_factories_match_serial(self):
        # Unpicklable lambdas cannot cross to the worker pool; the runner
        # falls back to the serial path, with identical results.
        strategy = lambda: make_strategy("RandomOuter", 15)  # noqa: E731
        platform = lambda rng: Platform(uniform_speeds(4, 10.0, 100.0, rng=rng))  # noqa: E731
        serial = average_normalized_comm(strategy, platform, 15, 6, seed=9, workers=1)
        par = average_normalized_comm(strategy, platform, 15, 6, seed=9, workers=2)
        assert par == serial

    def test_chunk_size_does_not_change_results(self):
        base = parallel_average_normalized_comm(OUTER, PLATFORM, 20, 6, seed=5, workers=2)
        tiny = parallel_average_normalized_comm(
            OUTER, PLATFORM, 20, 6, seed=5, workers=2, chunk_size=1
        )
        assert tiny == base

    def test_workers_zero_resolves_to_cpu_count(self):
        serial = average_normalized_comm(OUTER, PLATFORM, 20, 4, seed=0, workers=1)
        auto = average_normalized_comm(OUTER, PLATFORM, 20, 4, seed=0, workers=0)
        assert auto == serial


class TestRepJob:
    def test_pickle_round_trip_preserves_values(self):
        seeds = spawn_seed_sequences(0, 4)
        job = RepJob(OUTER, PLATFORM, 20, seeds)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.run([0, 2]) == job.run([0, 2])

    def test_run_respects_index_order(self):
        job = RepJob(OUTER, PLATFORM, 20, spawn_seed_sequences(0, 4))
        forward = job.run([0, 1, 2, 3])
        reversed_ = job.run([3, 2, 1, 0])
        assert forward == reversed_[::-1]

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            RepJob(OUTER, PLATFORM, 0, spawn_seed_sequences(0, 1))


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

    def test_chunk_indices_cover_all_reps_in_order(self):
        chunks = _chunk_indices(10, 3, None)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(10))

    def test_chunk_indices_explicit_size(self):
        assert _chunk_indices(5, 2, 2) == [[0, 1], [2, 3], [4]]
        with pytest.raises(ValueError):
            _chunk_indices(5, 2, 0)

    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError):
            parallel_average_normalized_comm(OUTER, PLATFORM, 20, 0, seed=0)
