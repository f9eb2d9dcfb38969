"""Tests for repro.experiments.runner."""

import dataclasses

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.core.strategies import OuterDynamic, OuterRandom
from repro.experiments.parallel import ScenarioPlatformSpec, StrategySpec, UniformPlatformSpec
from repro.experiments.runner import (
    average_normalized_comm,
    average_normalized_comm_group,
    collect_planned_cells,
    mean_analysis_ratio,
)
from repro.obs.sink import RecordingSink
from repro.platform import DynamicSpeedModel, Platform, uniform_speeds
from repro.store.cache import ResultStore


def factory(rng):
    return Platform(uniform_speeds(10, 10, 100, rng=rng))


class TestAverageNormalizedComm:
    def test_basic(self):
        summary = average_normalized_comm(lambda: OuterDynamic(12), factory, 12, reps=3, seed=0)
        assert summary.n == 3
        assert summary.mean >= 1.0

    def test_reproducible(self):
        a = average_normalized_comm(lambda: OuterRandom(10), factory, 10, reps=3, seed=5)
        b = average_normalized_comm(lambda: OuterRandom(10), factory, 10, reps=3, seed=5)
        assert a.mean == b.mean and a.std == b.std

    def test_seed_matters(self):
        a = average_normalized_comm(lambda: OuterRandom(10), factory, 10, reps=3, seed=1)
        b = average_normalized_comm(lambda: OuterRandom(10), factory, 10, reps=3, seed=2)
        assert a.mean != b.mean

    def test_platform_with_speed_model(self):
        def dyn_factory(rng):
            return Platform(uniform_speeds(5, 80, 120, rng=rng)), DynamicSpeedModel(0.05)

        summary = average_normalized_comm(lambda: OuterDynamic(10), dyn_factory, 10, reps=2, seed=0)
        assert summary.mean >= 1.0

    def test_invalid_reps(self):
        with pytest.raises(ValueError):
            average_normalized_comm(lambda: OuterDynamic(5), factory, 5, reps=0)


class TestMeanAnalysisRatio:
    def test_outer(self):
        summary = mean_analysis_ratio("outer", factory, 50, reps=3, seed=0)
        assert 1.0 <= summary.mean <= 5.0

    def test_matrix(self):
        summary = mean_analysis_ratio("matrix", factory, 20, reps=3, seed=0)
        assert 1.0 <= summary.mean <= 6.0

    def test_fixed_beta(self):
        at_opt = mean_analysis_ratio("outer", factory, 50, reps=3, seed=0)
        off_opt = mean_analysis_ratio("outer", factory, 50, reps=3, seed=0, beta=0.5)
        assert at_opt.mean <= off_opt.mean

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            mean_analysis_ratio("conv", factory, 10, reps=1)

    def test_invalid_reps(self):
        with pytest.raises(ValueError):
            mean_analysis_ratio("outer", factory, 10, reps=-1)


#: One figure point: a beta sweep (duplicate beta included), auto beta, the
#: Dynamic* cell, and a cell outside the group (per-task ids take the scalar
#: engine).
POINT = [
    StrategySpec("DynamicOuter2Phases", 10, beta=1.0),
    StrategySpec("RandomOuter", 10, collect_ids=True),
    StrategySpec("DynamicOuter2Phases", 10, beta=2.0),
    StrategySpec("DynamicOuter", 10),
    StrategySpec("DynamicOuter2Phases", 10, beta=2.0),
    StrategySpec("DynamicOuter2Phases", 10),
]

#: A matrix point holding all five matrix strategies, two-phase at beta = 0
#: (no phase 1) and auto beta: one group.
MATRIX_POINT = [
    StrategySpec("SortedMatrix", 10),
    StrategySpec("DynamicMatrix2Phases", 10, beta=0.0),
    StrategySpec("RandomMatrix", 10),
    StrategySpec("DynamicMatrix", 10),
    StrategySpec("MapReduceMatrix", 10),
    StrategySpec("DynamicMatrix2Phases", 10),
]


def _per_cell(factories, platform, **kwargs):
    return [average_normalized_comm(f, platform, 10, 3, **kwargs) for f in factories]


def _store_state(store):
    counts = dataclasses.astuple(store.counts)
    return counts, sorted(entry.fingerprint for entry in store.entries())


class TestGroupEntry:
    @pytest.mark.parametrize("precached", [(), (0, 3, 4), tuple(range(len(POINT)))])
    def test_matches_per_cell_loop(self, tmp_path, precached):
        platform = UniformPlatformSpec(6)
        for kernel, point in (("outer", POINT), ("matrix", MATRIX_POINT)):
            stores = []
            for name in ("loop", "group"):
                store = ResultStore(str(tmp_path / kernel / name))
                for idx in precached:
                    average_normalized_comm(point[idx], platform, 10, 3, seed=4, cache=store)
                store.counts = type(store.counts)()
                stores.append(store)
            loop_store, group_store = stores
            expected = _per_cell(point, platform, seed=4, cache=loop_store)
            got = average_normalized_comm_group(point, platform, 10, 3, seed=4, cache=group_store)
            assert got == expected
            assert _store_state(group_store) == _store_state(loop_store)
            assert average_normalized_comm_group(point, platform, 10, 3, seed=4) == expected

    def test_one_lockstep_per_group(self, monkeypatch):
        calls = []
        real = runner_module.simulate_sweep

        def spy(factories, *args, **kwargs):
            calls.append(len(factories))
            return real(factories, *args, **kwargs)

        monkeypatch.setattr(runner_module, "simulate_sweep", spy)
        matrix_point = [StrategySpec("DynamicMatrix", 5), StrategySpec("DynamicMatrix2Phases", 5)]
        average_normalized_comm_group(POINT, UniformPlatformSpec(6), 10, 3, seed=4)
        average_normalized_comm_group(matrix_point, UniformPlatformSpec(6), 5, 3, seed=4)
        average_normalized_comm_group(MATRIX_POINT, UniformPlatformSpec(6), 10, 3, seed=4)
        assert calls == [5, 2, 6]

    def test_plans_the_group_as_one_unit(self):
        with collect_planned_cells() as loop_units:
            _per_cell(POINT, UniformPlatformSpec(6), seed=4)
        with collect_planned_cells() as group_units:
            got = average_normalized_comm_group(POINT, UniformPlatformSpec(6), 10, 3, seed=4)
        assert len(got) == len(POINT)
        assert [len(unit) for unit in loop_units] == [1] * len(POINT)
        # The five Dynamic-family cells (at the first member's position),
        # then the RandomOuter cell: the same cells the loop plans.
        assert [len(unit) for unit in group_units] == [5, 1]
        assert group_units[1] == loop_units[1]
        group_cells = [cell for unit in group_units for cell in unit]
        loop_cells = [cell for unit in loop_units for cell in unit]
        assert sorted(group_cells, key=repr) == sorted(loop_cells, key=repr)

    @pytest.mark.parametrize("case", ["sink", "seed-sequence"])
    def test_plans_cell_by_cell_when_not_grouped(self, case):
        options = {
            "sink": {"sink": RecordingSink()},
            "seed-sequence": {"seed": np.random.SeedSequence(7)},
        }[case]
        with collect_planned_cells() as units:
            average_normalized_comm_group(POINT, UniformPlatformSpec(6), 10, 3, **options)
        assert [len(unit) for unit in units] == [1] * len(POINT)

    @pytest.mark.parametrize("case", ["sink", "dynamic-speeds", "seed-sequence"])
    def test_delegates_cell_by_cell(self, monkeypatch, case):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the shared lockstep must not run")

        monkeypatch.setattr(runner_module, "simulate_sweep", no_sweep)
        if case == "dynamic-speeds":
            platform = ScenarioPlatformSpec("dyn.5", 6)
        else:
            platform = UniformPlatformSpec(6)

        def options():
            # Fresh per call: sinks and seed sequences carry state.
            return {
                "sink": {"sink": RecordingSink()},
                "seed-sequence": {"seed": np.random.SeedSequence(7)},
            }.get(case, {})

        loop_opts, group_opts = options(), options()
        expected = _per_cell(POINT, platform, **{"seed": 4, **loop_opts})
        got = average_normalized_comm_group(POINT, platform, 10, 3, **{"seed": 4, **group_opts})
        assert got == expected
        if case == "sink":
            assert group_opts["sink"].snapshot() == loop_opts["sink"].snapshot()

    def test_dynamic_speeds_probe_once_per_cell(self, tmp_path):
        platform = ScenarioPlatformSpec("dyn.5", 6)
        loop_store = ResultStore(str(tmp_path / "loop"))
        group_store = ResultStore(str(tmp_path / "group"))
        expected = _per_cell(POINT, platform, seed=4, cache=loop_store)
        got = average_normalized_comm_group(POINT, platform, 10, 3, seed=4, cache=group_store)
        assert got == expected
        assert _store_state(group_store) == _store_state(loop_store)

    def test_invalid_reps(self):
        with pytest.raises(ValueError):
            average_normalized_comm_group(POINT, UniformPlatformSpec(6), 10, 0)
