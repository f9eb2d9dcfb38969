"""Vectorized-engine wiring through the runner and bench layers.

The engine-level equivalence lives in ``tests/simulator/test_batch.py``;
here we pin the plumbing: ``vectorize`` mode resolution, bit-identical
summaries/snapshots across engine selections, cache coherence across
modes, and the bench suite's scaling workloads and derived metrics.
"""

import pytest

from repro.experiments.bench import _derive_metrics, build_suite
from repro.experiments.parallel import StrategySpec, UniformPlatformSpec
from repro.experiments.runner import average_normalized_comm
from repro.obs.sink import RecordingSink
from repro.store.cache import ResultStore


@pytest.fixture
def cell():
    return StrategySpec("RandomMatrix", 6), UniformPlatformSpec(10)


class TestRunnerVectorize:
    def test_modes_bit_identical(self, cell):
        strategy, platform = cell
        scalar = average_normalized_comm(strategy, platform, 6, 5, seed=2, vectorize=False)
        vector = average_normalized_comm(strategy, platform, 6, 5, seed=2, vectorize=True)
        auto = average_normalized_comm(strategy, platform, 6, 5, seed=2)
        assert scalar == vector == auto

    def test_sink_snapshots_bit_identical(self, cell):
        strategy, platform = cell
        scalar_sink, vector_sink = RecordingSink(), RecordingSink()
        average_normalized_comm(
            strategy, platform, 6, 4, seed=3, vectorize=False, sink=scalar_sink
        )
        average_normalized_comm(
            strategy, platform, 6, 4, seed=3, vectorize=True, sink=vector_sink
        )
        assert scalar_sink.snapshot() == vector_sink.snapshot()

    def test_auto_falls_back_for_fast_path_ineligible_strategy(self, cell):
        # collect_ids needs per-task id lists the kernels do not build, so
        # "auto" must transparently run the scalar loop.
        _, platform = cell
        strategy = StrategySpec("RandomOuter", 6, collect_ids=True)
        scalar = average_normalized_comm(strategy, platform, 6, 3, seed=1, vectorize=False)
        auto = average_normalized_comm(strategy, platform, 6, 3, seed=1)
        assert scalar == auto

    def test_true_requires_the_fast_path(self, cell):
        _, platform = cell
        with pytest.raises(ValueError, match="no vector kernel"):
            average_normalized_comm(
                StrategySpec("RandomOuter", 6, collect_ids=True),
                platform,
                6,
                3,
                vectorize=True,
            )

    def test_invalid_mode_rejected(self, cell):
        strategy, platform = cell
        with pytest.raises(ValueError, match="vectorize"):
            average_normalized_comm(strategy, platform, 6, 3, vectorize="yes")

    def test_cache_coherent_across_modes(self, cell, tmp_path):
        strategy, platform = cell
        store = ResultStore(str(tmp_path))
        scalar = average_normalized_comm(
            strategy, platform, 6, 4, seed=5, vectorize=False, cache=store
        )
        hit = average_normalized_comm(
            strategy, platform, 6, 4, seed=5, vectorize=True, cache=store
        )
        assert scalar == hit
        assert store.counts.hits == 1


class TestBenchScaling:
    def test_scaling_suite_shape(self):
        names = [wl.name for wl in build_suite("scaling")]
        for reps in (1, 4, 16, 64):
            for engine in ("serial", "vectorized"):
                assert f"scaling_reps{reps:02d}_{engine}" in names
        assert "twophase_beta_sweep_serial" in names
        assert "twophase_beta_sweep_vectorized" in names
        for label in ("outer", "matrix"):
            for reps in (2, 5, 10):
                for engine in ("serial", "vectorized"):
                    assert f"lockstep_{label}_reps{reps:02d}_{engine}" in names
        assert len(names) == 22

    def test_scaling_suite_records_engine_params(self):
        by_name = {wl.name: wl for wl in build_suite("scaling")}
        assert by_name["scaling_reps04_vectorized"].params["engine"] == "vectorized"
        assert by_name["twophase_beta_sweep_vectorized"].params["engine"] == "vectorized"
        serial = by_name["twophase_beta_sweep_serial"].params
        assert serial["engine"] == "scalar"
        assert serial["vectorize_fallback"] == "forced"
        lockstep = by_name["lockstep_matrix_reps05_vectorized"].params
        assert (lockstep["strategy"], lockstep["n"], lockstep["p"], lockstep["reps"]) == (
            "DynamicMatrix",
            40,
            100,
            5,
        )
        assert lockstep["engine"] == "vectorized"
        assert by_name["lockstep_outer_reps02_serial"].params["engine"] == "scalar"

    def test_derive_metrics_two_phase_beta_sweep_speedup(self):
        entries = {
            "twophase_beta_sweep_serial": self._entry(6.0),
            "twophase_beta_sweep_vectorized": self._entry(1.0),
        }
        derived = _derive_metrics(entries)
        assert derived["twophase_beta_sweep_speedup"] == 6.0

    def test_quick_suite_has_vectorized_workload(self):
        names = [wl.name for wl in build_suite("quick")]
        assert "replicate_sweep_vectorized" in names

    @staticmethod
    def _entry(median):
        return {"seconds": {"median": median}}

    def test_derive_metrics_speedups(self):
        entries = {
            "replicate_sweep_serial": self._entry(4.0),
            "replicate_sweep_vectorized": self._entry(0.5),
        }
        assert _derive_metrics(entries) == {"replicate_sweep_vectorized_speedup": 8.0}

    def test_derive_metrics_scaling_curve(self):
        entries = {}
        for reps in (1, 4, 16, 64):
            entries[f"scaling_reps{reps:02d}_serial"] = self._entry(1.0 * reps)
            entries[f"scaling_reps{reps:02d}_vectorized"] = self._entry(0.2 * reps)
        curve = _derive_metrics(entries)["scaling_curve"]
        assert [row["reps"] for row in curve] == [1, 4, 16, 64]
        for row in curve:
            assert set(row) == {"reps", "serial_s", "vectorized_s", "vectorized_speedup"}
            assert row["vectorized_speedup"] == pytest.approx(5.0)

    def test_derive_metrics_lockstep_curve(self):
        entries = {}
        for label in ("outer", "matrix"):
            for reps in (2, 5, 10):
                entries[f"lockstep_{label}_reps{reps:02d}_serial"] = self._entry(1.0 * reps)
                entries[f"lockstep_{label}_reps{reps:02d}_vectorized"] = self._entry(0.25 * reps)
        del entries["lockstep_matrix_reps10_vectorized"]  # an incomplete pair is skipped
        curve = _derive_metrics(entries)["lockstep_curve"]
        assert [(row["strategy"], row["reps"]) for row in curve] == [
            ("DynamicOuter", 2),
            ("DynamicOuter", 5),
            ("DynamicOuter", 10),
            ("DynamicMatrix", 2),
            ("DynamicMatrix", 5),
        ]
        for row in curve:
            assert row["vectorized_speedup"] == pytest.approx(4.0)
            assert row["serial_s"] == pytest.approx(row["reps"])

    def test_derive_metrics_empty(self):
        assert _derive_metrics({}) == {}
