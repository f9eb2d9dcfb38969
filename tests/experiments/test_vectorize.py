"""Vectorized-engine wiring through the runner and bench layers.

The engine-level equivalence lives in ``tests/simulator/test_batch.py``;
here we pin the plumbing: the runner's summaries and sink snapshots equal
a scalar oracle loop (one :func:`simulate` per replicate) on kernel cells
and on cells that fall back, cache entries equal the oracle too, and the
bench suite's scaling workloads and derived metrics.
"""

import pytest

from repro.core.analysis.lower_bounds import lower_bound
from repro.core.strategies import OuterDynamic
from repro.experiments.bench import _derive_metrics, build_suite
from repro.experiments.parallel import (
    HeterogeneityPlatformSpec,
    ScenarioPlatformSpec,
    StrategySpec,
    UniformPlatformSpec,
)
from repro.experiments.runner import average_normalized_comm
from repro.obs.profile import StageProfiler
from repro.obs.sink import RecordingSink
from repro.simulator.engine import simulate
from repro.store.cache import ResultStore
from repro.utils.rng import spawn_rngs
from repro.utils.stats import RunningStats


def scalar_oracle(strategy_factory, platform_factory, n, reps, seed, sink=None):
    """The runner's cell as one scalar simulate per replicate.

    Each stream draws its platform, then simulates; with a *sink*, each
    replicate's snapshot is folded in replicate order.
    """
    stats = RunningStats()
    for rng in spawn_rngs(seed, reps):
        made = platform_factory(rng)
        platform, model = made if isinstance(made, tuple) else (made, None)
        strategy = strategy_factory()
        rep_sink = None if sink is None else RecordingSink()
        result = simulate(strategy, platform, rng=rng, speed_model=model, sink=rep_sink)
        stats.add(result.normalized(lower_bound(strategy.kernel, platform.relative_speeds, n)))
        if sink is not None:
            sink.absorb_snapshot(rep_sink.snapshot())
    return stats.summary()


class UserOuterDynamic(OuterDynamic):
    """A user subclass: the registry gives it no vector kernel."""


@pytest.fixture
def cell():
    return StrategySpec("RandomMatrix", 6), UniformPlatformSpec(10)


class TestRunnerVectorize:
    def test_modes_bit_identical(self, cell):
        strategy, platform = cell
        runner = average_normalized_comm(strategy, platform, 6, 5, seed=2)
        assert runner == scalar_oracle(strategy, platform, 6, 5, seed=2)

    def test_sink_snapshots_bit_identical(self, cell):
        strategy, platform = cell
        runner_sink, oracle_sink = RecordingSink(), RecordingSink()
        average_normalized_comm(strategy, platform, 6, 4, seed=3, sink=runner_sink)
        scalar_oracle(strategy, platform, 6, 4, seed=3, sink=oracle_sink)
        assert runner_sink.snapshot() == oracle_sink.snapshot()

    def test_auto_falls_back_for_fast_path_ineligible_strategy(self, cell):
        # collect_ids needs per-task id lists the kernels do not build, so
        # the batch engine runs the scalar loop for it.
        _, platform = cell
        strategy = StrategySpec("RandomOuter", 6, collect_ids=True)
        runner = average_normalized_comm(strategy, platform, 6, 3, seed=1)
        assert runner == scalar_oracle(strategy, platform, 6, 3, seed=1)

    @pytest.mark.parametrize("with_sink", [False, True], ids=["plain", "sink"])
    @pytest.mark.parametrize(
        "strategy,platform",
        [
            (lambda: UserOuterDynamic(8), UniformPlatformSpec(5)),
            (StrategySpec("DynamicOuter2Phases", 8), ScenarioPlatformSpec("dyn.5", 5)),
            (StrategySpec("DynamicMatrix", 5), ScenarioPlatformSpec("dyn.20", 5)),
            (StrategySpec("SortedOuter", 8), HeterogeneityPlatformSpec(5, 60.0)),
        ],
        ids=["user-subclass", "dyn.5", "dyn.20", "heterogeneity"],
    )
    def test_matches_scalar_oracle(self, strategy, platform, with_sink):
        n = strategy().n
        runner_sink = RecordingSink() if with_sink else None
        oracle_sink = RecordingSink() if with_sink else None
        runner = average_normalized_comm(strategy, platform, n, 3, seed=7, sink=runner_sink)
        assert runner == scalar_oracle(strategy, platform, n, 3, seed=7, sink=oracle_sink)
        if with_sink:
            assert runner_sink.snapshot() == oracle_sink.snapshot()

    def test_cache_coherent_across_modes(self, cell, tmp_path):
        strategy, platform = cell
        store = ResultStore(str(tmp_path))
        miss = average_normalized_comm(strategy, platform, 6, 4, seed=5, cache=store)
        hit = average_normalized_comm(strategy, platform, 6, 4, seed=5, cache=store)
        assert miss == hit == scalar_oracle(strategy, platform, 6, 4, seed=5)
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
        assert by_name["scaling_reps04_vectorized"].params["draws"] == "raw-pcg64"
        assert by_name["twophase_beta_sweep_vectorized"].params["engine"] == "vectorized"
        serial = by_name["twophase_beta_sweep_serial"].params
        assert serial["engine"] == "scalar"
        assert "vectorize_fallback" not in serial
        assert "draws" not in serial
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

    def test_serial_rows_compute_the_vectorized_rows_cells(self):
        # The pair differs in engine only: same streams, same platforms.
        by_name = {wl.name: wl for wl in build_suite("quick")}
        serial = by_name["replicate_sweep_serial"].fn(4, StageProfiler(enabled=False))
        vectorized = by_name["replicate_sweep_vectorized"].fn(4, StageProfiler(enabled=False))
        assert serial == vectorized

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
