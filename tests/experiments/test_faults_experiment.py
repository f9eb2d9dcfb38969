"""Tests for the worker-churn experiment (flt01) and its CLI wiring."""

import json

import pytest

from repro.core.analysis.lower_bounds import lower_bound
from repro.core.strategies.registry import make_strategy
from repro.experiments.cli import build_parser, main
from repro.experiments.faults import (
    CHURN_STRATEGIES,
    _fault_free_level,
    churn_summary,
    flt01,
)
from repro.experiments.figures import FIGURES, generate
from repro.faults.models import FaultSchedule
from repro.platform.platform import Platform
from repro.platform.speeds import uniform_speeds
from repro.simulator.engine import simulate
from repro.utils.rng import spawn_rngs
from repro.utils.stats import RunningStats


class TestFlt01:
    @pytest.fixture(scope="class")
    def fig(self):
        return flt01(scale="ci", seed=0)

    def test_series_and_grid(self, fig):
        assert fig.figure_id == "flt01"
        for name in CHURN_STRATEGIES:
            series = fig[name]
            assert series.x == [0.0, 1.0, 2.0]
            assert all(m > 0 for m in series.mean)

    def test_zero_churn_observes_zero_crashes(self, fig):
        observed = fig["crashes_observed"]
        assert observed.mean[0] == 0.0
        assert observed.mean[-1] > 0.0

    def test_churn_costs_communication(self, fig):
        """More crashes can only increase re-shipping, for every strategy."""
        for name in CHURN_STRATEGIES:
            series = fig[name]
            assert series.mean[-1] > series.mean[0]

    def test_deterministic(self, fig):
        again = flt01(scale="ci", seed=0)
        for name in CHURN_STRATEGIES:
            assert again[name].mean == fig[name].mean

    def test_registered_in_figures(self):
        assert "flt01" in FIGURES
        fig = generate("flt01", scale="ci", seed=0)
        assert fig.figure_id == "flt01"

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            flt01(scale="huge")


def _scalar_zero_crash_level(p, n, reps, seed):
    """flt01's zero-crash level on the fault-aware scalar loop, one run at a time."""
    per_point = {name: RunningStats() for name in CHURN_STRATEGIES}
    observed = RunningStats()
    for rng in spawn_rngs(seed, reps):
        platform = Platform(uniform_speeds(p, 10, 100, rng=rng))
        lb = lower_bound("outer", platform.relative_speeds, n)
        for name in CHURN_STRATEGIES:
            strategy = make_strategy(name, n, collect_ids=True)
            result = simulate(strategy, platform, schedule=FaultSchedule.empty(), rng=rng)
            per_point[name].add(result.normalized(lb))
            if name == CHURN_STRATEGIES[0]:
                observed.add(float(result.faults.n_crashes) / p)
    return {name: per_point[name].summary() for name in CHURN_STRATEGIES}, observed.summary()


class TestZeroCrashLevel:
    """The zero-crash level on ``simulate_batch`` equals the scalar loop bit for bit."""

    @pytest.mark.parametrize("scale, n, reps", [("ci", 16, 2), ("medium", 60, 5)])
    @pytest.mark.parametrize("seed", [0, 2014])
    def test_matches_scalar_loop(self, scale, n, reps, seed):
        expected, expected_obs = _scalar_zero_crash_level(20, n, reps, seed)
        summaries, obs = _fault_free_level(20, n, reps, seed)
        assert summaries == expected
        assert obs == expected_obs
        assert (obs.mean, obs.std) == (0.0, 0.0)
        if scale == "ci":
            fig = flt01(scale=scale, seed=seed)
            for name in CHURN_STRATEGIES:
                assert (fig[name].mean[0], fig[name].std[0]) == (
                    expected[name].mean,
                    expected[name].std,
                )


class TestChurnSummary:
    def test_summary_shape(self):
        fig = flt01(scale="ci", seed=0)
        summary = churn_summary(fig)
        assert summary["figure"] == "flt01"
        for name in CHURN_STRATEGIES:
            entry = summary["strategies"][name]
            assert entry["baseline"] == entry["mean"][0]
            assert entry["at_max_churn"] == entry["mean"][-1]
            assert entry["degradation"] > 0
        json.dumps(summary)  # must be JSON-serializable as-is

    def test_rejects_foreign_figure(self):
        fig = generate("fig01", scale="ci", seed=0)
        with pytest.raises(ValueError):
            churn_summary(fig)


class TestCli:
    def test_parser_accepts_faults(self):
        args = build_parser().parse_args(["faults", "--scale", "ci", "--json"])
        assert args.command == "faults"
        assert args.json

    def test_faults_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "faults",
                "--scale",
                "ci",
                "--outdir",
                str(tmp_path),
                "--json",
                "--svg",
                "--quiet",
            ]
        )
        assert code == 0
        assert (tmp_path / "flt01_ci.csv").exists()
        assert (tmp_path / "flt01_ci.svg").exists()
        payload = json.loads((tmp_path / "flt01_ci.json").read_text())
        assert payload["figure"] == "flt01"

    def test_json_requires_outdir(self):
        with pytest.raises(SystemExit):
            main(["faults", "--scale", "ci", "--json", "--quiet"])
