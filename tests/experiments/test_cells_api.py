"""PlannedCell / CellResult / run_cells — the serve lane's batch entrypoint."""

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.parallel import (
    CellResult,
    StrategySpec,
    UniformPlatformSpec,
    run_cells,
)
from repro.experiments.runner import (
    PlannedCell,
    average_normalized_comm,
    average_normalized_comm_group,
)
from repro.store.cache import ResultStore


def make_request(seed=0, n=12):
    return PlannedCell.of(
        StrategySpec("DynamicOuter", n), UniformPlatformSpec(4), n, 2, seed=seed
    )


def _boom_platform(rng):
    raise RuntimeError("platform fabrication failed")


class TestPlannedCell:
    def test_key_matches_runner_schema(self):
        cell = make_request()
        assert cell.key["schema"] == "repro.store.cell/1"
        assert cell.key["reps"] == 2
        assert cell.fingerprint is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            PlannedCell.of(StrategySpec("DynamicOuter", 8), UniformPlatformSpec(4), 0, 2)
        with pytest.raises(ValueError):
            PlannedCell.of(StrategySpec("DynamicOuter", 8), UniformPlatformSpec(4), 8, 0)


class TestCellResult:
    def test_exactly_one_of_summary_or_error(self):
        with pytest.raises(ValueError):
            CellResult(None, None)
        summary = average_normalized_comm(
            StrategySpec("DynamicOuter", 8), UniformPlatformSpec(4), 8, 1, seed=0
        )
        with pytest.raises(ValueError):
            CellResult(summary, "also an error")
        assert CellResult(summary).ok
        assert not CellResult(None, "err").ok


class TestRunCells:
    def test_matches_direct_runner_call(self):
        request = make_request(seed=3)
        results = run_cells([request])
        assert len(results) == 1 and results[0].ok
        direct = average_normalized_comm(
            request.strategy_factory,
            request.platform_factory,
            request.n,
            request.reps,
            seed=request.seed,
        )
        assert results[0].summary.mean == direct.mean

    def test_writes_through_the_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        request = make_request(seed=4)
        run_cells([request], cache=store)
        assert store.counts.puts == 1
        run_cells([request], cache=store)
        assert store.counts.puts == 1  # second run is a pure hit
        assert store.counts.hits == 1

    def test_one_bad_cell_does_not_poison_the_batch(self):
        bad = PlannedCell.of(StrategySpec("DynamicOuter", 8), _boom_platform, 8, 1)
        good = make_request(seed=5)
        results = run_cells([bad, good])
        assert not results[0].ok
        assert "platform fabrication failed" in results[0].error
        assert results[1].ok

    def test_one_runner_call_per_point(self, monkeypatch):
        platform = UniformPlatformSpec(4)
        point = [StrategySpec("DynamicOuter2Phases", 8, beta=b) for b in (1.0, 2.0, 3.0)]
        point.append(StrategySpec("DynamicOuter", 8))
        other = StrategySpec("RandomOuter", 8)
        cells = [PlannedCell.of(spec, platform, 8, 2, seed=1) for spec in point]
        # A different seed is a different point, and so is a different n.
        cells.insert(2, PlannedCell.of(other, platform, 8, 2, seed=2))
        cells.append(PlannedCell.of(StrategySpec("DynamicOuter", 6), platform, 6, 2, seed=1))
        sweeps = []
        real = runner_module.simulate_sweep

        def spy(factories, *args, **kwargs):
            sweeps.append(list(factories))
            return real(factories, *args, **kwargs)

        monkeypatch.setattr(runner_module, "simulate_sweep", spy)
        results = run_cells(cells)
        assert sweeps == [point]
        expected = average_normalized_comm_group(point, platform, 8, 2, seed=1)
        assert [r.summary for r in results[:2] + results[3:5]] == expected
        assert results[2].summary == average_normalized_comm(other, platform, 8, 2, seed=2)
        assert results[5].summary == average_normalized_comm(
            StrategySpec("DynamicOuter", 6), platform, 6, 2, seed=1
        )

    def test_a_failing_member_errors_only_its_cell(self, tmp_path):
        platform = UniformPlatformSpec(4)
        specs = [
            StrategySpec("DynamicOuter2Phases", 8, beta=1.0),
            StrategySpec("DynamicOuter2Phases", 8, no_such_option=1),
            StrategySpec("DynamicOuter", 8),
        ]
        store = ResultStore(str(tmp_path / "cache"))
        results = run_cells([PlannedCell.of(s, platform, 8, 2, seed=3) for s in specs], cache=store)
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error.startswith("TypeError:")
        good = [specs[0], specs[2]]
        assert [results[0].summary, results[2].summary] == average_normalized_comm_group(
            good, platform, 8, 2, seed=3
        )
        assert store.counts.puts == 2
