"""Tests for repro.experiments.figures — every figure generator at CI scale.

Each test asserts both the *structure* (series, points) and the paper's
qualitative *shape* (who beats whom) where it is robust at smoke size.
"""

import pytest

from repro.experiments.figures import FIGURES, generate


@pytest.fixture(scope="module")
def figures():
    """Generate every figure once at CI scale (shared across tests)."""
    return {fid: generate(fid, scale="ci", seed=3) for fid in FIGURES}


class TestRegistry:
    def test_all_figures_present(self):
        paper_figures = {
            "fig01",
            "fig02",
            "fig04",
            "fig05",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "sec36",
        }
        extension_figures = {"ext01", "ext02", "ext03"}
        fault_figures = {"flt01"}
        assert set(FIGURES) == paper_figures | extension_figures | fault_figures

    def test_generate_unknown(self):
        with pytest.raises(ValueError):
            generate("fig03")  # proof illustration, not an experiment

    def test_generate_bad_scale(self):
        with pytest.raises(ValueError):
            generate("fig01", scale="gigantic")


class TestFig01:
    def test_series(self, figures):
        fig = figures["fig01"]
        assert set(fig.series) == {"RandomOuter", "SortedOuter", "DynamicOuter"}
        assert all(len(s) == 2 for s in fig.series.values())

    def test_dynamic_wins(self, figures):
        fig = figures["fig01"]
        for i in range(len(fig["DynamicOuter"])):
            assert fig["DynamicOuter"].mean[i] < fig["RandomOuter"].mean[i]
            assert fig["DynamicOuter"].mean[i] < fig["SortedOuter"].mean[i]


class TestFig02:
    def test_series(self, figures):
        fig = figures["fig02"]
        assert "DynamicOuter2Phases" in fig.series
        assert len(fig["DynamicOuter2Phases"]) == 5

    def test_extremes_match_pure_strategies(self, figures):
        fig = figures["fig02"]
        sweep = fig["DynamicOuter2Phases"]
        # 0% phase 1 == RandomOuter; 100% phase 1 == DynamicOuter.
        assert sweep.mean[0] == pytest.approx(fig["RandomOuter"].mean[0], rel=0.15)
        assert sweep.mean[-1] == pytest.approx(fig["DynamicOuter"].mean[0], rel=0.15)

    def test_sweet_spot_beats_extremes(self, figures):
        sweep = figures["fig02"]["DynamicOuter2Phases"]
        best = min(sweep.mean)
        assert best < sweep.mean[0]
        assert best <= sweep.mean[-1] + 1e-9


@pytest.mark.parametrize("fid,kernel", [("fig04", "outer"), ("fig05", "outer"), ("fig09", "matrix"), ("fig10", "matrix")])
class TestStrategySweeps:
    def test_structure(self, figures, fid, kernel):
        fig = figures[fid]
        assert "Analysis" in fig.series
        two_phase = "DynamicOuter2Phases" if kernel == "outer" else "DynamicMatrix2Phases"
        assert two_phase in fig.series
        assert fig.meta["kernel"] == kernel

    def test_two_phase_best_among_simulated(self, figures, fid, kernel):
        fig = figures[fid]
        two_phase = "DynamicOuter2Phases" if kernel == "outer" else "DynamicMatrix2Phases"
        rnd = "RandomOuter" if kernel == "outer" else "RandomMatrix"
        srt = "SortedOuter" if kernel == "outer" else "SortedMatrix"
        # Fig 5 (n = 1000 in the paper): the random/data-aware gap widens.
        min_gap = 1.5 if fid == "fig05" else 1.0
        for i in range(len(fig[two_phase])):
            assert fig[two_phase].mean[i] < fig[rnd].mean[i]
            assert fig[two_phase].mean[i] < fig[srt].mean[i]
            assert fig[rnd].mean[i] / fig[two_phase].mean[i] > min_gap

    def test_analysis_tracks_two_phase(self, figures, fid, kernel):
        """The analysis must track the simulated strategy at the largest p.

        The paper itself notes the analysis is only accurate for large
        enough p (>= 50 for matmul); at smoke scale we check the last grid
        point only and loosely — the integration tests cover realistic
        sizes tightly.
        """
        fig = figures[fid]
        two_phase = "DynamicOuter2Phases" if kernel == "outer" else "DynamicMatrix2Phases"
        assert fig["Analysis"].mean[-1] == pytest.approx(fig[two_phase].mean[-1], rel=0.25)


@pytest.mark.parametrize("fid", ["fig06", "fig11"])
class TestBetaSweeps:
    def test_structure(self, figures, fid):
        fig = figures[fid]
        assert "Analysis" in fig.series
        assert "beta_opt_analysis" in fig.meta
        assert "beta_opt_agnostic" in fig.meta

    def test_agnostic_close_to_optimal(self, figures, fid):
        fig = figures[fid]
        assert fig.meta["beta_opt_agnostic"] == pytest.approx(fig.meta["beta_opt_analysis"], rel=0.10)

    def test_optimal_beta_in_simulated_valley(self, figures, fid):
        """The analysis' beta* must land near the simulated minimum."""
        fig = figures[fid]
        sweep = next(s for label, s in fig.series.items() if label.endswith("2Phases"))
        best_idx = min(range(len(sweep)), key=lambda i: sweep.mean[i])
        beta_star = fig.meta["beta_opt_analysis"]
        # The simulated valley is wide; beta* within a grid step of argmin.
        xs = sweep.x
        assert abs(xs[best_idx] - beta_star) <= (max(xs) - min(xs)) / 2


class TestFig07:
    def test_ranking_stable_across_heterogeneity(self, figures):
        fig = figures["fig07"]
        for i in range(len(fig["DynamicOuter"])):
            assert fig["DynamicOuter"].mean[i] < fig["RandomOuter"].mean[i]
            assert fig["DynamicOuter2Phases"].mean[i] <= fig["DynamicOuter"].mean[i] * 1.1


class TestFig08:
    def test_all_scenarios_present(self, figures):
        fig = figures["fig08"]
        assert list(fig.x_categories) == ["unif.1", "unif.2", "set.3", "set.5", "dyn.5", "dyn.20"]
        assert len(fig["RandomOuter"]) == 6

    def test_ranking_stable_across_scenarios(self, figures):
        fig = figures["fig08"]
        for i in range(6):
            assert fig["DynamicOuter"].mean[i] < fig["RandomOuter"].mean[i]
            assert fig["DynamicOuter2Phases"].mean[i] < fig["RandomOuter"].mean[i]


class TestSec36:
    def test_structure(self, figures):
        fig = figures["sec36"]
        assert set(fig.series) == {"beta_hom", "max_beta_rel_dev", "max_volume_rel_error"}

    def test_deviation_small(self, figures):
        fig = figures["sec36"]
        assert max(fig["max_beta_rel_dev"].mean) < 0.15
        assert max(fig["max_volume_rel_error"].mean) < 0.01
