"""Integration tests: the paper's quantitative claims at realistic scale.

These use moderately large instances (seconds each) and assert the numbers
the paper reports — the reproduction's acceptance tests.
"""

import numpy as np
import pytest

from repro.core.analysis import (
    matrix_lower_bound,
    matrix_total_ratio,
    optimal_matrix_beta,
    optimal_outer_beta,
    outer_lower_bound,
    outer_total_ratio,
)
from repro.core.strategies import (
    MatrixTwoPhase,
    OuterDynamic,
    OuterRandom,
    OuterSorted,
    OuterTwoPhase,
)
from repro.partition.column import partition_square
from repro.platform import Platform, uniform_speeds
from repro.simulator import simulate


def paper_platform(p, seed):
    return Platform(uniform_speeds(p, 10, 100, rng=seed))


class TestOuterAnalysisAccuracy:
    """Figures 4-6: the ODE analysis overlays DynamicOuter2Phases."""

    @pytest.mark.parametrize("p", [20, 100])
    def test_prediction_within_3_percent(self, p):
        n = 100
        pf = paper_platform(p, seed=p)
        rel = pf.relative_speeds
        lb = outer_lower_bound(rel, n)
        beta = optimal_outer_beta(rel, n)
        sims = [simulate(OuterTwoPhase(n, beta=beta), pf, rng=s).normalized(lb) for s in range(6)]
        predicted = outer_total_ratio(beta, rel, n)
        assert predicted == pytest.approx(np.mean(sims), rel=0.03)

    def test_paper_beta_4_17_in_simulated_valley(self):
        """Fig 6: beta* ~ 4.17 must sit in the flat simulated optimum [3, 6]."""
        n = 100
        pf = paper_platform(20, seed=0)
        rel = pf.relative_speeds
        beta_star = optimal_outer_beta(rel, n, "first_order")
        assert 3.0 <= beta_star <= 6.0
        lb = outer_lower_bound(rel, n)

        def mean_comm(beta):
            return np.mean(
                [simulate(OuterTwoPhase(n, beta=beta), pf, rng=s).normalized(lb) for s in range(4)]
            )

        at_star = mean_comm(beta_star)
        assert at_star < mean_comm(0.5)  # too-early switch is worse
        assert at_star < mean_comm(10.0)  # too-late switch is worse

    def test_phase1_fraction_at_optimum(self):
        """Fig 6 commentary: beta* = 4.17 => ~98.5% of tasks in phase 1."""
        beta = 4.17
        assert 1.0 - np.exp(-beta) == pytest.approx(0.985, abs=0.003)


class TestMatrixAnalysisAccuracy:
    """Figures 9-11: the matmul analysis and its beta."""

    def test_prediction_within_4_percent(self):
        n, p = 40, 100
        pf = paper_platform(p, seed=11)
        rel = pf.relative_speeds
        lb = matrix_lower_bound(rel, n)
        beta = optimal_matrix_beta(rel, n)
        sims = [simulate(MatrixTwoPhase(n, beta=beta), pf, rng=s).normalized(lb) for s in range(4)]
        assert matrix_total_ratio(beta, rel, n) == pytest.approx(np.mean(sims), rel=0.04)

    def test_paper_beta_2_95(self):
        """Fig 11: beta* ~ 2.95 (2.92 agnostic) for p=100, n=40."""
        pf = paper_platform(100, seed=1)
        beta = optimal_matrix_beta(pf.relative_speeds, 40)
        assert beta == pytest.approx(2.95, abs=0.25)
        # ~94.7% of tasks in phase 1 at the optimum.
        assert 1.0 - np.exp(-beta) == pytest.approx(0.947, abs=0.02)


class TestRankingAtScale:
    """Figure 1/4: ordering and rough magnitudes at p=100, n=100."""

    @pytest.fixture(scope="class")
    def results(self):
        n = 100
        pf = paper_platform(100, seed=42)
        lb = outer_lower_bound(pf.relative_speeds, n)
        out = {}
        for cls in (OuterRandom, OuterSorted, OuterDynamic, OuterTwoPhase):
            out[cls.name] = simulate(cls(n), pf, rng=7).normalized(lb)
        out["agnostic"] = simulate(OuterTwoPhase(n, agnostic=True), pf, rng=7).normalized(lb)
        out["static"] = partition_square(pf.speeds).communication_volume(n) / lb
        return out

    def test_full_ordering(self, results):
        assert results["DynamicOuter2Phases"] < results["DynamicOuter"]
        assert results["DynamicOuter"] < results["RandomOuter"]
        assert results["DynamicOuter"] < results["SortedOuter"]
        # The second phase buys a measurable cut, at least 5%.
        gain = 1.0 - results["DynamicOuter2Phases"] / results["DynamicOuter"]
        assert gain > 0.05


    def test_magnitudes_match_paper(self, results):
        """Fig 4 at p=100: Random/Sorted ~ 4-7x LB, 2Phases ~ 2-2.5x."""
        assert 3.0 <= results["RandomOuter"] <= 8.0
        assert 1.5 <= results["DynamicOuter2Phases"] <= 3.0
        # Sec 3.6: the homogeneous beta costs under 2% over the tuned one.
        assert results["agnostic"] <= results["DynamicOuter2Phases"] * 1.02
        # Within 2.5x of the 7/4-approximation column partition that knows
        # every speed (paper reference [2]).
        assert results["static"] <= 1.75
        assert results["DynamicOuter2Phases"] <= 2.5 * results["static"]

    def test_factor_between_random_and_data_aware(self, results):
        assert results["RandomOuter"] / results["DynamicOuter2Phases"] > 1.8


class TestPerWorkerPrediction:
    """Lemma 3 predicts per-worker volumes, not just totals."""

    def test_phase1_comm_proportional_to_sqrt_speed(self):
        """At the switch, worker k holds ~ sqrt(beta rs_k) n blocks of each
        vector, so per-worker received blocks should scale like sqrt(rs_k)."""
        n, p = 100, 50
        pf = paper_platform(p, seed=3)
        rel = pf.relative_speeds
        per_worker = np.zeros(p)
        reps = 5
        for s in range(reps):
            result = simulate(OuterTwoPhase(n), pf, rng=s)
            per_worker += result.per_worker_blocks
        per_worker /= reps
        predicted = np.sqrt(rel)
        corr = np.corrcoef(per_worker, predicted)[0, 1]
        assert corr > 0.97

    def test_tasks_proportional_to_speed(self):
        """Demand-driven: per-worker task counts track relative speeds."""
        n, p = 100, 50
        pf = paper_platform(p, seed=3)
        result = simulate(OuterTwoPhase(n), pf, rng=0)
        shares = result.per_worker_tasks / result.total_tasks
        assert np.max(np.abs(shares - pf.relative_speeds)) < 0.01


class TestLargeVectorGap:
    def test_gap_widens_with_n(self):
        """Fig 5: the random/data-aware gap grows with n."""
        pf = paper_platform(50, seed=5)
        gaps = []
        for n in (50, 200):
            lb = outer_lower_bound(pf.relative_speeds, n)
            rnd = simulate(OuterRandom(n), pf, rng=1).normalized(lb)
            two = simulate(OuterTwoPhase(n), pf, rng=1).normalized(lb)
            gaps.append(rnd / two)
        assert gaps[1] > gaps[0]

    def test_random_comm_matches_coupon_collector(self):
        """RandomOuter's volume follows the coupon-collector expectation.

        Worker k processes T_k ~ rs_k n^2 uniformly random tasks and ends
        up holding n (1 - (1 - 1/n)^{T_k}) blocks of each input vector.
        """
        pf = paper_platform(50, seed=5)
        n = 200
        lb = outer_lower_bound(pf.relative_speeds, n)
        rnd = simulate(OuterRandom(n), pf, rng=1).normalized(lb)
        t_k = pf.relative_speeds * n * n
        expected_blocks = np.sum(2 * n * (1.0 - (1.0 - 1.0 / n) ** t_k))
        assert rnd == pytest.approx(expected_blocks / lb, rel=0.05)
