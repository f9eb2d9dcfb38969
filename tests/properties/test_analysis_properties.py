"""Property-based tests of the analysis formulas over random platforms."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.analysis.matrix import (
    matrix_phase1_ratio,
    matrix_phase2_ratio,
    matrix_total_ratio,
    optimal_matrix_beta,
)
from repro.core.analysis.outer import (
    optimal_outer_beta,
    outer_phase1_ratio,
    outer_phase2_ratio,
    outer_total_ratio,
)

COMMON = dict(deadline=None, max_examples=80, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def rel_speeds(draw, min_p=2, max_p=64):
    p = draw(st.integers(min_p, max_p))
    speeds = np.asarray(draw(st.lists(st.floats(1.0, 100.0), min_size=p, max_size=p)))
    return speeds / speeds.sum()


class TestOuterFormulaProperties:
    @settings(**COMMON)
    @given(rel_speeds(), st.floats(0.0, 8.0))
    def test_ratios_nonnegative(self, rel, beta):
        assert outer_phase1_ratio(beta, rel) >= 0.0
        assert outer_phase2_ratio(beta, rel, 100) >= 0.0

    @settings(**COMMON)
    @given(rel_speeds(), st.floats(0.0, 6.0), st.floats(0.05, 2.0))
    def test_phase1_increasing_in_beta(self, rel, beta, delta):
        # Monotonicity holds on the model's validity range beta <= 1/max(rs)
        # (beyond it the Lemma-3 expansion turns around; see DESIGN.md).
        assume(beta + delta <= 1.0 / rel.max())
        assert outer_phase1_ratio(beta + delta, rel) >= outer_phase1_ratio(beta, rel) - 1e-12

    @settings(**COMMON)
    @given(rel_speeds(), st.floats(0.0, 6.0), st.floats(0.05, 2.0))
    def test_phase2_decreasing_in_beta(self, rel, beta, delta):
        # Same validity range as phase 1: past beta = 1/max(rs) the phase-2
        # expansion turns around too (rs = [1/9, 8/9], n = 100 reads 7.342
        # at beta = 2.0 and 7.967 at beta = 2.25 against a cap of 1.125).
        assume(beta + delta <= 1.0 / rel.max())
        n = 100
        assert outer_phase2_ratio(beta + delta, rel, n) <= outer_phase2_ratio(beta, rel, n) + 1e-12

    @settings(**COMMON)
    @given(rel_speeds(min_p=8), st.integers(50, 500))
    def test_optimum_within_validity_range(self, rel, n):
        beta = optimal_outer_beta(rel, n)
        assert 0 < beta <= 1.0 / rel.max() + 1e-9

    @settings(**COMMON)
    @given(rel_speeds(min_p=8), st.integers(50, 500))
    def test_optimum_beats_neighbors(self, rel, n):
        beta = optimal_outer_beta(rel, n)
        best = outer_total_ratio(beta, rel, n)
        for probe in (0.7 * beta, 1.3 * beta):
            if 0 < probe <= 1.0 / rel.max():
                assert best <= outer_total_ratio(probe, rel, n) + 1e-9


class TestMatrixFormulaProperties:
    @settings(**COMMON)
    @given(rel_speeds(), st.floats(0.0, 8.0))
    def test_ratios_nonnegative(self, rel, beta):
        assert matrix_phase1_ratio(beta, rel) >= 0.0
        assert matrix_phase2_ratio(beta, rel, 40) >= 0.0

    @settings(**COMMON)
    @given(rel_speeds(), st.floats(0.0, 6.0), st.floats(0.05, 2.0))
    def test_phase1_increasing_in_beta(self, rel, beta, delta):
        assume(beta + delta <= 1.0 / rel.max())
        assert matrix_phase1_ratio(beta + delta, rel) >= matrix_phase1_ratio(beta, rel) - 1e-12

    @settings(**COMMON)
    @given(rel_speeds(min_p=8), st.integers(20, 120))
    def test_optimum_beats_neighbors(self, rel, n):
        beta = optimal_matrix_beta(rel, n)
        best = matrix_total_ratio(beta, rel, n)
        for probe in (0.7 * beta, 1.3 * beta):
            if 0 < probe <= 1.0 / rel.max():
                assert best <= matrix_total_ratio(probe, rel, n) + 1e-9

    @settings(**COMMON)
    @given(rel_speeds(min_p=4), st.integers(10, 100))
    def test_total_ratio_finite(self, rel, n):
        for beta in (0.5, 2.0, 5.0):
            v = matrix_total_ratio(beta, rel, n)
            assert np.isfinite(v)
            assert v >= 0
