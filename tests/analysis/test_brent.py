"""The scipy-free β polish: bit-identical to scipy's bounded Brent method.

``repro.core.analysis._brent`` ports ``scipy.optimize.minimize_scalar(...,
method="bounded")`` so that no entry point imports scipy.  These tests give
the port and scipy the same objectives and require the same ``x`` bit for
bit; the ``float.hex`` goldens pin the public β functions on their own, so
they hold whatever scipy a Python version installs.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from repro.core.analysis import agnostic_beta, optimal_matrix_beta, optimal_outer_beta
from repro.core.analysis import matrix as matrix_analysis
from repro.core.analysis import outer as outer_analysis
from repro.core.analysis._brent import _bounded_brent
from repro.platform import uniform_speeds

KERNELS = {
    "outer": (outer_analysis.outer_total_ratio, outer_analysis._total_ratio_grid, optimal_outer_beta),
    "matrix": (matrix_analysis.matrix_total_ratio, matrix_analysis._total_ratio_grid, optimal_matrix_beta),
}


def scipy_x(func, lo, hi):
    with np.errstate(all="ignore"):
        result = minimize_scalar(func, bounds=(lo, hi), method="bounded")
    return float(result.x), int(result.nfev)


def rel_speeds(p, seed):
    speeds = uniform_speeds(p, 10, 100, rng=seed)
    return speeds / speeds.sum()


def random_cases(seed, count):
    """Seeded (kernel, variant, rel, n, lo, hi) brackets, p in [2, 200], n in [4, 2000]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.integers(2, 201))
        n = int(rng.integers(4, 2001))
        rel = rel_speeds(p, int(rng.integers(0, 2**31)))
        kernel = ("outer", "matrix")[int(rng.integers(2))]
        variant = ("exact", "first_order")[int(rng.integers(2))]
        lo = float(rng.uniform(1e-3, min(1.0 / rel.max(), 15.0)))
        hi = lo + float(rng.uniform(1e-4, 3.0)) * (1e-3, 1e-1, 1.0)[int(rng.integers(3))]
        yield kernel, variant, rel, n, lo, hi


class TestMatchesScipy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_brackets_over_both_kernels(self, seed):
        for kernel, variant, rel, n, lo, hi in random_cases(seed, 75):
            ratio = KERNELS[kernel][0]
            func = lambda b: ratio(b, rel, n, variant)  # noqa: E731
            want, _ = scipy_x(func, lo, hi)
            got = _bounded_brent(func, lo, hi)
            assert got.hex() == want.hex(), (kernel, variant, rel.size, n, lo, hi)

    @pytest.mark.parametrize("kernel", ["outer", "matrix"])
    @pytest.mark.parametrize("variant", ["exact", "first_order"])
    def test_production_bracket(self, kernel, variant):
        """The public β functions polish exactly the bracket scipy was given."""
        ratio, grid_fn, optimal = KERNELS[kernel]
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = int(rng.integers(2, 201))
            n = int(rng.integers(4, 2001))
            rel = rel_speeds(p, int(rng.integers(0, 2**31)))
            hi = min(15.0, 1.0 / float(np.max(rel)))
            grid = np.linspace(1e-3, hi, 200)
            best = int(np.argmin(grid_fn(grid, rel, n, variant)))
            left, right = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
            want, _ = scipy_x(lambda b: ratio(b, rel, n, variant), left, right)
            assert optimal(rel, n, variant).hex() == want.hex()

    @pytest.mark.parametrize(
        "func, lo, hi",
        [
            (lambda x: 1.0, 0.0, 10.0),  # flat
            (lambda x: x, 0.5, 3.0),  # minimum at the left end
            (lambda x: -x, 0.5, 3.0),  # minimum at the right end
            (lambda x: (x - 2.0) ** 2, 0.0, 5.0),  # parabolic steps only
            (lambda x: float("nan"), 0.0, 1.0),  # comparisons all false
        ],
        ids=["flat", "left-end", "right-end", "parabola", "nan"],
    )
    def test_edge_objectives(self, func, lo, hi):
        want, _ = scipy_x(func, lo, hi)
        assert _bounded_brent(func, lo, hi).hex() == want.hex()

    def test_evaluation_cap(self):
        """A cusp over a huge bracket stops at scipy's 500-evaluation cap."""
        calls = []

        def func(x):
            calls.append(x)
            return math.sqrt(abs(x))

        want, nfev = scipy_x(func, -1e150, 1e150)
        assert nfev == 500
        calls.clear()
        assert _bounded_brent(func, -1e150, 1e150).hex() == want.hex()
        assert len(calls) == 500


class TestGoldens:
    """Values computed with scipy's polish; they must not move."""

    @pytest.mark.parametrize(
        "kernel, p, seed, n, variant, golden",
        [
            ("outer", 20, 1, 100, "exact", "0x1.1c4163f01a28dp+2"),
            ("outer", 100, 2, 40, "exact", "0x1.3a9b0ab6ab61fp+1"),
            ("outer", 200, 4, 12, "exact", "0x1.07623334fa90cp-10"),
            ("outer", 50, 5, 2000, "first_order", "0x1.bfcca21b78760p+2"),
            ("matrix", 20, 1, 100, "exact", "0x1.190ad505b96dep+2"),
            ("matrix", 100, 2, 40, "exact", "0x1.717b19362c32bp+1"),
            ("matrix", 200, 4, 12, "exact", "0x1.32a81c1f99c67p+0"),
            ("matrix", 50, 5, 2000, "first_order", "0x1.cd8962f6cd383p+2"),
        ],
    )
    def test_optimal_beta(self, kernel, p, seed, n, variant, golden):
        optimal = KERNELS[kernel][2]
        assert optimal(rel_speeds(p, seed), n, variant).hex() == golden

    @pytest.mark.parametrize(
        "kernel, p, n, variant, golden",
        [
            ("outer", 20, 100, "exact", "0x1.193edf881ceb2p+2"),
            ("outer", 100, 40, "exact", "0x1.36379b657efdap+1"),
            ("outer", 10, 1000, "first_order", "0x1.abb6dd28a3230p+2"),
            ("matrix", 20, 100, "exact", "0x1.1789083881595p+2"),
            ("matrix", 100, 40, "exact", "0x1.6e0b93909737cp+1"),
            ("matrix", 10, 1000, "first_order", "0x1.b4c95c9b2b820p+2"),
        ],
    )
    def test_agnostic_beta(self, kernel, p, n, variant, golden):
        assert agnostic_beta(kernel, p, n, variant).hex() == golden
