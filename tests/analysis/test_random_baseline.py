"""Tests for the coupon-collector analysis of the Random* baselines."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core.analysis.random_baseline import (
    exact_random_matrix_volume,
    exact_random_outer_volume,
    expected_random_matrix_volume,
    expected_random_outer_volume,
)
from repro.core.strategies import MatrixRandom, OuterRandom
from repro.core.strategies.registry import make_strategy
from repro.platform import Platform, uniform_speeds
from repro.simulator import simulate, simulate_batch
from repro.utils.rng import spawn_rngs


def rel(p, seed=0):
    s = uniform_speeds(p, 10, 100, rng=seed)
    return s / s.sum()


class TestOuterFormula:
    def test_matches_simulation(self):
        n, p = 80, 30
        pf = Platform(uniform_speeds(p, 10, 100, rng=3))
        sims = [simulate(OuterRandom(n), pf, rng=s).total_blocks for s in range(5)]
        predicted = expected_random_outer_volume(pf.relative_speeds, n)
        assert predicted == pytest.approx(np.mean(sims), rel=0.03)

    def test_replication_limit_small_share(self):
        """Many workers, few tasks each: ~2 blocks per task."""
        p, n = 5000, 20
        r = np.full(p, 1.0 / p)
        v = expected_random_outer_volume(r, n)
        assert v == pytest.approx(2 * n * n, rel=0.05)

    def test_capacity_limit_single_worker(self):
        """One worker processing everything ends up with both vectors."""
        v = expected_random_outer_volume(np.array([1.0]), 50)
        assert v == pytest.approx(2 * 50, rel=1e-6)

    def test_monotone_in_p(self):
        n = 40
        vols = [expected_random_outer_volume(np.full(p, 1.0 / p), n) for p in (1, 4, 16, 64)]
        assert vols == sorted(vols)


class TestMatrixFormula:
    def test_matches_simulation(self):
        n, p = 16, 20
        pf = Platform(uniform_speeds(p, 10, 100, rng=4))
        sims = [simulate(MatrixRandom(n), pf, rng=s).total_blocks for s in range(4)]
        predicted = expected_random_matrix_volume(pf.relative_speeds, n)
        assert predicted == pytest.approx(np.mean(sims), rel=0.03)

    def test_replication_limit(self):
        p, n = 10000, 6
        v = expected_random_matrix_volume(np.full(p, 1.0 / p), n)
        assert v == pytest.approx(3 * n**3, rel=0.05)

    def test_capacity_limit(self):
        n = 12
        v = expected_random_matrix_volume(np.array([1.0]), n)
        assert v == pytest.approx(3 * n * n, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_random_outer_volume(np.array([0.5, 0.6]), 10)
        with pytest.raises(ValueError):
            expected_random_matrix_volume(np.array([1.0]), 0)


class TestExactForm:
    """The without-replacement expectation, given per-worker task counts."""

    @pytest.mark.parametrize("n,d", [(3, 2), (2, 3)])
    def test_matches_enumeration_of_every_task_subset(self, n, d):
        total = n**d
        exact = exact_random_outer_volume if d == 2 else exact_random_matrix_volume
        for tasks in range(total + 1):
            volumes = []
            for subset in itertools.combinations(range(total), tasks):
                if d == 2:
                    held = [{t // n for t in subset}, {t % n for t in subset}]
                else:
                    held = [
                        {(t // (n * n), t % n) for t in subset},
                        {(t % n, t // n % n) for t in subset},
                        {(t // (n * n), t // n % n) for t in subset},
                    ]
                volumes.append(sum(len(blocks) for blocks in held))
            mean = Fraction(sum(volumes), len(volumes))
            missed = Fraction(math.comb(total - n, tasks), math.comb(total, tasks))
            assert mean == d * n ** (d - 1) * (1 - missed)
            assert exact([tasks], n) == pytest.approx(float(mean), rel=1e-12, abs=1e-12)

    def test_sums_over_workers(self):
        assert exact_random_outer_volume([5, 0, 9], 4) == pytest.approx(
            exact_random_outer_volume([5], 4) + exact_random_outer_volume([9], 4)
        )

    def test_validation(self):
        for bad in ([], [[1, 2]], [-1], [17], [1.5]):
            with pytest.raises(ValueError):
                exact_random_outer_volume(bad, 4)
        with pytest.raises(ValueError):
            exact_random_matrix_volume([1], 0)


#: The test grid: n = 12 outer and n = 6 matrix, homogeneous p = 4 and
#: heterogeneous p = 5.
GRID = [
    (name, n, platform)
    for name, n in (("RandomOuter", 12), ("RandomMatrix", 6))
    for platform in (Platform(np.full(4, 50.0)), Platform(uniform_speeds(5, 10, 100, rng=1)))
]

#: Replicates per cell and the allowed distance, in standard errors of
#: the replicate mean.  On these seeds every cell sits within 1.5 SE of
#: the exact form, and 14 to 62 SE from the with-replacement form.
REPS = 400
MAX_SE = 4.0


@pytest.mark.parametrize("name,n,platform", GRID, ids=lambda v: getattr(v, "p", v))
def test_random_replicate_mean_matches_the_exact_form(name, n, platform):
    exact, approx = (
        (exact_random_outer_volume, expected_random_outer_volume)
        if name == "RandomOuter"
        else (exact_random_matrix_volume, expected_random_matrix_volume)
    )
    factory = lambda: make_strategy(name, n)  # noqa: E731
    batch = simulate_batch(factory, [platform] * REPS, rngs=spawn_rngs(2014, REPS))
    scalar = [simulate(factory(), platform, rng=g) for g in spawn_rngs(2014, REPS)]
    for results in (batch, scalar):
        # Static speeds fix each worker's task count; only the task set varies.
        counts = results[0].per_worker_tasks
        assert all(np.array_equal(r.per_worker_tasks, counts) for r in results)
        volumes = np.array([r.total_blocks for r in results], dtype=np.float64)
        se = volumes.std(ddof=1) / np.sqrt(REPS)
        assert abs(volumes.mean() - exact(counts, n)) <= MAX_SE * se
        # The independent-draw form, at the same counts, is rejected.
        share = counts / counts.sum()
        assert abs(volumes.mean() - approx(share, n)) > 3 * MAX_SE * se


@pytest.mark.parametrize("kernel,n", [("Outer", 12), ("Matrix", 6)])
def test_deterministic_baseline_identities(kernel, n):
    d = 2 if kernel == "Outer" else 3
    platforms = [Platform(uniform_speeds(5, 10, 100, rng=r)) for r in range(3)]
    for engine in ("batch", "scalar"):
        def run(name, pls):
            if engine == "batch":
                return simulate_batch(lambda: make_strategy(name, n), pls, rngs=spawn_rngs(3, len(pls)))
            return [simulate(make_strategy(name, n), pl, rng=g) for pl, g in zip(pls, spawn_rngs(3, len(pls)))]

        # MapReduce ships exactly d blocks with every task.
        for result in run(f"MapReduce{kernel}", platforms):
            assert np.array_equal(result.per_worker_blocks, d * result.per_worker_tasks)
            assert result.total_blocks == d * n**d
        # One worker ships each of the d n^{d-1} input blocks exactly once.
        single = [Platform(np.array([37.0]))] * 2
        for name in ("Random", "Sorted", "Dynamic"):
            for result in run(f"{name}{kernel}", single) + run(f"Dynamic{kernel}2Phases", single):
                assert result.total_blocks == d * n ** (d - 1)
