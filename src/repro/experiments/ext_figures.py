"""Extension experiments, registered alongside the paper's figures.

These go beyond the paper (DESIGN.md "extensions"):

========  ==================================================================
ext01     factorization DAGs: random vs locality scheduling (Cholesky + QR)
ext02     overlap model: slowdown vs bandwidth and prefetch depth
ext03     Random baselines vs their coupon-collector closed form
========  ==================================================================

The generators accept the ``cache`` keyword every figure generator takes,
for interface uniformity with :func:`repro.experiments.figures.generate`,
and ignore it: they call their engines directly rather than going through
the replicate runner.
ext01 and ext02 drive the extension engines one run at a time; ext03
runs each point's replicates through
:func:`repro.simulator.batch.simulate_batch`, whose analytic Random*
kernels are bit-identical to per-replicate
:func:`repro.simulator.simulate` calls.
"""

from __future__ import annotations

from typing import Optional

from repro.core.analysis.random_baseline import (
    expected_random_matrix_volume,
    expected_random_outer_volume,
)
from repro.core.strategies.registry import make_strategy
from repro.experiments.config import FigureData, check_scale
from repro.extensions.cholesky import (
    LocalityScheduler as CholLocality,
    RandomScheduler as CholRandom,
    simulate_cholesky,
)
from repro.extensions.lu import (
    LocalityScheduler as LuLocality,
    RandomScheduler as LuRandom,
    simulate_lu,
)
from repro.extensions.overlap import critical_bandwidth, simulate_with_bandwidth
from repro.extensions.qr import (
    LocalityScheduler as QrLocality,
    RandomScheduler as QrRandom,
    simulate_qr,
)
from repro.platform.platform import Platform
from repro.platform.speeds import uniform_speeds
from repro.simulator.batch import simulate_batch
from repro.store.cache import ResultStore
from repro.utils.rng import SeedLike, as_generator
from repro.utils.stats import summarize

__all__ = ["ext01", "ext02", "ext03"]


def ext01(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Extension: locality vs random scheduling on factorization DAGs."""
    check_scale(scale)
    p = {"paper": 16, "medium": 16, "ci": 6}[scale]
    tiles = {"paper": (8, 12, 16, 20, 24), "medium": (8, 12, 16, 20), "ci": (6, 10)}[scale]
    reps = {"paper": 10, "medium": 5, "ci": 2}[scale]

    fig = FigureData(
        figure_id="ext01",
        title="Factorization DAGs: blocks fetched, random vs locality",
        xlabel="Tiles per dimension",
        ylabel="Blocks fetched per task",
        meta={"p": p, "reps": reps},
    )
    runners = {
        "RandomCholesky": lambda n, pf, r: simulate_cholesky(n, pf, CholRandom(), rng=r),
        "LocalityCholesky": lambda n, pf, r: simulate_cholesky(n, pf, CholLocality(), rng=r),
        "RandomQR": lambda n, pf, r: simulate_qr(n, pf, QrRandom(), rng=r),
        "LocalityQR": lambda n, pf, r: simulate_qr(n, pf, QrLocality(), rng=r),
        "RandomLU": lambda n, pf, r: simulate_lu(n, pf, LuRandom(), rng=r),
        "LocalityLU": lambda n, pf, r: simulate_lu(n, pf, LuLocality(), rng=r),
    }
    for name in runners:
        fig.new_series(name)
    master = as_generator(seed)
    for n in tiles:
        platform = Platform(uniform_speeds(p, 10, 100, rng=master))
        for name, run in runners.items():
            values = []
            for r in range(reps):
                result = run(n, platform, 1000 * r + n)
                values.append(result.total_blocks / result.total_tasks)
            s = summarize(values)
            fig[name].add(n, s.mean, s.std)
    return fig


def ext02(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Extension: overlap slowdown vs bandwidth, one series per prefetch depth."""
    check_scale(scale)
    p = 20
    n = {"paper": 100, "medium": 100, "ci": 30}[scale]
    factors = {"paper": (0.25, 0.5, 1.0, 2.0, 4.0, 8.0), "medium": (0.25, 0.5, 1.0, 2.0, 4.0), "ci": (0.5, 2.0)}[
        scale
    ]
    depths = {"paper": (0, 1, 2, 8, 32), "medium": (0, 2, 16), "ci": (0, 2)}[scale]

    platform = Platform(uniform_speeds(p, 10, 100, rng=as_generator(seed)))
    factory = lambda: make_strategy("DynamicOuter2Phases", n)  # noqa: E731
    b_star = critical_bandwidth(factory, platform, rng=seed)

    fig = FigureData(
        figure_id="ext02",
        title="Overlap model: slowdown vs link bandwidth (DynamicOuter2Phases)",
        xlabel="Bandwidth / critical bandwidth",
        ylabel="Makespan / compute-bound ideal",
        meta={"p": p, "n": n, "critical_bandwidth": b_star},
    )
    for depth in depths:
        series = fig.new_series(f"prefetch={depth}")
        for factor in factors:
            result = simulate_with_bandwidth(
                factory(), platform, bandwidth=factor * b_star, prefetch_tasks=depth, rng=seed
            )
            series.add(factor, result.slowdown)
    return fig


def ext03(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Extension: Random baselines vs the coupon-collector prediction."""
    check_scale(scale)
    n_outer = {"paper": 100, "medium": 100, "ci": 30}[scale]
    n_matrix = {"paper": 30, "medium": 24, "ci": 8}[scale]
    ps = {"paper": (10, 50, 100, 200, 300), "medium": (10, 50, 100, 200), "ci": (10, 40)}[scale]
    reps = {"paper": 10, "medium": 5, "ci": 2}[scale]

    fig = FigureData(
        figure_id="ext03",
        title="Random baselines vs coupon-collector closed form",
        xlabel="Number of processors",
        ylabel="Communication volume (blocks)",
        meta={"n_outer": n_outer, "n_matrix": n_matrix, "reps": reps},
    )
    for label in ("RandomOuter", "OuterFormula", "RandomMatrix", "MatrixFormula"):
        fig.new_series(label)

    master = as_generator(seed)
    for p in ps:
        platform = Platform(uniform_speeds(p, 10, 100, rng=master))
        rel = platform.relative_speeds
        outer_sims = [
            res.total_blocks
            for res in simulate_batch(
                lambda: make_strategy("RandomOuter", n_outer), [platform] * reps, rngs=list(range(reps))
            )
        ]
        matrix_sims = [
            res.total_blocks
            for res in simulate_batch(
                lambda: make_strategy("RandomMatrix", n_matrix), [platform] * reps, rngs=list(range(reps))
            )
        ]
        so = summarize(outer_sims)
        sm = summarize(matrix_sims)
        fig["RandomOuter"].add(p, so.mean, so.std)
        fig["OuterFormula"].add(p, expected_random_outer_volume(rel, n_outer))
        fig["RandomMatrix"].add(p, sm.mean, sm.std)
        fig["MatrixFormula"].add(p, expected_random_matrix_volume(rel, n_matrix))
    return fig
