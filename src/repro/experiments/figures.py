"""One generator per figure of the paper's evaluation.

Every ``figNN`` function returns a :class:`~repro.experiments.config.FigureData`
whose series reproduce the corresponding plot:

========  ==================================================================
fig01     outer: Random vs Sorted vs DynamicOuter vs #processors (n=100)
fig02     outer: DynamicOuter2Phases vs %-tasks-in-phase-1 (p=20, n=100)
fig04     outer: all strategies + Analysis vs #processors (n=100)
fig05     outer: all strategies + Analysis vs #processors (n=1000)
fig06     outer: comm vs β, analysis + simulation (p=20, n=100)
fig07     outer: heterogeneity sweep h ∈ [0, 100) (p=20, n=100)
fig08     outer: scenario study unif/set/dyn (p=20, n=100)
fig09     matrix: all strategies + Analysis vs #processors (n=40)
fig10     matrix: all strategies + Analysis vs #processors (n=100)
fig11     matrix: comm vs β, analysis + simulation (p=100, n=40)
sec36     β speed-agnosticism study (Section 3.6, textual result)
========  ==================================================================

Figure 3 of the paper is a proof illustration — nothing to reproduce.

Scales: ``"paper"`` uses the paper's parameters; ``"medium"`` is a faithful
but hours→minutes reduction used for EXPERIMENTS.md; ``"ci"`` is a
seconds-scale smoke with the same shape.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.analysis.beta import agnostic_beta, beta_deviation
from repro.core.analysis.matrix import matrix_total_ratio, optimal_matrix_beta
from repro.core.analysis.outer import optimal_outer_beta, outer_total_ratio
from repro.experiments.config import FigureData, check_scale
from repro.experiments.parallel import (
    FixedPlatformSpec,
    HeterogeneityPlatformSpec,
    ScenarioPlatformSpec,
    StrategySpec,
    UniformPlatformSpec,
)
from repro.experiments.runner import average_normalized_comm_group, mean_analysis_ratio
from repro.platform.platform import Platform
from repro.platform.speeds import SCENARIO_NAMES, uniform_speeds
from repro.store.cache import ResultStore
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "FIGURES",
    "MATRIX_BASELINES",
    "NORMALIZED_YLABEL",
    "OUTER_BASELINES",
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
    "generate",
    "sec36",
]

OUTER_BASELINES = ("RandomOuter", "SortedOuter", "DynamicOuter")
MATRIX_BASELINES = ("RandomMatrix", "SortedMatrix", "DynamicMatrix")

NORMALIZED_YLABEL = "Normalized communication amount"


def _engine_meta(strategy_names: Sequence[str], n: int) -> Dict[str, str]:
    """Sweep metadata: which engine each strategy's replicates run on.

    ``"vectorized"`` when the batch engine covers the strategy, else
    ``"scalar (<reason>)"`` with the
    :func:`repro.simulator.batch.fallback_reason` string — recorded per
    figure so a silent scalar fallback shows up in exported meta.
    """
    from repro.simulator.batch import fallback_reason

    engines: Dict[str, str] = {}
    for name in strategy_names:
        reason = fallback_reason(StrategySpec(name, n)())
        engines[name] = "vectorized" if reason is None else f"scalar ({reason})"
    return engines


def _p_grid(scale: str) -> Sequence[int]:
    return {
        "paper": (10, 50, 100, 150, 200, 250, 300),
        "medium": (10, 50, 100, 200, 300),
        "ci": (10, 40),
    }[scale]


def _reps(scale: str, paper_reps: int = 10) -> int:
    return {"paper": paper_reps, "medium": 5, "ci": 2}[scale]


# ---------------------------------------------------------------------------
# Strategy-vs-p sweeps (Figures 1, 4, 5, 9, 10)
# ---------------------------------------------------------------------------


def _sweep_vs_p(
    figure_id: str,
    title: str,
    kernel: str,
    strategy_names: Sequence[str],
    n: int,
    ps: Sequence[int],
    reps: int,
    seed: SeedLike,
    *,
    include_analysis: bool,
    cache: Optional[ResultStore] = None,
) -> FigureData:
    fig = FigureData(
        figure_id=figure_id,
        title=title,
        xlabel="Number of processors",
        ylabel=NORMALIZED_YLABEL,
        meta={
            "kernel": kernel,
            "n": n,
            "reps": reps,
            "engine": _engine_meta(strategy_names, n),
        },
    )
    for name in strategy_names:
        fig.new_series(name)
    if include_analysis:
        fig.new_series("Analysis")

    for p in ps:
        # The paper's default draw: speeds uniform in [10, 100].  Spec
        # factories (rather than closures) are what make the cells
        # cacheable and picklable on spawn-only platforms.
        factory = UniformPlatformSpec(p)
        summaries = average_normalized_comm_group(
            [StrategySpec(name, n) for name in strategy_names],
            factory,
            n,
            reps,
            seed=seed,
            cache=cache,
        )
        for name, summary in zip(strategy_names, summaries):
            fig[name].add(p, summary.mean, summary.std)
        if include_analysis:
            summary = mean_analysis_ratio(kernel, factory, n, reps, seed=seed)
            fig["Analysis"].add(p, summary.mean, summary.std)
    return fig


def fig01(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 1: random vs data-aware dynamic strategies for the outer product."""
    check_scale(scale)
    n = {"paper": 100, "medium": 100, "ci": 30}[scale]
    return _sweep_vs_p(
        "fig01",
        "Random vs data-aware dynamic strategies (outer product)",
        "outer",
        OUTER_BASELINES,
        n,
        _p_grid(scale),
        _reps(scale),
        seed,
        include_analysis=False,
        cache=cache,
    )


def fig04(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 4: all outer-product strategies + analysis, n = 100 blocks."""
    check_scale(scale)
    n = {"paper": 100, "medium": 100, "ci": 30}[scale]
    return _sweep_vs_p(
        "fig04",
        "All outer-product strategies, n = 100 blocks",
        "outer",
        OUTER_BASELINES + ("DynamicOuter2Phases",),
        n,
        _p_grid(scale),
        _reps(scale),
        seed,
        include_analysis=True,
        cache=cache,
    )


def fig05(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 5: all outer-product strategies + analysis, n = 1000 blocks."""
    check_scale(scale)
    n = {"paper": 1000, "medium": 300, "ci": 60}[scale]
    return _sweep_vs_p(
        "fig05",
        "All outer-product strategies, n = 1000 blocks",
        "outer",
        OUTER_BASELINES + ("DynamicOuter2Phases",),
        n,
        _p_grid(scale),
        _reps(scale),
        seed,
        include_analysis=True,
        cache=cache,
    )


def fig09(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 9: all matmul strategies + analysis, n = 40 blocks."""
    check_scale(scale)
    n = {"paper": 40, "medium": 40, "ci": 10}[scale]
    return _sweep_vs_p(
        "fig09",
        "All matrix-multiplication strategies, n = 40 blocks",
        "matrix",
        MATRIX_BASELINES + ("DynamicMatrix2Phases",),
        n,
        _p_grid(scale),
        _reps(scale),
        seed,
        include_analysis=True,
        cache=cache,
    )


def fig10(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 10: all matmul strategies + analysis, n = 100 blocks."""
    check_scale(scale)
    n = {"paper": 100, "medium": 60, "ci": 14}[scale]
    return _sweep_vs_p(
        "fig10",
        "All matrix-multiplication strategies, n = 100 blocks",
        "matrix",
        MATRIX_BASELINES + ("DynamicMatrix2Phases",),
        n,
        _p_grid(scale),
        _reps(scale),
        seed,
        include_analysis=True,
        cache=cache,
    )


# ---------------------------------------------------------------------------
# Figure 2: phase-1 fraction sweep
# ---------------------------------------------------------------------------


def fig02(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 2: DynamicOuter2Phases vs percentage of tasks in phase 1.

    A single platform draw (p = 20) is reused across the sweep, as in the
    paper; reference strategies appear as flat series.
    """
    check_scale(scale)
    p = 20
    n = {"paper": 100, "medium": 100, "ci": 30}[scale]
    reps = _reps(scale)
    fractions = {
        "paper": np.concatenate([np.arange(0.0, 0.96, 0.05), [0.97, 0.98, 0.99, 0.995, 1.0]]),
        "medium": np.concatenate([np.arange(0.0, 0.96, 0.10), [0.98, 0.99, 1.0]]),
        "ci": np.array([0.0, 0.5, 0.9, 0.99, 1.0]),
    }[scale]

    # One fixed draw reused across the sweep; only the simulation stream
    # varies.  FixedPlatformSpec rebuilds the identical float64 vector.
    platform = Platform(uniform_speeds(p, 10, 100, rng=as_generator(seed)))
    factory = FixedPlatformSpec(platform.speeds)

    fig = FigureData(
        figure_id="fig02",
        title="DynamicOuter2Phases vs fraction of tasks in phase 1 (p=20)",
        xlabel="Percentage of tasks treated in phase 1",
        ylabel=NORMALIZED_YLABEL,
        meta={
            "kernel": "outer",
            "n": n,
            "p": p,
            "reps": reps,
            "engine": _engine_meta(("DynamicOuter2Phases",) + OUTER_BASELINES, n),
        },
    )
    summaries = average_normalized_comm_group(
        [StrategySpec("DynamicOuter2Phases", n, phase1_fraction=float(frac)) for frac in fractions]
        + [StrategySpec(name, n) for name in OUTER_BASELINES],
        factory,
        n,
        reps,
        seed=seed,
        cache=cache,
    )
    sweep = fig.new_series("DynamicOuter2Phases")
    for frac, summary in zip(fractions, summaries):
        sweep.add(100.0 * frac, summary.mean, summary.std)

    for name, summary in zip(OUTER_BASELINES, summaries[len(fractions):]):
        flat = fig.new_series(name)
        for frac in (fractions[0], fractions[-1]):
            flat.add(100.0 * frac, summary.mean, summary.std)
    return fig


# ---------------------------------------------------------------------------
# Figures 6 and 11: β sweeps against the analysis
# ---------------------------------------------------------------------------


def _beta_sweep(
    figure_id: str,
    title: str,
    kernel: str,
    p: int,
    n: int,
    reps: int,
    seed: SeedLike,
    betas: Sequence[float],
    cache: Optional[ResultStore] = None,
) -> FigureData:
    two_phase = "DynamicOuter2Phases" if kernel == "outer" else "DynamicMatrix2Phases"
    dynamic = "DynamicOuter" if kernel == "outer" else "DynamicMatrix"
    ratio = outer_total_ratio if kernel == "outer" else matrix_total_ratio
    beta_opt = optimal_outer_beta if kernel == "outer" else optimal_matrix_beta

    platform = Platform(uniform_speeds(p, 10, 100, rng=as_generator(seed)))
    rel = platform.relative_speeds
    factory = FixedPlatformSpec(platform.speeds)

    fig = FigureData(
        figure_id=figure_id,
        title=title,
        xlabel="Value of beta",
        ylabel=NORMALIZED_YLABEL,
        meta={
            "kernel": kernel,
            "n": n,
            "p": p,
            "reps": reps,
            "beta_opt_analysis": beta_opt(rel, n),
            "beta_opt_agnostic": agnostic_beta(kernel, p, n),
            "engine": _engine_meta((two_phase, dynamic), n),
        },
    )
    *sweep, dyn = average_normalized_comm_group(
        [StrategySpec(two_phase, n, beta=float(beta)) for beta in betas]
        + [StrategySpec(dynamic, n)],
        factory,
        n,
        reps,
        seed=seed,
        cache=cache,
    )
    sim_series = fig.new_series(two_phase)
    ana_series = fig.new_series("Analysis")
    for beta, summary in zip(betas, sweep):
        sim_series.add(beta, summary.mean, summary.std)
        ana_series.add(beta, ratio(float(beta), rel, n))

    flat = fig.new_series(dynamic)
    for beta in (betas[0], betas[-1]):
        flat.add(beta, dyn.mean, dyn.std)
    return fig


def fig06(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 6: outer-product communication vs β (p=20, n=100)."""
    check_scale(scale)
    n = {"paper": 100, "medium": 100, "ci": 30}[scale]
    betas = {
        "paper": np.arange(0.5, 8.01, 0.25),
        "medium": np.arange(1.0, 8.01, 0.5),
        "ci": np.array([1.0, 3.0, 4.2, 6.0]),
    }[scale]
    return _beta_sweep(
        "fig06",
        "Outer product: communication vs beta (p=20)",
        "outer",
        20,
        n,
        _reps(scale),
        seed,
        betas,
        cache=cache,
    )


def fig11(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 11: matmul communication vs β (p=100, n=40)."""
    check_scale(scale)
    p = {"paper": 100, "medium": 100, "ci": 30}[scale]
    n = {"paper": 40, "medium": 40, "ci": 10}[scale]
    betas = {
        "paper": np.arange(0.5, 10.01, 0.5),
        "medium": np.arange(1.0, 10.01, 0.75),
        "ci": np.array([1.0, 3.0, 6.0]),
    }[scale]
    return _beta_sweep(
        "fig11",
        "Matrix multiplication: communication vs beta (p=100)",
        "matrix",
        p,
        n,
        _reps(scale),
        seed,
        betas,
        cache=cache,
    )


# ---------------------------------------------------------------------------
# Figure 7: heterogeneity sweep, Figure 8: scenario study
# ---------------------------------------------------------------------------


def fig07(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 7: impact of the heterogeneity level h (speeds in [100-h, 100+h])."""
    check_scale(scale)
    p = 20
    n = {"paper": 100, "medium": 100, "ci": 30}[scale]
    reps = _reps(scale, paper_reps=50)
    hs = {
        "paper": (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 99.0),
        "medium": (0.0, 20.0, 40.0, 60.0, 80.0, 99.0),
        "ci": (0.0, 50.0, 99.0),
    }[scale]

    fig = FigureData(
        figure_id="fig07",
        title="Outer product: impact of heterogeneity (p=20)",
        xlabel="Heterogeneity",
        ylabel=NORMALIZED_YLABEL,
        meta={
            "kernel": "outer",
            "n": n,
            "p": p,
            "reps": reps,
            "engine": _engine_meta(OUTER_BASELINES + ("DynamicOuter2Phases",), n),
        },
    )
    names = OUTER_BASELINES + ("DynamicOuter2Phases",)
    for name in names:
        fig.new_series(name)
    fig.new_series("Analysis")

    for h in hs:
        factory = HeterogeneityPlatformSpec(p, float(h))
        summaries = average_normalized_comm_group(
            [StrategySpec(name, n) for name in names],
            factory, n, reps, seed=seed, cache=cache,
        )
        for name, summary in zip(names, summaries):
            fig[name].add(h, summary.mean, summary.std)
        summary = mean_analysis_ratio("outer", factory, n, reps, seed=seed)
        fig["Analysis"].add(h, summary.mean, summary.std)
    return fig


def fig08(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Figure 8: heterogeneity scenarios (unif.*, set.*, dyn.*)."""
    check_scale(scale)
    p = 20
    n = {"paper": 100, "medium": 100, "ci": 30}[scale]
    reps = _reps(scale, paper_reps=50)
    scenarios = SCENARIO_NAMES

    fig = FigureData(
        figure_id="fig08",
        title="Outer product: heterogeneity scenarios (p=20)",
        xlabel="Scenario",
        ylabel=NORMALIZED_YLABEL,
        meta={
            "kernel": "outer",
            "n": n,
            "p": p,
            "reps": reps,
            "engine": _engine_meta(OUTER_BASELINES + ("DynamicOuter2Phases",), n),
        },
        x_categories=list(scenarios),
    )
    names = OUTER_BASELINES + ("DynamicOuter2Phases",)
    for name in names:
        fig.new_series(name)
    fig.new_series("Analysis")

    for idx, scenario in enumerate(scenarios):
        factory = ScenarioPlatformSpec(scenario, p)
        summaries = average_normalized_comm_group(
            [StrategySpec(name, n) for name in names],
            factory, n, reps, seed=seed, cache=cache,
        )
        for name, summary in zip(names, summaries):
            fig[name].add(idx, summary.mean, summary.std)
        summary = mean_analysis_ratio("outer", factory, n, reps, seed=seed)
        fig["Analysis"].add(idx, summary.mean, summary.std)
    return fig


# ---------------------------------------------------------------------------
# Section 3.6: speed-agnostic beta
# ---------------------------------------------------------------------------


def sec36(scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Section 3.6: β is effectively speed-agnostic.

    For a grid of (p, n), draws heterogeneous speed vectors (uniform in
    [10, 100] — the paper's most heterogeneous setting), computes the
    per-draw optimal β and reports the deviation from the homogeneous β.
    """
    check_scale(scale)
    grid = {
        "paper": [(10, 100), (20, 100), (100, 100), (100, 1000), (1000, 1000)],
        "medium": [(10, 100), (20, 100), (100, 300)],
        "ci": [(10, 50), (20, 50)],
    }[scale]
    draws_per_point = {"paper": 100, "medium": 20, "ci": 5}[scale]

    fig = FigureData(
        figure_id="sec36",
        title="Speed-agnostic beta (Section 3.6)",
        xlabel="(p, n) grid point index",
        ylabel="relative deviation",
        meta={"kernel": "outer", "draws": draws_per_point, "grid": grid},
        x_categories=[f"p={p},n={n}" for p, n in grid],
    )
    hom = fig.new_series("beta_hom")
    dev = fig.new_series("max_beta_rel_dev")
    vol_err = fig.new_series("max_volume_rel_error")

    master = as_generator(seed)
    for idx, (p, n) in enumerate(grid):
        draws = []
        for _ in range(draws_per_point):
            s = uniform_speeds(p, 10, 100, rng=master)
            draws.append(s / s.sum())
        report = beta_deviation("outer", draws, n)
        hom.add(idx, report["beta_hom"])
        dev.add(idx, report["max_beta_rel_dev"])
        vol_err.add(idx, report["max_volume_rel_error"])
    return fig


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _extension_figures() -> Dict[str, Callable[..., FigureData]]:
    # Imported lazily: the extension experiments pull in the extension
    # packages, which plain figure generation does not need.
    from repro.experiments.ext_figures import ext01, ext02, ext03

    return {"ext01": ext01, "ext02": ext02, "ext03": ext03}


def _fault_figures() -> Dict[str, Callable[..., FigureData]]:
    # Imported lazily, like _extension_figures: pulls in repro.faults.
    from repro.experiments.faults import flt01

    return {"flt01": flt01}


FIGURES: Dict[str, Callable[..., FigureData]] = {
    "fig01": fig01,
    "fig02": fig02,
    "fig04": fig04,
    "fig05": fig05,
    "fig06": fig06,
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "sec36": sec36,
    **_extension_figures(),
    **_fault_figures(),
}



def generate(figure_id: str, scale: str = "ci", seed: SeedLike = 0, cache: Optional[ResultStore] = None) -> FigureData:
    """Generate one figure by id (``"fig01"`` ... ``"fig11"``, ``"sec36"``)."""
    try:
        fn = FIGURES[figure_id]
    except KeyError:
        raise ValueError(f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}") from None
    return fn(scale=scale, seed=seed, cache=cache)
