"""Fault-injection experiments: scheduling under worker churn.

The paper's figures assume workers never disappear; this extension asks how
the communication advantage of the data-aware dynamic strategies holds up
when they do.  The headline experiment, ``flt01``, sweeps the expected
number of crashes per worker over one nominal run and plots the normalized
communication amount per outer-product strategy — crashes destroy worker
caches, so every strategy pays re-shipping costs, but the Dynamic*
strategies additionally lose the carefully accumulated knowledge their
block reuse depends on.

Protocol per repetition: draw a fresh platform (speeds uniform in
[10, 100], as in the paper), estimate the nominal makespan
``n^2 / sum(speeds)``, pre-draw a :class:`~repro.faults.models.FaultSchedule`
whose per-worker crash rate yields the target expected crash count over
that nominal duration, and run :func:`~repro.simulator.engine.simulate` under
it with the default reassignment policy.  Everything derives from one seed per
repetition, so the sweep is exactly reproducible.

The zero-crash level draws no schedule, and an empty schedule reduces the
fault-aware engine to the fault-free model bit for bit (docs/FAULTS.md), so
that level runs each strategy through
:func:`~repro.simulator.batch.simulate_batch` on the same per-repetition
generators instead; each generator ends every strategy where the scalar run
would have, so the next strategy starts on the same stream.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.analysis.lower_bounds import lower_bound
from repro.core.strategies.registry import make_strategy
from repro.experiments.config import FigureData, check_scale
from repro.faults.models import FaultSchedule
from repro.platform.platform import Platform
from repro.platform.speeds import uniform_speeds
from repro.simulator.batch import simulate_batch
from repro.simulator.engine import simulate
from repro.store.cache import ResultStore
from repro.store.cells import summary_from_payload, summary_to_payload
from repro.store.fingerprint import ENGINE_VERSION, seed_token
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.stats import RunningStats, Summary

__all__ = ["CHURN_STRATEGIES", "churn_summary", "flt01"]

# One cached cell = one crash level of the sweep (all strategies together):
# a single RNG stream threads sequentially through the platform draw, the
# schedule draw and every strategy's run, so finer-grained caching would
# change RNG consumption.  Bump the schema tag on key- or payload-shape
# changes.
_CHURN_SCHEMA = "repro.store.churn/1"
_CHURN_KIND = "churn-cell"

#: Strategies compared under churn: the outer-product cast of Figure 4.
CHURN_STRATEGIES = ("RandomOuter", "SortedOuter", "DynamicOuter", "DynamicOuter2Phases")

#: Mean downtime, as a fraction of the nominal (fault-free) makespan.
_DOWNTIME_FRACTION = 0.1


def _crash_grid(scale: str) -> Sequence[float]:
    """Expected crashes per worker over one nominal run duration."""
    return {
        "paper": (0.0, 0.5, 1.0, 2.0, 4.0, 8.0),
        "medium": (0.0, 1.0, 2.0, 4.0),
        "ci": (0.0, 1.0, 2.0),
    }[scale]


def _churn_cell_key(
    *, p: int, n: int, reps: int, seed: SeedLike, expected_crashes: float
) -> Optional[Dict[str, Any]]:
    """Cache key for one crash level, or ``None`` when the seed is uncacheable."""
    seed_tok = seed_token(seed)
    if seed_tok is None:
        return None
    return {
        "schema": _CHURN_SCHEMA,
        "engine": ENGINE_VERSION,
        "p": int(p),
        "n": int(n),
        "reps": int(reps),
        "seed": seed_tok,
        "expected_crashes": float(expected_crashes),
        "downtime_fraction": _DOWNTIME_FRACTION,
        "strategies": list(CHURN_STRATEGIES),
    }


def _load_churn_cell(
    store: ResultStore, key: Dict[str, Any]
) -> Optional[Dict[str, Summary]]:
    """Cached ``{strategy: Summary, "crashes_observed": Summary}`` or ``None``."""
    payload = store.get(key, kind=_CHURN_KIND)
    if payload is None:
        return None
    try:
        out = {
            name: summary_from_payload(payload["strategies"][name])[0]
            for name in CHURN_STRATEGIES
        }
        out["crashes_observed"] = summary_from_payload(payload["observed"])[0]
    except (KeyError, TypeError, ValueError):
        return None
    return out


def _churn_level(
    p: int, n: int, reps: int, seed: SeedLike, expected_crashes: float
) -> Tuple[Dict[str, Summary], Summary]:
    """One crash level on the fault-aware scalar loop.

    Returns each strategy's normalized-communication summary and the
    observed crashes per worker.
    """
    per_point: Dict[str, RunningStats] = {name: RunningStats() for name in CHURN_STRATEGIES}
    observed = RunningStats()
    for rng in spawn_rngs(seed, reps):
        platform = Platform(uniform_speeds(p, 10, 100, rng=rng))
        nominal = n * n / float(platform.speeds.sum())
        # Crashes keep firing while recovery extends the run, so draw the
        # schedule over a generous multiple of the nominal makespan; the
        # rate is what fixes the expected count.
        schedule = FaultSchedule.draw(
            p,
            4.0 * nominal,
            rng=rng,
            crash_rate=expected_crashes / nominal,
            mean_downtime=_DOWNTIME_FRACTION * nominal,
        )
        lb = lower_bound("outer", platform.relative_speeds, n)
        for name in CHURN_STRATEGIES:
            strategy = make_strategy(name, n, collect_ids=True)
            result = simulate(strategy, platform, schedule=schedule, rng=rng)
            per_point[name].add(result.normalized(lb))
            if name == CHURN_STRATEGIES[0]:
                assert result.faults is not None
                observed.add(float(result.faults.n_crashes) / p)
    return {name: per_point[name].summary() for name in CHURN_STRATEGIES}, observed.summary()


def _fault_free_level(
    p: int, n: int, reps: int, seed: SeedLike
) -> Tuple[Dict[str, Summary], Summary]:
    """The zero-crash level on the replicate path (see the module docstring).

    Same outputs as the scalar loop of :func:`_churn_level` run under
    ``FaultSchedule.empty()``: every replicate draws its platform first,
    then runs the strategies in :data:`CHURN_STRATEGIES` order on its own
    generator, and observes no crash.
    """
    rngs = spawn_rngs(seed, reps)
    platforms = [Platform(uniform_speeds(p, 10, 100, rng=rng)) for rng in rngs]
    bounds = [lower_bound("outer", platform.relative_speeds, n) for platform in platforms]
    summaries: Dict[str, Summary] = {}
    for name in CHURN_STRATEGIES:
        stats = RunningStats()
        results = simulate_batch(partial(make_strategy, name, n), platforms, rngs=rngs)
        for result, lb in zip(results, bounds):
            stats.add(result.normalized(lb))
        summaries[name] = stats.summary()
    observed = RunningStats()
    for _ in rngs:
        observed.add(0.0)
    return summaries, observed.summary()


def flt01(
    scale: str = "ci",
    seed: SeedLike = 0,
    cache: Optional[ResultStore] = None,
) -> FigureData:
    """Churn sweep: normalized communication vs expected crashes per worker.

    A *cache* memoizes each crash level as one cell (all strategies plus the
    observed crash count): one RNG stream threads through the platform draw,
    the schedule draw and every strategy in sequence, so the level is the
    finest cacheable unit.
    """
    check_scale(scale)
    p = 20
    n = {"paper": 100, "medium": 60, "ci": 16}[scale]
    reps = {"paper": 10, "medium": 5, "ci": 2}[scale]

    fig = FigureData(
        figure_id="flt01",
        title="Outer product under worker churn (p=20)",
        xlabel="Expected crashes per worker (per nominal run)",
        ylabel="Normalized communication amount",
        meta={
            "kernel": "outer",
            "n": n,
            "p": p,
            "reps": reps,
            "downtime_fraction": _DOWNTIME_FRACTION,
            "policy": "ReassignLost",
        },
    )
    for name in CHURN_STRATEGIES:
        fig.new_series(name)
    crash_stats = fig.new_series("crashes_observed")

    for expected_crashes in _crash_grid(scale):
        key = None
        if cache is not None:
            key = _churn_cell_key(
                p=p, n=n, reps=reps, seed=seed, expected_crashes=expected_crashes
            )
            if key is not None:
                cell = _load_churn_cell(cache, key)
                if cell is not None:
                    for name in CHURN_STRATEGIES:
                        fig[name].add(expected_crashes, cell[name].mean, cell[name].std)
                    obs = cell["crashes_observed"]
                    crash_stats.add(expected_crashes, obs.mean, obs.std)
                    continue
        if expected_crashes > 0.0:
            summaries, obs = _churn_level(p, n, reps, seed, expected_crashes)
        else:
            summaries, obs = _fault_free_level(p, n, reps, seed)
        for name in CHURN_STRATEGIES:
            fig[name].add(expected_crashes, summaries[name].mean, summaries[name].std)
        crash_stats.add(expected_crashes, obs.mean, obs.std)
        if cache is not None and key is not None:
            cache.put(
                key,
                {
                    "strategies": {
                        name: summary_to_payload(summaries[name], None)
                        for name in CHURN_STRATEGIES
                    },
                    "observed": summary_to_payload(obs, None),
                },
                kind=_CHURN_KIND,
            )
    return fig


def churn_summary(fig: FigureData) -> Dict[str, Any]:
    """JSON-ready summary of a ``flt01`` figure (for the CI artifact).

    Reports, per strategy, the normalized communication at zero churn and at
    the highest churn level, plus the relative degradation between the two —
    the quantity the sweep exists to measure.
    """
    if fig.figure_id != "flt01":
        raise ValueError(f"expected a flt01 figure, got {fig.figure_id!r}")
    strategies: Dict[str, Any] = {}
    for name in CHURN_STRATEGIES:
        series = fig[name]
        if len(series) == 0:
            continue
        baseline = series.mean[0]
        worst = series.mean[-1]
        strategies[name] = {
            "x": list(series.x),
            "mean": list(series.mean),
            "std": list(series.std),
            "baseline": baseline,
            "at_max_churn": worst,
            "degradation": (worst - baseline) / baseline if baseline > 0 else float("nan"),
        }
    return {
        "figure": fig.figure_id,
        "title": fig.title,
        "meta": {k: _jsonable(v) for k, v in fig.meta.items()},
        "strategies": strategies,
        "crashes_observed": {
            "x": list(fig["crashes_observed"].x),
            "mean": list(fig["crashes_observed"].mean),
        },
    }


def _jsonable(value: object) -> object:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value
