"""Repetition and aggregation around the simulator.

The paper's figures average the *normalized communication amount* (total
blocks over the kernel's lower bound) across 10-50 simulations, drawing a
fresh speed vector per repetition (except the fixed-distribution β sweeps).
These helpers implement exactly that protocol with independent RNG streams
per repetition.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analysis.lower_bounds import lower_bound
from repro.core.analysis.matrix import matrix_total_ratio, optimal_matrix_beta
from repro.core.analysis.outer import optimal_outer_beta, outer_total_ratio
from repro.core.strategies.base import Strategy
from repro.obs.sink import MetricsSink, RecordingSink
from repro.platform.platform import Platform
from repro.platform.speeds import SpeedModel, StaticSpeedModel
from repro.simulator.batch import simulate_batch, simulate_sweep, sweep_group_key
from repro.store.cache import ResultStore
from repro.store.cells import load_cell, replicate_cell_key, save_cell
from repro.store.fingerprint import fingerprint
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.stats import RunningStats, Summary

__all__ = [
    "average_normalized_comm",
    "average_normalized_comm_group",
    "collect_planned_cells",
    "mean_analysis_ratio",
    "PlannedCell",
    "PlannedUnit",
    "PlatformFactory",
    "StrategyFactory",
]

# A platform factory receives the repetition's RNG and returns the platform
# (and optionally a speed model) for that repetition.
PlatformFactory = Callable[[np.random.Generator], "Platform | tuple[Platform, SpeedModel]"]
StrategyFactory = Callable[[], Strategy]


@dataclass(frozen=True)
class PlannedCell:
    """One replicate cell recorded by :func:`collect_planned_cells`.

    Carries everything needed to compute the cell later in any process —
    the (picklable) factories and scalar parameters — plus the cell's
    store key and fingerprint when the cell is cacheable (``None`` for
    uncacheable inputs, which planning skips over and the assembling run
    computes inline).
    """

    strategy_factory: StrategyFactory
    platform_factory: PlatformFactory
    n: int
    reps: int
    seed: SeedLike
    key: Optional[Dict[str, Any]]
    fingerprint: Optional[str]


#: A unit of planned work: the cells one
#: :func:`average_normalized_comm_group` call computes together (a figure
#: point's vector-kernel cells), or a single cell.
PlannedUnit = Tuple[PlannedCell, ...]

#: When set, :func:`average_normalized_comm` records cells instead of
#: computing them.  Context-local so a planner pass can never leak into
#: unrelated threads or tasks.
_PLAN_BUCKET: "contextvars.ContextVar[Optional[List[PlannedUnit]]]" = contextvars.ContextVar(
    "repro_plan_bucket", default=None
)

#: Placeholder statistics returned while planning; real values come from
#: the post-drain assembly pass, which hits the cache.  Non-zero so figure
#: code dividing by a planned mean never trips on 0.
_PLAN_PLACEHOLDER = Summary(n=1, mean=1.0, std=0.0, min=1.0, max=1.0)


@contextlib.contextmanager
def collect_planned_cells() -> Iterator[List[PlannedUnit]]:
    """Record the replicate cells a figure *would* compute, without computing.

    Inside the context every :func:`average_normalized_comm` call appends
    a one-cell :data:`PlannedUnit` to the yielded list, and every group of
    :func:`average_normalized_comm_group` appends one unit holding all its
    members; both return placeholder summaries.
    Running a figure generator under this context is the planning pass of
    the claims transport (:mod:`repro.experiments.external`): because the
    generators are deterministic in (figure, scale, seed), every worker
    plans the exact same units.
    """
    bucket: List[PlannedUnit] = []
    token = _PLAN_BUCKET.set(bucket)
    try:
        yield bucket
    finally:
        _PLAN_BUCKET.reset(token)


def _unpack(made: "Platform | tuple[Platform, SpeedModel]") -> "tuple[Platform, Optional[SpeedModel]]":
    if isinstance(made, tuple):
        platform, model = made
        return platform, model
    return made, None


def _batch_outcomes(
    generators: Sequence[np.random.Generator],
    strategy_factory: StrategyFactory,
    platform_factory: PlatformFactory,
    n: int,
    collect_metrics: bool,
) -> "List[tuple[float, Optional[Dict[str, Any]]]]":
    """Run one replicate per generator through :func:`simulate_batch`.

    Each stream draws its platform first, then simulates — the order one
    scalar :func:`~repro.simulator.simulate` call per replicate would
    consume it in — so outcomes (values and metric snapshots alike) are
    bit-identical to that scalar loop, whichever engine
    :func:`~repro.simulator.batch.fallback_reason` selects.
    """
    platforms: List[Platform] = []
    models: List[Optional[SpeedModel]] = []
    for generator in generators:
        platform, model = _unpack(platform_factory(generator))
        platforms.append(platform)
        models.append(model)
    sinks: Optional[List[RecordingSink]] = (
        [RecordingSink() for _ in generators] if collect_metrics else None
    )
    results = simulate_batch(
        strategy_factory,
        platforms,
        rngs=list(generators),
        speed_models=models,
        sinks=sinks,
    )
    kernel = strategy_factory().kernel
    outcomes: List[tuple[float, Optional[Dict[str, Any]]]] = []
    for idx, result in enumerate(results):
        lb = lower_bound(kernel, platforms[idx].relative_speeds, n)
        snapshot = sinks[idx].snapshot() if sinks is not None else None
        outcomes.append((result.normalized(lb), snapshot))
    return outcomes


def _planned_cell(
    strategy_factory: StrategyFactory,
    platform_factory: PlatformFactory,
    n: int,
    reps: int,
    seed: SeedLike,
    metrics: bool,
) -> PlannedCell:
    key = replicate_cell_key(
        strategy_factory=strategy_factory,
        platform_factory=platform_factory,
        n=n,
        reps=reps,
        seed=seed,
        metrics=metrics,
    )
    return PlannedCell(
        strategy_factory=strategy_factory,
        platform_factory=platform_factory,
        n=n,
        reps=reps,
        seed=seed,
        key=key,
        fingerprint=None if key is None else fingerprint(key),
    )


def average_normalized_comm(
    strategy_factory: StrategyFactory,
    platform_factory: PlatformFactory,
    n: int,
    reps: int,
    *,
    seed: SeedLike = 0,
    sink: Optional[MetricsSink] = None,
    cache: Optional[ResultStore] = None,
) -> Summary:
    """Mean/std of normalized communication over *reps* simulations.

    Each repetition gets an independent RNG stream used for the platform
    draw, the strategy's choices and any dynamic speed perturbations —
    mirroring the paper's protocol of averaging over full re-runs.

    When a *sink* is given, every repetition is instrumented with a fresh
    :class:`~repro.obs.sink.RecordingSink` whose snapshot is folded into
    *sink* via :meth:`~repro.obs.sink.MetricsSink.absorb_snapshot` in
    repetition order — the fold sequence of a scalar run, so accumulated
    metrics are bit-identical too.

    A *cache* (:class:`~repro.store.cache.ResultStore`) memoizes the whole
    cell: when both factories expose a ``cache_token()`` and the seed is
    tokenizable, the summary (and, with a sink, the per-repetition metric
    snapshots) is stored under a content fingerprint and later calls return
    it without simulating — bit-identical, since JSON round-trips floats
    exactly and cached snapshots replay through the same fold.  Uncacheable
    inputs silently bypass the cache.

    The replicates run through :func:`repro.simulator.simulate_batch`,
    which takes a vector kernel when the strategy's exact type has one and
    otherwise runs one scalar :func:`~repro.simulator.simulate` per
    replicate; both are bit-identical to the scalar oracle, so the engine
    changes runtime only.
    """
    if reps <= 0:
        raise ValueError(f"reps must be positive, got {reps}")
    bucket = _PLAN_BUCKET.get()
    if bucket is not None:
        bucket.append(
            (_planned_cell(strategy_factory, platform_factory, n, reps, seed, sink is not None),)
        )
        return _PLAN_PLACEHOLDER
    key = None
    if cache is not None:
        key = replicate_cell_key(
            strategy_factory=strategy_factory,
            platform_factory=platform_factory,
            n=n,
            reps=reps,
            seed=seed,
            metrics=sink is not None,
        )
        if key is not None:
            cached = load_cell(cache, key, sink=sink)
            if cached is not None:
                return cached
    snapshots: Optional[List[Dict[str, Any]]] = (
        [] if (key is not None and sink is not None) else None
    )
    stats = RunningStats()
    for value, snapshot in _batch_outcomes(
        spawn_rngs(seed, reps), strategy_factory, platform_factory, n, collect_metrics=sink is not None
    ):
        stats.add(value)
        if sink is not None and snapshot is not None:
            sink.absorb_snapshot(snapshot)
            if snapshots is not None:
                snapshots.append(snapshot)
    summary = stats.summary()
    if cache is not None and key is not None:
        save_cell(cache, key, summary, snapshots)
    return summary


def average_normalized_comm_group(
    strategy_factories: Sequence[StrategyFactory],
    platform_factory: PlatformFactory,
    n: int,
    reps: int,
    *,
    seed: SeedLike = 0,
    sink: Optional[MetricsSink] = None,
    cache: Optional[ResultStore] = None,
) -> List[Summary]:
    """One figure point: ``[average_normalized_comm(f, ...) for f in strategy_factories]``.

    Returns exactly what that loop returns, with the same cache keys and
    one store probe per cell, but computes the point's missing
    vector-kernel cells — the cells whose strategies share a
    :func:`repro.simulator.batch.sweep_group_key`: every Random*,
    Sorted*, MapReduce*, Dynamic* and Dynamic*2Phases cell of one kernel
    and ``n`` — in one :func:`repro.simulator.batch.simulate_sweep` call,
    which draws the platforms once and shares their pop schedules and
    phase-1 lockstep.  Every computed cell is stored under its own key
    once the group finishes.  Cells outside a group go through
    :func:`average_normalized_comm` as they are, in order.

    The whole point falls back to that per-cell loop with a *sink* or a
    non-integer seed (a generator or seed sequence advances between
    cells); a group whose platform factory
    yields a non-static speed model computes its cells one by one.  A
    cell repeating an earlier cell's key is probed after the group is
    stored, so even the store's hit and put counts match the loop.

    Under :func:`collect_planned_cells` each group of two or more members
    is recorded as one :data:`PlannedUnit` (at its first member's
    position) and every other cell as a unit of its own, so a drainer
    can compute the members it claims in one call to this function.
    """
    if reps <= 0:
        raise ValueError(f"reps must be positive, got {reps}")

    def one(factory: StrategyFactory) -> Summary:
        return average_normalized_comm(
            factory,
            platform_factory,
            n,
            reps,
            seed=seed,
            sink=sink,
            cache=cache,
        )

    integer_seed = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if sink is not None or not integer_seed:
        return [one(factory) for factory in strategy_factories]
    by_key: Dict[Any, List[int]] = {}
    for idx, factory in enumerate(strategy_factories):
        group = sweep_group_key(factory())
        if group is not None:
            by_key.setdefault(group, []).append(idx)
    groups = [members for members in by_key.values() if len(members) > 1]
    grouped = {idx for members in groups for idx in members}
    bucket = _PLAN_BUCKET.get()
    if bucket is not None:
        firsts = {members[0]: members for members in groups}
        for idx, factory in enumerate(strategy_factories):
            if idx in firsts:
                bucket.append(
                    tuple(
                        _planned_cell(strategy_factories[i], platform_factory, n, reps, seed, False)
                        for i in firsts[idx]
                    )
                )
            elif idx not in grouped:
                one(factory)
        return [_PLAN_PLACEHOLDER] * len(strategy_factories)
    summaries: List[Optional[Summary]] = []
    keys: Dict[int, Dict[str, Any]] = {}
    repeats: Dict[int, int] = {}  # member -> earlier member with its key
    for idx, factory in enumerate(strategy_factories):
        if idx not in grouped:
            summaries.append(one(factory))
            continue
        summaries.append(None)
        if cache is None:
            continue
        key = replicate_cell_key(
            strategy_factory=factory,
            platform_factory=platform_factory,
            n=n,
            reps=reps,
            seed=seed,
            metrics=False,
        )
        if key is None:
            continue
        origin = next((j for j, earlier in keys.items() if earlier == key), None)
        keys[idx] = key
        if origin is not None:
            repeats[idx] = origin
            continue
        summaries[idx] = load_cell(cache, key)
    for members in groups:
        missing = [i for i in members if summaries[i] is None and i not in repeats]
        if not missing:
            continue
        factories = [strategy_factories[i] for i in missing]
        computed = _sweep_summaries(factories, platform_factory, n, reps, seed) or [
            average_normalized_comm(factory, platform_factory, n, reps, seed=seed)
            for factory in factories
        ]
        for i, summary in zip(missing, computed):
            summaries[i] = summary
            if i in keys and cache is not None:
                save_cell(cache, keys[i], summary, None)
    for i, origin in repeats.items():
        assert cache is not None
        summaries[i] = load_cell(cache, keys[i]) or summaries[origin]
    done = [summary for summary in summaries if summary is not None]
    assert len(done) == len(summaries)
    return done


def _sweep_summaries(
    strategy_factories: Sequence[StrategyFactory],
    platform_factory: PlatformFactory,
    n: int,
    reps: int,
    seed: SeedLike,
) -> Optional[List[Summary]]:
    """Summaries of one group's cells from one :func:`simulate_sweep` call.

    Each replicate stream draws its platform first, then simulates — the
    order :func:`_batch_outcomes` uses — so every summary is bit-identical
    to the member's own cell.  ``None`` when a draw carries a non-static
    speed model, which the sweep cannot share between members.
    """
    generators = spawn_rngs(seed, reps)
    platforms: List[Platform] = []
    models: List[Optional[SpeedModel]] = []
    for generator in generators:
        platform, model = _unpack(platform_factory(generator))
        if model is not None and type(model) is not StaticSpeedModel:
            return None
        platforms.append(platform)
        models.append(model)
    results = simulate_sweep(strategy_factories, platforms, rngs=generators, speed_models=models)
    kernel = strategy_factories[0]().kernel
    bounds = [lower_bound(kernel, platform.relative_speeds, n) for platform in platforms]
    summaries: List[Summary] = []
    for member in results:
        stats = RunningStats()
        for result, bound in zip(member, bounds):
            stats.add(result.normalized(bound))
        summaries.append(stats.summary())
    return summaries


def mean_analysis_ratio(
    kernel: str,
    platform_factory: PlatformFactory,
    n: int,
    reps: int,
    *,
    seed: SeedLike = 0,
    beta: Optional[float] = None,
) -> Summary:
    """Mean/std of the *predicted* normalized communication over draws.

    For each repetition's platform draw, evaluates the closed-form total
    ratio at *beta* (or at the per-draw optimal β when ``beta`` is None) —
    this is the "Analysis" curve of Figures 4, 5, 7, 8, 9, 10.
    """
    if reps <= 0:
        raise ValueError(f"reps must be positive, got {reps}")
    stats = RunningStats()
    for rng in spawn_rngs(seed, reps):
        platform, _ = _unpack(platform_factory(rng))
        rel = platform.relative_speeds
        if kernel == "outer":
            b = optimal_outer_beta(rel, n) if beta is None else beta
            stats.add(outer_total_ratio(b, rel, n))
        elif kernel == "matrix":
            b = optimal_matrix_beta(rel, n) if beta is None else beta
            stats.add(matrix_total_ratio(b, rel, n))
        else:
            raise ValueError(f"kernel must be 'outer' or 'matrix', got {kernel!r}")
    return stats.summary()
