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
from repro.store.cells import Snapshot, load_cell, replicate_cell_key, save_cell
from repro.store.fingerprint import fingerprint
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.stats import RunningStats, Summary
from repro.utils.validation import check_positive_int

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
    """One replicate cell, described as data.

    Carries everything needed to compute the cell later in any process —
    the (picklable) factories and scalar parameters — plus the cell's
    store key and fingerprint when the cell is cacheable (``None`` for
    uncacheable inputs, which planning skips over and the assembling run
    computes inline).  :func:`collect_planned_cells` records these cells,
    the claims drainers compute them, and ``repro-serve`` queues them
    (:class:`~repro.serve.protocol.CellSpec`) and runs them in batches
    (:func:`~repro.experiments.parallel.run_cells`).  Build one with
    :meth:`of`.
    """

    strategy_factory: StrategyFactory
    platform_factory: PlatformFactory
    n: int
    reps: int
    seed: SeedLike
    key: Optional[Dict[str, Any]]
    fingerprint: Optional[str]

    @classmethod
    def of(
        cls,
        strategy_factory: StrategyFactory,
        platform_factory: PlatformFactory,
        n: int,
        reps: int,
        *,
        seed: SeedLike = 0,
        metrics: bool = False,
    ) -> "PlannedCell":
        """Validate, key and fingerprint one cell.

        *n* and *reps* must be positive integers; *metrics* is whether the
        cell collects per-repetition sink snapshots (a runner call with a
        sink), which its store key records.
        """
        n = check_positive_int("n", n)
        reps = check_positive_int("reps", reps)
        key = replicate_cell_key(
            strategy_factory=strategy_factory,
            platform_factory=platform_factory,
            n=n,
            reps=reps,
            seed=seed,
            metrics=metrics,
        )
        return cls(
            strategy_factory,
            platform_factory,
            n,
            reps,
            seed,
            key,
            None if key is None else fingerprint(key),
        )


#: A unit of planned work: the cells one
#: :func:`average_normalized_comm_group` call computes together (a figure
#: point's vector-kernel cells), or a single cell.
PlannedUnit = Tuple[PlannedCell, ...]

#: When set, :func:`average_normalized_comm_group` records cells instead
#: of computing them.  Context-local so a planner pass can never leak into
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

    Inside the context every :func:`average_normalized_comm_group` call
    (and so every :func:`average_normalized_comm` call, its one-member
    case) appends one :data:`PlannedUnit` per unit of cells it would
    compute together and returns placeholder summaries.
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
    changes runtime only.  This is the one-member figure point of
    :func:`average_normalized_comm_group`.
    """
    return average_normalized_comm_group(
        [strategy_factory], platform_factory, n, reps, seed=seed, sink=sink, cache=cache
    )[0]


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
    one store probe per cell, but computes the cells in *units*: the
    cells whose strategies share a
    :func:`repro.simulator.batch.sweep_group_key` — every Random*,
    Sorted*, MapReduce*, Dynamic* and Dynamic*2Phases cell of one kernel
    and ``n`` — form one unit, every other cell is a unit of its own.
    With a *sink* or a non-integer seed (a generator or seed sequence
    advances between cells) every cell is its own unit.

    Units run in the order of their first member.  A unit probes the
    store for each member, computes the missing ones in one go — one
    :func:`repro.simulator.batch.simulate_sweep` call for several
    members, which draws the platforms once and shares their pop
    schedules and phase-1 lockstep; :func:`repro.simulator.simulate_batch`
    for one — then folds their snapshots into *sink* in order and stores
    each under its own key.  A unit whose platform factory yields a
    non-static speed model computes its members one by one.  A member
    repeating an earlier member's key is probed after the unit is
    stored, so even the store's hit and put counts match the loop.

    Under :func:`collect_planned_cells` each unit is recorded as one
    :data:`PlannedUnit`, so a drainer can compute the members it claims
    in one call to this function.
    """
    if reps <= 0:
        raise ValueError(f"reps must be positive, got {reps}")
    units = _units(strategy_factories, seed, sink)
    metrics = sink is not None
    bucket = _PLAN_BUCKET.get()
    if bucket is not None:
        bucket.extend(
            tuple(
                PlannedCell.of(strategy_factories[i], platform_factory, n, reps, seed=seed, metrics=metrics)
                for i in unit
            )
            for unit in units
        )
        return [_PLAN_PLACEHOLDER] * len(strategy_factories)
    summaries: Dict[int, Summary] = {}
    for unit in units:
        keys: Dict[int, Dict[str, Any]] = {}
        repeats: Dict[int, int] = {}  # member -> earlier member with its key
        missing: List[int] = []
        for i in unit:
            key = None
            if cache is not None:
                key = replicate_cell_key(
                    strategy_factory=strategy_factories[i],
                    platform_factory=platform_factory,
                    n=n,
                    reps=reps,
                    seed=seed,
                    metrics=metrics,
                )
            if cache is None or key is None:
                missing.append(i)
                continue
            origin = next((j for j, earlier in keys.items() if earlier == key), None)
            keys[i] = key
            if origin is not None:
                repeats[i] = origin
                continue
            cached = load_cell(cache, key, sink=sink)
            if cached is None:
                missing.append(i)
            else:
                summaries[i] = cached
        if missing:
            computed = _compute(
                [strategy_factories[i] for i in missing], platform_factory, n, reps, seed, metrics=metrics
            )
            for i, (summary, snapshots) in zip(missing, computed):
                if sink is not None and snapshots is not None:
                    for snapshot in snapshots:
                        sink.absorb_snapshot(snapshot)
                summaries[i] = summary
                if cache is not None and i in keys:
                    save_cell(cache, keys[i], summary, snapshots)
        for i, origin in repeats.items():
            assert cache is not None
            summaries[i] = load_cell(cache, keys[i], sink=sink) or summaries[origin]
    return [summaries[i] for i in range(len(strategy_factories))]


def _units(
    strategy_factories: Sequence[StrategyFactory], seed: SeedLike, sink: Optional[MetricsSink]
) -> List[List[int]]:
    """The cells :func:`average_normalized_comm_group` computes together.

    Index lists in the order of their first member: one per
    :func:`~repro.simulator.batch.sweep_group_key`, plus one per cell
    outside every group — or one per cell with a *sink* or a non-integer
    seed.  A single cell builds no strategy to find out.
    """
    count = len(strategy_factories)
    integer_seed = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if count == 1 or sink is not None or not integer_seed:
        return [[i] for i in range(count)]
    units: Dict[Any, List[int]] = {}
    for idx, factory in enumerate(strategy_factories):
        group = sweep_group_key(factory())
        units.setdefault(idx if group is None else group, []).append(idx)
    return list(units.values())


def _compute(
    strategy_factories: Sequence[StrategyFactory],
    platform_factory: PlatformFactory,
    n: int,
    reps: int,
    seed: SeedLike,
    *,
    metrics: bool,
) -> "List[Tuple[Summary, Optional[List[Snapshot]]]]":
    """Each member's summary, plus its per-repetition snapshots with *metrics*.

    Each replicate stream draws its platform first, then simulates — the
    order one scalar :func:`~repro.simulator.simulate` call per replicate
    would consume it in — so every summary (and snapshot) is bit-identical
    to that scalar loop, whichever engine
    :func:`~repro.simulator.batch.fallback_reason` selects.  One member
    runs through :func:`simulate_batch`; several share the draws in one
    :func:`simulate_sweep` call, unless a draw carries a non-static speed
    model, which the sweep cannot share: then each member is computed on
    its own, from freshly spawned streams.
    """
    generators = spawn_rngs(seed, reps)
    platforms: List[Platform] = []
    models: List[Optional[SpeedModel]] = []
    for generator in generators:
        platform, model = _unpack(platform_factory(generator))
        if len(strategy_factories) > 1 and model is not None and type(model) is not StaticSpeedModel:
            return [
                _compute([factory], platform_factory, n, reps, seed, metrics=metrics)[0]
                for factory in strategy_factories
            ]
        platforms.append(platform)
        models.append(model)
    sinks: Optional[List[RecordingSink]] = None
    if len(strategy_factories) == 1:
        sinks = [RecordingSink() for _ in generators] if metrics else None
        members = [
            simulate_batch(
                strategy_factories[0],
                platforms,
                rngs=generators,
                speed_models=models,
                sinks=sinks,
            )
        ]
    else:
        members = simulate_sweep(strategy_factories, platforms, rngs=generators, speed_models=models)
    kernel = strategy_factories[0]().kernel
    bounds = [lower_bound(kernel, platform.relative_speeds, n) for platform in platforms]
    out: List[Tuple[Summary, Optional[List[Snapshot]]]] = []
    for results in members:
        stats = RunningStats()
        for result, bound in zip(results, bounds):
            stats.add(result.normalized(bound))
        snapshots = None if sinks is None else [s.snapshot() for s in sinks]
        out.append((stats.summary(), snapshots))
    return out


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
