"""Process-parallel replicate execution for the experiment runner.

The paper's figures each average 10-50 independent simulations; the
repetitions share nothing but a top-level seed, which makes the replicate
dimension embarrassingly parallel.  This module distributes repetitions
over a :class:`~concurrent.futures.ProcessPoolExecutor` while staying
**bit-identical** to the serial loop in
:func:`repro.experiments.runner.average_normalized_comm` for every worker
count:

* each repetition's RNG stream is pre-spawned in the parent via
  :func:`repro.utils.rng.spawn_seed_sequences`, so the stream a repetition
  consumes does not depend on which process runs it;
* per-repetition values are collected back **in repetition order** and
  folded through the same Welford accumulator the serial path uses, so the
  floating-point aggregation order is identical too.

Dispatch is chunked: repetitions are grouped into one contiguous index
chunk per worker, so each process pays its startup and import cost against
``reps / workers`` repetitions rather than one.  Chunks go to a **warm
pool** — a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
kept alive across calls, so a bench loop or sweep pays process startup
once, not per cell; the job is pickled once and shipped with every chunk.

When the pool is unusable (no multiprocessing support, a broken pool, or
a job that does not pickle, such as one built from closure factories) the
call silently degrades to the serial path, preserving results.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.strategies.base import Strategy
from repro.core.strategies.registry import make_strategy
from repro.experiments.runner import (
    PlatformFactory,
    StrategyFactory,
    _batch_outcomes,
    _rep_normalized_comm,
    _should_vectorize,
)
from repro.obs.sink import MetricsSink, RecordingSink
from repro.platform.platform import Platform
from repro.store.cache import ResultStore
from repro.store.cells import load_cell, replicate_cell_key, save_cell
from repro.platform.speeds import (
    SCENARIO_NAMES,
    SpeedModel,
    heterogeneity_speeds,
    make_scenario,
    uniform_speeds,
)
from repro.utils.rng import SeedLike, as_generator, spawn_seed_sequences
from repro.utils.stats import RunningStats, Summary
from repro.utils.validation import check_positive_int, check_speeds

__all__ = [
    "CellRequest",
    "CellResult",
    "FixedPlatformSpec",
    "HeterogeneityPlatformSpec",
    "RepJob",
    "RepOutcome",
    "ScenarioPlatformSpec",
    "StrategySpec",
    "UniformPlatformSpec",
    "parallel_average_normalized_comm",
    "resolve_workers",
    "run_cells",
    "shutdown_pool",
]


# ---------------------------------------------------------------------------
# Picklable factory specs
# ---------------------------------------------------------------------------


class StrategySpec:
    """Picklable :data:`~repro.experiments.runner.StrategyFactory`.

    Calling the spec builds ``make_strategy(name, n, **kwargs)``; because it
    carries only the registry name and plain arguments, it round-trips
    through ``pickle`` and can therefore cross process boundaries on
    spawn-only platforms where closures cannot.
    """

    __slots__ = ("name", "n", "kwargs")

    def __init__(self, name: str, n: int, **kwargs: Any) -> None:
        self.name = str(name)
        self.n = check_positive_int("n", n)
        self.kwargs: Dict[str, Any] = dict(kwargs)

    def __call__(self) -> Strategy:
        return make_strategy(self.name, self.n, **self.kwargs)

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["strategy", self.name, self.n, dict(sorted(self.kwargs.items()))]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrategySpec):
            return NotImplemented
        return (self.name, self.n, self.kwargs) == (other.name, other.n, other.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = "".join(f", {k}={v!r}" for k, v in sorted(self.kwargs.items()))
        return f"StrategySpec({self.name!r}, {self.n}{extra})"


class UniformPlatformSpec:
    """Picklable platform factory: *p* speeds uniform in ``[low, high]``.

    The paper's default platform draw (Figures 1, 4, 5, 9, 10 use
    ``[10, 100]``).
    """

    __slots__ = ("p", "low", "high")

    def __init__(self, p: int, low: float = 10.0, high: float = 100.0) -> None:
        self.p = check_positive_int("p", p)
        self.low = float(low)
        self.high = float(high)

    def __call__(self, rng: np.random.Generator) -> Platform:
        return Platform(uniform_speeds(self.p, self.low, self.high, rng=rng))

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["uniform", self.p, self.low, self.high]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniformPlatformSpec):
            return NotImplemented
        return (self.p, self.low, self.high) == (other.p, other.low, other.high)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformPlatformSpec(p={self.p}, low={self.low}, high={self.high})"


class FixedPlatformSpec:
    """Picklable platform factory returning one fixed speed vector.

    Mirrors the β sweeps (Figures 2, 6, 11), which reuse a single platform
    draw across every repetition; only the simulation stream varies.
    """

    __slots__ = ("speeds",)

    def __init__(self, speeds: Sequence[float]) -> None:
        self.speeds: Tuple[float, ...] = tuple(float(s) for s in check_speeds(speeds))

    def __call__(self, rng: np.random.Generator) -> Platform:
        return Platform(np.asarray(self.speeds, dtype=np.float64))

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["fixed", list(self.speeds)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedPlatformSpec):
            return NotImplemented
        return self.speeds == other.speeds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedPlatformSpec(p={len(self.speeds)})"


class HeterogeneityPlatformSpec:
    """Picklable platform factory for the Figure-7 heterogeneity sweep."""

    __slots__ = ("p", "h")

    def __init__(self, p: int, h: float) -> None:
        self.p = check_positive_int("p", p)
        h = float(h)
        if not 0.0 <= h < 100.0:
            raise ValueError(f"heterogeneity h must lie in [0, 100), got {h}")
        self.h = h

    def __call__(self, rng: np.random.Generator) -> Platform:
        return Platform(heterogeneity_speeds(self.p, self.h, rng=rng))

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["heterogeneity", self.p, self.h]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeterogeneityPlatformSpec):
            return NotImplemented
        return (self.p, self.h) == (other.p, other.h)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeterogeneityPlatformSpec(p={self.p}, h={self.h})"


class ScenarioPlatformSpec:
    """Picklable platform factory for the named Figure-8 scenarios."""

    __slots__ = ("scenario", "p")

    def __init__(self, scenario: str, p: int) -> None:
        if scenario not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {scenario!r}; choose from {sorted(SCENARIO_NAMES)}"
            )
        self.scenario = scenario
        self.p = check_positive_int("p", p)

    def __call__(self, rng: np.random.Generator) -> Tuple[Platform, SpeedModel]:
        return make_scenario(self.scenario, self.p, rng=rng)

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["scenario", self.scenario, self.p]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioPlatformSpec):
            return NotImplemented
        return (self.scenario, self.p) == (other.scenario, other.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScenarioPlatformSpec({self.scenario!r}, p={self.p})"


# ---------------------------------------------------------------------------
# The replicate job
# ---------------------------------------------------------------------------


#: One repetition's outcome: the normalized-communication value plus the
#: repetition sink's snapshot when metric collection is on (else ``None``).
RepOutcome = Tuple[float, Optional[Dict[str, Any]]]


def _rep_values(
    seeds: Sequence[np.random.SeedSequence],
    indices: Sequence[int],
    strategy_factory: StrategyFactory,
    platform_factory: PlatformFactory,
    n: int,
    collect_metrics: bool = False,
    vectorize: bool = False,
) -> List[RepOutcome]:
    """Run the repetitions *indices*, each from its own pre-spawned stream.

    With *vectorize* (a resolved boolean — ``"auto"`` is decided before the
    job is built) the whole index batch runs through the batch engine in
    one lockstep call; outcomes still come back in *indices* order and stay
    bit-identical to the scalar loop.
    """
    if vectorize:
        generators = [as_generator(seeds[i]) for i in indices]
        return _batch_outcomes(
            generators, strategy_factory, platform_factory, n, collect_metrics
        )
    outcomes: List[RepOutcome] = []
    for i in indices:
        rep_sink = RecordingSink() if collect_metrics else None
        value = _rep_normalized_comm(
            as_generator(seeds[i]), strategy_factory, platform_factory, n, sink=rep_sink
        )
        outcomes.append((value, None if rep_sink is None else rep_sink.snapshot()))
    return outcomes


class RepJob:
    """Everything a worker process needs to run a batch of repetitions.

    Holds the factories, the problem size and the **resolved** per-repetition
    seed sequences — resolving them in the parent is what makes results
    independent of the process a repetition lands on.  The job pickles iff
    its factories do (the ``*Spec`` classes above always do); a job built
    from closures runs serially.

    With ``collect_metrics=True`` every repetition runs under a fresh
    :class:`~repro.obs.sink.RecordingSink` and its (picklable) snapshot
    travels back with the value, so the caller can fold snapshots in
    repetition order regardless of which process ran which repetition.
    """

    __slots__ = (
        "strategy_factory",
        "platform_factory",
        "n",
        "seeds",
        "collect_metrics",
        "vectorize",
    )

    def __init__(
        self,
        strategy_factory: StrategyFactory,
        platform_factory: PlatformFactory,
        n: int,
        seeds: Sequence[np.random.SeedSequence],
        collect_metrics: bool = False,
        vectorize: bool = False,
    ) -> None:
        self.strategy_factory = strategy_factory
        self.platform_factory = platform_factory
        self.n = check_positive_int("n", n)
        self.seeds: List[np.random.SeedSequence] = list(seeds)
        self.collect_metrics = bool(collect_metrics)
        self.vectorize = bool(vectorize)

    def run(self, indices: Sequence[int]) -> List[RepOutcome]:
        """Per-repetition ``(value, snapshot)`` outcomes for *indices*."""
        return _rep_values(
            self.seeds,
            indices,
            self.strategy_factory,
            self.platform_factory,
            self.n,
            self.collect_metrics,
            self.vectorize,
        )


# ---------------------------------------------------------------------------
# Dispatch machinery
# ---------------------------------------------------------------------------

def _pickled_chunk(payload: bytes, indices: List[int]) -> List[RepOutcome]:
    job: RepJob = pickle.loads(payload)
    return job.run(indices)


def resolve_workers(workers: int) -> int:
    """Resolve a ``workers`` option: ``0`` means one worker per CPU."""
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(f"workers must be an integer, got {type(workers).__name__}")
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = one per CPU), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _chunk_indices(reps: int, workers: int, chunk_size: Optional[int]) -> List[List[int]]:
    """Split ``range(reps)`` into contiguous chunks, one per worker.

    Repetitions of one cell cost near-identical time, so stragglers are
    not a concern and the widest chunks win: each worker amortizes its
    startup over ``ceil(reps / workers)`` repetitions, and wide chunks
    are what lets a vectorized job run one big lockstep batch per worker.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-reps // workers))
    else:
        chunk_size = check_positive_int("chunk_size", chunk_size)
    return [list(range(lo, min(lo + chunk_size, reps))) for lo in range(0, reps, chunk_size)]


def _preferred_context() -> Optional[multiprocessing.context.BaseContext]:
    """The best available multiprocessing context, or ``None`` if none is."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    if "spawn" in methods:
        return multiprocessing.get_context("spawn")
    return None


#: The warm worker pool and the (start method, worker count) it was built
#: for.  Kept alive across calls so sweeps and bench loops pay process
#: startup once; :func:`shutdown_pool` (registered ``atexit``) reclaims it.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_KEY: Optional[Tuple[str, int]] = None


def shutdown_pool() -> None:
    """Shut down the warm worker pool, if one is alive.

    Called automatically at interpreter exit; tests and long-lived hosts
    can call it explicitly to reclaim the worker processes.
    """
    global _POOL, _POOL_KEY
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
    _POOL_KEY = None


atexit.register(shutdown_pool)


def _warm_pool(
    ctx: multiprocessing.context.BaseContext, workers: int
) -> Optional[ProcessPoolExecutor]:
    """The persistent pool for (*ctx*, *workers*), (re)building on change."""
    global _POOL, _POOL_KEY
    key = (ctx.get_start_method(), workers)
    if _POOL is not None and _POOL_KEY == key:
        return _POOL
    shutdown_pool()
    try:
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
    except OSError:
        return None
    _POOL_KEY = key
    return _POOL


def _run_pickled(
    job: RepJob,
    chunks: List[List[int]],
    workers: int,
    ctx: multiprocessing.context.BaseContext,
) -> Optional[List[RepOutcome]]:
    """Run the chunks on the warm pool; ``None`` when it cannot."""
    try:
        payload = pickle.dumps(job)
    except Exception:  # closures and other factories that do not pickle
        return None
    pool = _warm_pool(ctx, workers)
    if pool is None:
        return None
    try:
        results = list(pool.map(_pickled_chunk, repeat(payload), chunks))
    except BrokenProcessPool:
        shutdown_pool()
        return None
    return [outcome for chunk in results for outcome in chunk]


def _dispatch(
    job: RepJob, reps: int, workers: int, chunk_size: Optional[int]
) -> List[RepOutcome]:
    """Run all repetitions, in parallel where possible, serial otherwise."""
    all_indices = list(range(reps))
    chunks = _chunk_indices(reps, workers, chunk_size)
    if len(chunks) <= 1:
        return job.run(all_indices)
    ctx = _preferred_context()
    values = None if ctx is None else _run_pickled(job, chunks, workers, ctx)
    if values is None:
        return job.run(all_indices)
    return values


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def parallel_average_normalized_comm(
    strategy_factory: StrategyFactory,
    platform_factory: PlatformFactory,
    n: int,
    reps: int,
    *,
    seed: SeedLike = 0,
    workers: int = 0,
    chunk_size: Optional[int] = None,
    sink: Optional[MetricsSink] = None,
    cache: Optional[ResultStore] = None,
    vectorize: Union[bool, str] = "auto",
) -> Summary:
    """Parallel drop-in for :func:`~repro.experiments.runner.average_normalized_comm`.

    Distributes the *reps* repetitions over ``workers`` processes
    (``0`` = one per CPU) and returns a :class:`~repro.utils.stats.Summary`
    **bit-identical** to the serial path for any worker count: streams are
    pre-spawned per repetition and aggregation runs in repetition order.
    ``chunk_size`` overrides the dispatch granularity (mostly for tests).

    A *sink* receives every repetition's metrics: each repetition runs under
    a fresh :class:`~repro.obs.sink.RecordingSink` in its worker process and
    the picklable snapshots are absorbed here **in repetition order**, so
    the accumulated metrics match the serial path bit for bit.

    A *cache* memoizes the whole cell exactly as the serial path does (same
    key, same payload — a cell computed serially is a parallel hit and vice
    versa); the store's file lock makes sharing one cache directory across
    worker processes safe.

    ``vectorize`` (``"auto"``/``True``/``False``) selects the batch engine
    inside each worker's chunk, exactly as in the serial entry point; it is
    resolved here once so worker processes never re-decide.
    """
    if reps <= 0:
        raise ValueError(f"reps must be positive, got {reps}")
    use_batch = _should_vectorize(vectorize, strategy_factory)
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
    nworkers = resolve_workers(workers)
    job = RepJob(
        strategy_factory,
        platform_factory,
        n,
        spawn_seed_sequences(seed, reps),
        collect_metrics=sink is not None,
        vectorize=use_batch,
    )
    if nworkers <= 1:
        outcomes = job.run(list(range(reps)))
    else:
        outcomes = _dispatch(job, reps, nworkers, chunk_size)
    snapshots: Optional[List[Dict[str, Any]]] = (
        [] if (key is not None and sink is not None) else None
    )
    stats = RunningStats()
    for value, snapshot in outcomes:
        stats.add(value)
        if sink is not None and snapshot is not None:
            sink.absorb_snapshot(snapshot)
            if snapshots is not None:
                snapshots.append(snapshot)
    summary = stats.summary()
    if cache is not None and key is not None:
        save_cell(cache, key, summary, snapshots)
    return summary


# ---------------------------------------------------------------------------
# Callable batch entry point (used by ``repro-serve`` lane workers)
# ---------------------------------------------------------------------------


class CellRequest:
    """One replicate cell, described as data, for :func:`run_cells`.

    The request carries exactly the inputs of a
    :func:`~repro.experiments.runner.average_normalized_comm` call —
    factories, problem size, repetition count and seed — so a batch of
    heterogeneous cells (different strategies, platforms and sizes) can be
    submitted through one entry point.  ``key()`` exposes the cell's cache
    key, which is what lets callers (the serve queue, sweep planners)
    deduplicate requests before computing anything.
    """

    __slots__ = ("strategy_factory", "platform_factory", "n", "reps", "seed")

    def __init__(
        self,
        strategy_factory: StrategyFactory,
        platform_factory: PlatformFactory,
        n: int,
        reps: int,
        *,
        seed: SeedLike = 0,
    ) -> None:
        self.strategy_factory = strategy_factory
        self.platform_factory = platform_factory
        self.n = check_positive_int("n", n)
        self.reps = check_positive_int("reps", reps)
        self.seed = seed

    def key(self, *, metrics: bool = False) -> Optional[Dict[str, Any]]:
        """The cell's cache key (``None`` when any input is uncacheable)."""
        return replicate_cell_key(
            strategy_factory=self.strategy_factory,
            platform_factory=self.platform_factory,
            n=self.n,
            reps=self.reps,
            seed=self.seed,
            metrics=metrics,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CellRequest({self.strategy_factory!r}, {self.platform_factory!r}, "
            f"n={self.n}, reps={self.reps}, seed={self.seed!r})"
        )


class CellResult:
    """Outcome of one :class:`CellRequest`: a summary or an error string.

    Batch callers need per-cell fault isolation — one malformed cell must
    not void its batch siblings' work — so failures are captured here
    instead of raised.  Exactly one of ``summary``/``error`` is set.
    """

    __slots__ = ("summary", "error")

    def __init__(self, summary: Optional[Summary], error: Optional[str] = None) -> None:
        if (summary is None) == (error is None):
            raise ValueError("exactly one of summary/error must be set")
        self.summary = summary
        self.error = error

    @property
    def ok(self) -> bool:
        """True when the cell computed (or loaded) successfully."""
        return self.summary is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CellResult(summary={self.summary!r}, error={self.error!r})"


def run_cells(
    requests: Sequence[CellRequest],
    *,
    cache: Optional[ResultStore] = None,
    workers: int = 1,
    vectorize: Union[bool, str] = "auto",
) -> List[CellResult]:
    """Run a batch of replicate cells through the replicate runner.

    The callable batch entry point behind ``repro-serve``'s simulation
    lane: each request goes through
    :func:`~repro.experiments.runner.average_normalized_comm` with the
    shared *cache* (hits load, misses compute and write back) and the
    results come back **in request order**.  A failing cell yields a
    :class:`CellResult` carrying the error message instead of aborting the
    batch — the caller decides whether a cell failure is fatal.

    ``workers``/``vectorize`` are forwarded per cell; the batch itself runs
    sequentially in the calling thread, so a thread-pool caller gets one
    OS thread per *batch*, not per cell.
    """
    from repro.experiments.runner import average_normalized_comm

    results: List[CellResult] = []
    for request in requests:
        try:
            summary = average_normalized_comm(
                request.strategy_factory,
                request.platform_factory,
                request.n,
                request.reps,
                seed=request.seed,
                workers=workers,
                cache=cache,
                vectorize=vectorize,
            )
        except Exception as exc:
            results.append(CellResult(None, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CellResult(summary))
    return results
