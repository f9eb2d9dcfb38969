"""Vectorized multi-replicate engine: R runs of one cell in lockstep.

:func:`simulate_batch` runs R replicates of the same (strategy
configuration, platform) cell and returns one
:class:`~repro.simulator.results.SimulationResult` per replicate —
**bit-identical** to R separate :func:`repro.simulator.simulate` calls
with the same generators.  When the strategy's exact type has a vector
kernel (see :mod:`repro.simulator.vector_kernels`), the replicates
advance together over (R, p) / (R, n, ·) numpy arrays; otherwise each
replicate transparently falls back to the scalar engine.
:func:`fallback_reason` names the first reason a batch cannot take the
fast path (``None`` when it can), and sweep runners record it so a
silent scalar fallback is visible in bench/report output.

Dynamic speed models no longer force the fallback: the kernel replays
``model.duration`` per event on the replicate's own stream (see
:meth:`~repro.simulator.vector_kernels._LockstepAccumulator.commit`), so ``dyn.*``
heterogeneity sweeps vectorize too.  Only strategy subclasses without a
kernel, per-task id collection, mixed worker counts, or custom/shared
model instances still drop to the scalar loop.

Large batches are sliced along the replicate axis: each kernel reports a
per-replicate working-set estimate and :func:`simulate_batch` runs
``ceil(R / chunk)`` kernel invocations whose state fits
*memory_budget_bytes* (default 256 MiB).  Chunking is invisible in the
results — replicates never interact, so slicing the batch is exact, not
approximate.

:func:`simulate_sweep` runs several cells of one product over the same
replicates in one call — typically every vector-kernel cell of a figure
point.  Every strategy of a product is a member of one lockstep loop
that leaves it at its own fork: Dynamic* never, Dynamic*2Phases at its
threshold, Random*, Sorted* and MapReduce* at their first pop.  So the
Dynamic* phase 1 runs once, every two-phase member forks its closed-form
phase 2 off it, and the members without a phase 1 share one pop schedule
per replicate.  Each member's results equal its own
:func:`simulate_batch` bit for bit.

The scalar engine stays the oracle: nothing here changes simulation
semantics, RNG consumption or float operand order, which is what keeps
store cache entries, pinned fingerprints and recorded experiments valid
across the two code paths.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple, Type, TypeVar, Union

import numpy as np

from repro.core.strategies.base import Strategy
from repro.obs.sink import MetricsSink
from repro.platform.platform import Platform
from repro.platform.speeds import DynamicSpeedModel, SpeedModel, StaticSpeedModel
from repro.simulator.engine import simulate
from repro.simulator.results import SimulationResult
from repro.simulator.trace import AssignmentRecord, Trace
from repro.simulator.vector_kernels import BatchContext, KernelRun, kernel_for
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "fallback_reason",
    "has_vector_kernel",
    "simulate_batch",
    "simulate_sweep",
    "sweep_group_key",
]

_T = TypeVar("_T")

#: Default ceiling on kernel working-set bytes per batch; replicate
#: chunks are sized so paper-scale (R, n, n, n) bitmaps stay in RAM.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024


def has_vector_kernel(strategy: Union[Strategy, Type[Strategy]]) -> bool:
    """True when *strategy*'s exact type has a vectorized batch kernel."""
    return kernel_for(strategy) is not None


def fallback_reason(
    strategy: Union[Strategy, Type[Strategy]],
    platforms: Optional[Sequence[Platform]] = None,
    speed_models: Optional[Sequence[Optional[SpeedModel]]] = None,
) -> Optional[str]:
    """Why a batch of *strategy* would fall back to the scalar engine.

    Returns ``None`` when the vectorized fast path applies, else the
    first blocking reason:

    ``"no-kernel"``
        The exact strategy type has no vector kernel (e.g. a user
        subclass — the registry never matches subclasses, since they may
        change semantics).
    ``"collect-ids"``
        Per-task id collection is a scalar-trace feature.
    ``"mixed-p"``
        Replicate platforms disagree on the worker count, so (R, p)
        state has no common shape.
    ``"custom-speed-model"``
        A speed model other than the static/dynamic library models; only
        those two have kernel-side replay contracts.
    ``"shared-speed-model"``
        One dynamic model instance serving several replicates — its
        internal state would interleave streams, which only sequential
        scalar runs order correctly.

    Figure metadata (``engine``), ``repro-bench`` records and the
    ``repro-report`` engine note name this string, so a scalar fallback
    is visible rather than silent.
    """
    if kernel_for(strategy) is None:
        return "no-kernel"
    collect_ids = strategy.collect_ids if isinstance(strategy, Strategy) else False
    if collect_ids:
        return "collect-ids"
    if platforms is not None:
        if not platforms:
            return "mixed-p"
        p0 = platforms[0].p
        if any(pl.p != p0 for pl in platforms):
            return "mixed-p"
    if speed_models is not None:
        seen_dynamic: Set[int] = set()
        for model in speed_models:
            if model is None or type(model) is StaticSpeedModel:
                continue
            if type(model) is not DynamicSpeedModel:
                return "custom-speed-model"
            if id(model) in seen_dynamic:
                return "shared-speed-model"
            seen_dynamic.add(id(model))
    return None


def sweep_group_key(strategy: Strategy) -> Optional[Tuple[str, int]]:
    """The group *strategy* can join in :func:`simulate_sweep`.

    ``(kernel, n)`` for every exact-type strategy the vector kernel
    covers — the Random*, Sorted*, MapReduce*, Dynamic* and
    Dynamic*2Phases of that product — without per-task id collection;
    strategies with equal keys can share one sweep.  ``None`` for
    everything else, which only runs cell by cell.
    """
    if fallback_reason(strategy) is not None:
        return None
    return (strategy.kernel, strategy.n)


def _per_replicate(what: str, values: Optional[Sequence[_T]], R: int) -> Sequence[Optional[_T]]:
    """One entry per replicate: *values*, or ``None`` for every replicate."""
    if values is None:
        return [None] * R
    if len(values) != R:
        raise ValueError(f"got {len(values)} {what} for {R} platforms")
    return values


def _contexts(
    platforms: Sequence[Platform],
    generators: Sequence[np.random.Generator],
    models: Sequence[Optional[SpeedModel]],
    want_events: bool,
    per_rep: int,
    memory_budget_bytes: Optional[int],
) -> Iterator[BatchContext]:
    """Kernel inputs for each replicate chunk that fits the memory budget."""
    # Observable-state parity with the scalar engine: every model reset
    # runs up front (resets draw nothing, so chunk boundaries cannot
    # reorder stream consumption).
    for platform, generator, model in zip(platforms, generators, models):
        if model is not None:
            model.reset(platform, generator)
    speeds = np.stack([np.asarray(pl.speeds, dtype=np.float64) for pl in platforms])
    budget = DEFAULT_MEMORY_BUDGET_BYTES if memory_budget_bytes is None else memory_budget_bytes
    chunk = max(1, budget // max(1, per_rep))
    for lo in range(0, len(platforms), chunk):
        hi = lo + chunk
        yield BatchContext(
            platforms=platforms[lo:hi],
            speeds=speeds[lo:hi],
            generators=generators[lo:hi],
            models=models[lo:hi],
            want_events=want_events,
        )


def _replay_run(
    run: KernelRun,
    prototype: Strategy,
    platform: Platform,
    collect_trace: bool,
    sink: Optional[MetricsSink],
) -> SimulationResult:
    """Fold one kernel run into a SimulationResult, replaying sink/trace.

    Events are replayed in pop order with the same scalar types the
    engine's loop would pass, so sink snapshots and traces are
    indistinguishable from a serial run's.
    """
    if sink is not None:
        sink.on_run_start(
            prototype.name,
            prototype.kernel,
            prototype.n,
            platform.p,
            [float(s) for s in platform.relative_speeds],
        )
    trace: Optional[Trace] = Trace() if collect_trace else None
    if run.events is not None:
        for now, worker, blocks, tasks, duration, phase in run.events:
            if trace is not None:
                trace.append(
                    AssignmentRecord(
                        time=now,
                        worker=worker,
                        blocks=blocks,
                        tasks=tasks,
                        duration=duration,
                        phase=phase,
                        task_ids=None,
                    )
                )
            if sink is not None:
                sink.on_assignment(now, worker, blocks, tasks, duration, phase)
    total_blocks = int(run.per_worker_blocks.sum())
    total_tasks = int(run.per_worker_tasks.sum())
    if sink is not None:
        sink.on_run_end(run.makespan, total_blocks, total_tasks, run.n_assignments)
    return SimulationResult(
        total_blocks=total_blocks,
        per_worker_blocks=run.per_worker_blocks,
        per_worker_tasks=run.per_worker_tasks,
        makespan=run.makespan,
        n_assignments=run.n_assignments,
        strategy_name=prototype.name,
        trace=trace,
    )


def simulate_batch(
    strategy_factory: Callable[[], Strategy],
    platforms: Sequence[Platform],
    *,
    rngs: Sequence[SeedLike],
    speed_models: Optional[Sequence[Optional[SpeedModel]]] = None,
    collect_trace: bool = False,
    sinks: Optional[Sequence[Optional[MetricsSink]]] = None,
    memory_budget_bytes: Optional[int] = None,
) -> List[SimulationResult]:
    """Run R replicates of one strategy cell, vectorized when possible.

    Parameters
    ----------
    strategy_factory:
        Zero-argument callable building a fresh strategy instance; called
        once for configuration on the fast path and once per replicate on
        the scalar fallback.
    platforms:
        One platform per replicate (typically R draws of the same spec).
    rngs:
        One seed/generator per replicate; each replicate consumes its
        stream exactly as a scalar :func:`~repro.simulator.simulate` call
        would.
    speed_models:
        Optional per-replicate speed models; ``None`` entries default to
        static speeds.  Static and dynamic library models vectorize;
        custom model classes (or one dynamic instance shared between
        replicates) force the scalar fallback — see
        :func:`fallback_reason`.
    collect_trace:
        Attach an :class:`~repro.simulator.trace.AssignmentRecord` trace
        to every result.
    sinks:
        Optional per-replicate metrics sinks; events are replayed to each
        in the replicate's own pop order, yielding snapshots bit-identical
        to serial runs.
    memory_budget_bytes:
        Ceiling on the kernel's replicate-scaled working set; the batch
        is sliced along R into chunks that fit (replicates never
        interact, so slicing is exact).  ``None`` uses
        :data:`DEFAULT_MEMORY_BUDGET_BYTES`.

    Returns
    -------
    list of SimulationResult
        One per replicate, in input order, bit-identical to the scalar
        engine's output for the same inputs.
    """
    R = len(platforms)
    if len(rngs) != R:
        raise ValueError(f"got {len(rngs)} rngs for {R} platforms")
    models = _per_replicate("speed models", speed_models, R)
    sink_list = _per_replicate("sinks", sinks, R)
    if R == 0:
        return []
    if memory_budget_bytes is not None and memory_budget_bytes <= 0:
        raise ValueError(f"memory_budget_bytes must be positive, got {memory_budget_bytes}")

    generators = [as_generator(rng) for rng in rngs]
    prototype = strategy_factory()
    if fallback_reason(prototype, platforms, models) is not None:
        return [
            simulate(
                strategy_factory(),
                platforms[r],
                rng=generators[r],
                speed_model=models[r],
                collect_trace=collect_trace,
                sink=sink_list[r],
            )
            for r in range(R)
        ]

    kernel = kernel_for(prototype)
    assert kernel is not None  # fallback_reason checked
    want_events = collect_trace or any(s is not None for s in sink_list)
    per_rep = int(kernel.bytes_per_replicate(prototype, platforms[0].p))
    runs: List[KernelRun] = []
    for ctx in _contexts(platforms, generators, models, want_events, per_rep, memory_budget_bytes):
        runs.extend(kernel.run_group([prototype], ctx)[0])
    return [
        _replay_run(runs[r], prototype, platforms[r], collect_trace, sink_list[r])
        for r in range(R)
    ]


def simulate_sweep(
    strategy_factories: Sequence[Callable[[], Strategy]],
    platforms: Sequence[Platform],
    *,
    rngs: Sequence[SeedLike],
    speed_models: Optional[Sequence[Optional[SpeedModel]]] = None,
    memory_budget_bytes: Optional[int] = None,
) -> List[List[SimulationResult]]:
    """Run several cells of one product over the same R replicates at once.

    Every factory must build a strategy of one :func:`sweep_group_key`
    (same kernel and ``n``): any mix of that product's five strategies,
    whatever sets their thresholds.  The members without a phase 1
    (Random*, Sorted*, MapReduce*, and Dynamic*2Phases at a threshold of
    ``n^d``) share one closed-form pop schedule per replicate; then phase
    1 runs once in lockstep and each other two-phase member forks its
    closed-form phase 2 at its own threshold crossing.  With several
    members every fork draws from a copy of that replicate's generator.
    ``results[b][r]`` equals
    ``simulate_batch(strategy_factories[b], platforms, rngs=...)[r]`` bit
    for bit.  The generators in *rngs* end where the longest member's
    phase 1 stopped — untouched when no member has a phase 1; with a
    single member, exactly as :func:`simulate_batch` leaves them.

    Static speeds are a precondition: *speed_models* entries must be
    ``None`` or :class:`~repro.platform.speeds.StaticSpeedModel`, since a
    dynamic model's state evolves per run and cannot be shared between
    members — a :class:`ValueError` says so, as it does for members that
    do not share a group key or cannot take the vectorized path.  The
    batch is sliced along R under *memory_budget_bytes* exactly as in
    :func:`simulate_batch`.
    """
    R = len(platforms)
    if len(rngs) != R:
        raise ValueError(f"got {len(rngs)} rngs for {R} platforms")
    models = _per_replicate("speed models", speed_models, R)
    for model in models:
        if model is not None and type(model) is not StaticSpeedModel:
            raise ValueError(
                f"simulate_sweep needs static speeds, got {type(model).__name__}; "
                "run dynamic speed models cell by cell with simulate_batch"
            )
    if memory_budget_bytes is not None and memory_budget_bytes <= 0:
        raise ValueError(f"memory_budget_bytes must be positive, got {memory_budget_bytes}")
    prototypes = [factory() for factory in strategy_factories]
    if not prototypes:
        return []
    keys = {sweep_group_key(prototype) for prototype in prototypes}
    if None in keys or len(keys) != 1:
        names = ", ".join(prototype.name for prototype in prototypes)
        raise ValueError(
            f"simulate_sweep members must share one vector kernel and n; got {names}"
        )
    if R == 0:
        return [[] for _ in prototypes]
    if fallback_reason(prototypes[0], platforms) is not None:
        raise ValueError("simulate_sweep needs one worker count across replicates")

    generators = [as_generator(rng) for rng in rngs]
    kernel = kernel_for(prototypes[0])
    assert kernel is not None  # sweep_group_key checked
    p = platforms[0].p
    per_rep = max(int(kernel.bytes_per_replicate(prototype, p)) for prototype in prototypes)
    runs: List[List[KernelRun]] = [[] for _ in prototypes]
    for ctx in _contexts(platforms, generators, models, False, per_rep, memory_budget_bytes):
        for member, member_runs in zip(runs, kernel.run_group(prototypes, ctx)):
            member.extend(member_runs)
    return [
        [_replay_run(run, prototype, platforms[r], False, None) for r, run in enumerate(member)]
        for prototype, member in zip(prototypes, runs)
    ]
