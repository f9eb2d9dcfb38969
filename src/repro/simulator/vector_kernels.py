"""Vectorized per-strategy kernels for the batch replicate engine.

The batch engine (:mod:`repro.simulator.batch`) runs R replicates of one
(strategy, platform) cell at once.  Each *vector kernel* here reproduces,
bit for bit, what R independent :func:`repro.simulator.simulate` calls
would compute — same RNG consumption per replicate, same IEEE-754
operand order for every duration and timestamp, same heap tie-breaking —
but over numpy arrays instead of one Python event at a time.

Two kernel families cover all ten registry strategies:

* :class:`_TaskByTaskKernel` (RandomOuter / SortedOuter / RandomMatrix /
  SortedMatrix / MapReduceOuter / MapReduceMatrix) — these strategies
  allocate exactly one task per request, so under static speeds the whole
  event schedule is *analytically* reconstructible: worker ``w``'s
  ``k``-th request happens at ``k / speed_w`` (computed by the same
  repeated float addition the event loop performs, via ``cumsum``), and
  the heap's pop order is a stable sort by time with FIFO ties fixed up
  exactly (see :func:`_pop_schedule`).  Random task order is re-drawn
  with a single batched ``Generator.integers`` call per replicate, which
  numpy guarantees to be stream-identical to the scalar per-draw calls.
  The MapReduce variants are the degenerate cached-nothing case: a
  constant 2 (outer) or 3 (matmul) blocks ship with every task.

* the lockstep kernel (:class:`_LockstepKernel`, covering DynamicOuter /
  DynamicMatrix / DynamicOuter2Phases / DynamicMatrix2Phases) — the
  Dynamic* strategies' decisions depend on evolving shared state, so
  replicates advance event by event, but *together*.  The sequential
  part of each event runs per replicate in plain Python, as in the
  scalar engine: one ``heapq`` of ``(time, seq, worker)`` and plain-int
  accumulators per replicate, and the strategy's draws with their
  swap-removes on (R·p, dims, n) index buffers.  The data-parallel part,
  each step's cross/shell marking, is one flat-index gather/scatter over
  the (R, n, n[, n]) task bitmaps of every active replicate.  A
  two-phase strategy's phase 1 *is* that loop: each replicate crosses
  its own ``e^{-beta}``-remaining threshold and forks its phase 2 off
  the loop, closed-form under static speeds.  One loop can therefore
  serve a whole *group* of Dynamic-family cells that share their
  replicates (:meth:`_LockstepKernel.run_group`): phase 1 runs once and
  every two-phase member forks at its own threshold.

Dynamic speed models (``dyn.*``) no longer force the scalar engine:
each event's duration replays ``model.duration`` on the replicate's own
stream, in pop order — exactly the call the scalar loop makes after each
assignment, a one-task event's in the kernel itself with the same draw
and float operations (see :meth:`_LockstepAccumulator.commit`).

Per-event bounded draws (the Dynamic* index draws, the frozen phase-2
sampler, the task-by-task kernel's dynamic-speed path) go through
:func:`repro.utils.rng.bounded_draws`: ``Generator.integers(size)``'s
values and stream consumption, from raw PCG64 words when the generator
allows it.  The kernel writes the buffered half word back before phase 2
or a deep copy reads the generator, and at the end of the run.

Strategies without a kernel here (user subclasses) transparently fall
back to per-replicate scalar simulation in the batch engine — the
registry is keyed by *exact* type, so a subclass never silently inherits
a kernel whose semantics it may have changed.  Kernels also advertise a
per-replicate working-set estimate (:meth:`VectorKernel.bytes_per_replicate`)
that the batch engine uses to chunk the replicate axis under a memory
budget, keeping paper-scale ``(R, n, n, n)`` bitmaps in RAM.
"""

from __future__ import annotations

import copy
import heapq
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.strategies.base import Strategy
from repro.core.strategies.mapreduce import MatrixMapReduce, OuterMapReduce
from repro.core.strategies.matrix_dynamic import MatrixDynamic
from repro.core.strategies.matrix_random import MatrixRandom, MatrixSorted
from repro.core.strategies.matrix_two_phase import MatrixTwoPhase
from repro.core.strategies.outer_dynamic import OuterDynamic
from repro.core.strategies.outer_random import OuterRandom, OuterSorted
from repro.core.strategies.outer_two_phase import OuterTwoPhase
from repro.platform.platform import Platform
from repro.platform.speeds import _SPEED_FLOOR, DynamicSpeedModel, SpeedModel, StaticSpeedModel
from repro.simulator.engine import LivelockError
from repro.utils.rng import bounded_draws

__all__ = [
    "BatchContext",
    "Event",
    "KernelRun",
    "VectorKernel",
    "kernel_for",
]

#: One simulated assignment, scalar-typed for trace/sink replay:
#: ``(time, worker, blocks, tasks, duration, phase)``.
Event = Tuple[float, int, int, int, float, int]

#: A replicate's per-event bounded draw, ``int(generator.integers(size))``
#: (:meth:`repro.utils.rng.BoundedDraws.integers`).
_Integers = Callable[[int], int]


class BatchContext(NamedTuple):
    """Per-batch inputs a kernel consumes besides the strategy prototype.

    ``speeds`` is the (R, p) float64 stack of ``platforms[r].speeds``;
    ``models`` holds the per-replicate speed models (already ``reset`` by
    the batch engine, ``None`` meaning static platform speeds).
    """

    platforms: Sequence[Platform]
    speeds: np.ndarray
    generators: Sequence[np.random.Generator]
    models: Sequence[Optional[SpeedModel]]
    want_events: bool


class KernelRun(NamedTuple):
    """One replicate's accounting, as produced by a vector kernel.

    ``events`` is populated only when the caller asked for them (trace or
    sink attached); the fields mirror :class:`~repro.simulator.results.SimulationResult`.
    """

    per_worker_blocks: np.ndarray
    per_worker_tasks: np.ndarray
    makespan: float
    n_assignments: int
    events: Optional[List[Event]]


class VectorKernel:
    """Base class of vectorized strategy kernels.

    Subclasses implement :meth:`run` as a pure function of its arguments
    (plus the generators' streams): no I/O, no module or class globals —
    the A-PURE analyzer check walks every override to enforce this, since
    the batch engine may run kernels in any process and any order.
    """

    #: Registry names of the strategies this kernel instance covers.
    strategy_name: str = ""

    def run(self, prototype: Strategy, ctx: BatchContext) -> List[KernelRun]:
        """Simulate one replicate per row of ``ctx.speeds`` ``(R, p)``.

        *prototype* is an un-reset strategy instance used only for its
        configuration (``n``, threshold parameters); ``ctx.generators``
        holds one per-replicate RNG, consumed exactly as the scalar
        engine would consume it.
        """
        raise NotImplementedError

    def run_group(
        self, prototypes: Sequence[Strategy], ctx: BatchContext
    ) -> List[List[KernelRun]]:
        """Simulate several cells over the same replicates, one list each.

        Only kernels whose :meth:`group_key` is not ``None`` implement it;
        members must share that key.
        """
        raise NotImplementedError

    def group_key(self, prototype: Strategy) -> Optional[Tuple[str, int]]:
        """Key of the shared lockstep *prototype* can join, or ``None``.

        Prototypes with equal keys can run together through
        :meth:`run_group`; ``None`` means the kernel runs single cells.
        """
        return None

    def bytes_per_replicate(self, prototype: Strategy, p: int) -> int:
        """Rough working-set bytes one replicate adds to a batch.

        Only state that scales with the replicate axis counts (bitmaps,
        knowledge buffers, sampler replays) — transient per-replicate
        temporaries of a serial inner loop do not.  The batch engine
        divides its memory budget by this to size replicate chunks.
        """
        return 1024


# ---------------------------------------------------------------------------
# Dynamic speed models
# ---------------------------------------------------------------------------


def _replay_models(
    models: Sequence[Optional[SpeedModel]],
) -> Optional[List[Optional[SpeedModel]]]:
    """Per-replicate models whose ``duration`` must be replayed per event.

    ``None`` when every replicate runs on static speeds (the common
    case): every duration is then the scalar engine's ``tasks / speed``
    division, and the task-by-task kernels take their analytic path.
    """
    out = [
        model if model is not None and type(model) is not StaticSpeedModel else None
        for model in models
    ]
    return out if any(model is not None for model in out) else None


# ---------------------------------------------------------------------------
# Exact event-schedule reconstruction (task-by-task strategies)
# ---------------------------------------------------------------------------


def _heap_schedule(
    d: np.ndarray,
    total: int,
    t0: Optional[np.ndarray] = None,
    rank0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Exact per-event replay of the scalar heap, as the fallback oracle.

    Returns ``(worker_seq, pop_times, counts, makespan)`` for a run of
    *total* one-task events with per-worker durations *d*.  *t0* gives
    each worker's pending event time (default: all zero, a fresh run) and
    *rank0* the FIFO rank of that pending event (default: worker order) —
    together they resume the heap mid-run, as phase 2 of the two-phase
    strategies needs.
    """
    p = int(d.size)
    start = [0.0] * p if t0 is None else t0.tolist()
    ranks = list(range(p)) if rank0 is None else rank0.tolist()
    heap: List[Tuple[float, int, int]] = sorted(
        (start[w], ranks[w], w) for w in range(p)
    )
    counts = np.zeros(p, dtype=np.int64)
    w_seq = np.empty(total, dtype=np.int64)
    pop_times = np.empty(total, dtype=np.float64)
    durations = d.tolist()
    seq = p
    makespan = 0.0
    for t in range(total):
        now, _, w = heapq.heappop(heap)
        w_seq[t] = w
        pop_times[t] = now
        counts[w] += 1
        finish = now + durations[w]
        if finish > makespan:
            makespan = finish
        heapq.heappush(heap, (finish, seq, w))
        seq += 1
    return w_seq, pop_times, counts, makespan


def _fifo_fix(
    flat: np.ndarray,
    order: np.ndarray,
    total: int,
    p: int,
    rank0: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Reorder equal-time runs of *order* into the heap's exact FIFO order.

    ``flat[k * p + w]`` is worker ``w``'s ``k``-th pop time and *order* a
    stable argsort of it.  Within a tied run the heap pops by insertion
    sequence: a ``k == 0`` event carries sequence ``rank0[w]`` (worker
    order for a fresh run, the pending events' insertion ranks when
    resuming mid-run) and a later event carries ``p +`` (the pop position
    of the same worker's previous event) — predecessors finish strictly
    earlier, so their positions are already final when a run is processed
    left to right.  Returns the first *total* event ids in pop order, or
    ``None`` in the pathological case of one worker appearing twice at
    one timestamp (``fl(t + d) == t`` under extreme speed ratios), where
    the caller must replay the heap exactly.
    """
    t_sorted = flat[order]
    # i where sorted times i and i + 1 tie; consecutive ones form a run.
    # Runs are time-ordered; only tied runs before the cut need fixing,
    # and with continuous speeds there usually are few (a fresh run's
    # time-0 requests).
    tied = np.flatnonzero(t_sorted[1:] == t_sorted[:-1])
    if tied.size == 0:
        return order[:total]
    gaps = np.flatnonzero(np.diff(tied) != 1)
    starts = np.append(tied[0], tied[gaps + 1])
    ends = np.append(tied[gaps], tied[-1]) + 2
    keep = starts < total
    pos: Optional[np.ndarray] = None
    for a, b in zip(starts[keep].tolist(), ends[keep].tolist()):
        ids = order[a:b]
        w = ids % p
        ordered = np.sort(w)  # not np.unique(w), which imports numpy.ma
        if (ordered[1:] == ordered[:-1]).any():
            return None
        keys = w - p if rank0 is None else rank0[w] - p
        later = ids >= p
        if later.any():
            if pos is None:
                # Pop positions, current as of the runs fixed so far.
                pos = np.empty(order.size, dtype=np.int64)
                pos[order] = np.arange(order.size, dtype=np.int64)
            keys[later] = pos[ids[later] - p]
        sub = np.argsort(keys, kind="stable")
        reordered = ids[sub]
        order[a:b] = reordered
        if pos is not None:
            pos[reordered] = np.arange(a, b, dtype=np.int64)
    return order[:total]


def _pop_schedule(
    d: np.ndarray,
    total: int,
    k0: Optional[int] = None,
    t0: Optional[np.ndarray] = None,
    rank0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The scalar engine's exact pop schedule for a one-task-per-event run.

    Worker ``w`` pops at times ``t0_w, fl(t0_w + d_w), ...`` (*t0* zero
    for a fresh run) — ``cumsum`` performs the identical sequential float
    additions — and the heap serves pops in (time, FIFO) order, with
    *rank0* giving the pending events' insertion ranks when resuming a
    run mid-heap (phase 2 of the two-phase strategies).  *k0* bounds the
    per-worker event count considered; it is estimated from the speed mix
    and grown geometrically when a worker saturates it (exposed for
    tests).

    Returns ``(worker_seq, pop_times, counts, makespan)``.
    """
    p = int(d.size)
    if k0 is None:
        rates = 1.0 / d
        k0 = int(total * float(rates.max()) / float(rates.sum()) * 1.15) + 16
    k0 = max(1, min(int(k0), total))
    while True:
        times = np.empty((k0 + 1, p), dtype=np.float64)
        times[0] = 0.0 if t0 is None else t0
        times[1:] = d
        np.cumsum(times, axis=0, out=times)
        flat = times[:k0].reshape(-1)
        # Each worker's column is sorted, so a stable sort of the
        # worker-major copy only merges p runs.  Its ids w * k0 + k map
        # back to k * p + w; ties are reordered by _fifo_fix either way.
        worker, order = np.divmod(np.argsort(times[:k0].T.reshape(-1), kind="stable"), k0)
        order *= p
        order += worker
        fixed = _fifo_fix(flat, order, total, p, rank0)
        if fixed is None:
            return _heap_schedule(d, total, t0, rank0)
        w_seq = fixed % p
        counts = np.bincount(w_seq, minlength=p)
        if int(counts.max(initial=0)) >= k0 and k0 < total:
            # A worker consumed every generated slot: later events of its
            # column may belong inside the cut.  Regrow and redo.
            k0 = min(total, k0 * 2)
            continue
        pop_times = flat[fixed]
        makespan = float(times[counts, np.arange(p)][counts > 0].max())
        return w_seq.astype(np.int64), pop_times, counts.astype(np.int64), makespan


def _replay_draws(
    universe: int, idx: np.ndarray, items: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Map pre-drawn swap-remove indices to drawn values.

    Replays :meth:`repro.taskpool.sample_set.SampleSet.draw`'s swap-remove
    on a full set of *universe* elements (or the explicit *items* —
    phase 2's frozen remainder, left unchanged), with the per-draw uniform
    indices *idx* already consumed from the RNG in one batched call.

    Step ``t`` outputs what sits at position ``idx[t]``, then moves what
    sits at the end position ``universe - 1 - t`` there.  A position holds
    its original item until its first write, and after a write at step
    ``u`` whatever the end position held at step ``u``.  One stable sort
    of the writes gives each step's previous write to its position, and
    since position ``universe - 1 - u`` is only ever written at steps up
    to ``u``, its last write overall is the pointer for the end position;
    pointer jumping resolves the chains.
    """
    original = np.arange(universe, dtype=np.int64) if items is None else np.asarray(items, dtype=np.int64)
    if universe == 0:
        return original
    steps = np.arange(universe, dtype=np.int64)
    # The writes in (position, step) order: a stable sort by position, as
    # one sort of distinct keys.
    ordered, slot = np.divmod(np.sort(idx * universe + steps), universe)
    same = ordered[1:] == ordered[:-1]
    # written[t]: the previous step that wrote position idx[t], or -1.
    written = np.full(universe, -1, dtype=np.int64)
    written[slot[1:][same]] = slot[:-1][same]
    # last[x]: the last step that wrote position x, or -1.
    last = np.full(universe, -1, dtype=np.int64)
    ends = np.append(~same, True)
    last[ordered[ends]] = slot[ends]
    # Step u's end position universe - 1 - u was last written at step u at
    # the latest; if that is step u itself, nothing reads what it held.
    root = last[::-1].copy()
    np.copyto(root, steps, where=root < 0)
    chained = np.flatnonzero(root[root] != root)
    while chained.size:
        root[chained] = root[root[chained]]
        chained = chained[root[root[chained]] != root[chained]]
    # What each step's end position held, then each step's output.
    moved = original[universe - 1 - root]
    out = original[idx]
    hit = written >= 0
    out[hit] = moved[written[hit]]
    return out


class _TaskByTaskKernel(VectorKernel):
    """Analytic kernel for the six one-task-per-request strategies.

    Under static speeds the schedule never depends on the task drawn
    (every assignment lasts ``1 / speed_w``), so pop order, task order
    and block accounting decouple: the pop schedule comes from
    :func:`_pop_schedule`, the task order from one batched RNG draw (or
    ``arange`` for the Sorted* variants), and per-worker distinct-block
    counts from boolean scatters over (worker, block) key spaces.  The
    MapReduce variants ship a constant *blocks_per_task* instead of
    consulting caches.  Replicates with a dynamic speed model run event
    by event instead (:meth:`_run_dynamic`) — the schedule is then
    genuinely history-dependent — with identical draws.
    """

    def __init__(
        self,
        kernel: str,
        random_order: bool,
        strategy_name: str,
        blocks_per_task: Optional[int] = None,
    ) -> None:
        self._kernel = kernel
        self._random = random_order
        self._replicated = blocks_per_task
        self.strategy_name = strategy_name

    def bytes_per_replicate(self, prototype: Strategy, p: int) -> int:
        n = prototype.n
        total = n * n if self._kernel == "outer" else n**3
        caches = 0
        if self._replicated is None:
            caches = 2 * p * n if self._kernel == "outer" else 3 * p * n * n
        return 8 * total + caches + 64 * p

    def run(self, prototype: Strategy, ctx: BatchContext) -> List[KernelRun]:
        n = prototype.n
        speeds = ctx.speeds
        p = int(speeds.shape[1])
        R = int(speeds.shape[0])
        total = n * n if self._kernel == "outer" else n**3
        replay = _replay_models(ctx.models)
        runs: List[Optional[KernelRun]] = [None] * R
        dynamic = (
            [] if replay is None else [r for r in range(R) if replay[r] is not None]
        )
        for r in range(R):
            if replay is not None and replay[r] is not None:
                continue
            d = 1.0 / speeds[r]
            w_seq, pop_times, counts, makespan = _pop_schedule(d, total)
            task_seq: Optional[np.ndarray] = None
            if self._random:
                # Bit-identical to `total` successive rng.integers(size)
                # calls with shrinking bounds (numpy's array-high path
                # consumes the stream exactly like the scalar path).
                idx = ctx.generators[r].integers(np.arange(total, 0, -1, dtype=np.int64))
                if self._replicated is None:
                    task_seq = _replay_draws(total, idx)
            elif self._replicated is None:
                task_seq = np.arange(total, dtype=np.int64)
            runs[r] = self._account(
                n, p, total, d, w_seq, pop_times, counts, makespan, task_seq, ctx.want_events
            )
        if dynamic:
            for r, kr in zip(dynamic, self._run_dynamic(n, p, total, dynamic, ctx, replay)):
                runs[r] = kr
        return [kr for kr in runs if kr is not None]

    def _run_dynamic(
        self,
        n: int,
        p: int,
        total: int,
        sub: List[int],
        ctx: BatchContext,
        replay: Optional[List[Optional[SpeedModel]]],
    ) -> List[KernelRun]:
        """Event-by-event runs for dynamic-speed replicates.

        Same draws, same block accounting; only the schedule is computed
        per event because durations depend on the evolving speeds.  No
        step has a data-parallel part, so each replicate runs to the end
        in turn.
        """
        assert replay is not None
        acc = _LockstepAccumulator(
            self.strategy_name,
            ctx.speeds[np.asarray(sub, dtype=np.int64)],
            [replay[r] for r in sub],
            [ctx.generators[r] for r in sub],
            n,
            ctx.want_events,
        )
        for x, r in enumerate(sub):
            heap = acc.heaps[x]
            draws = bounded_draws(ctx.generators[r])
            integers = draws.integers
            items = list(range(total)) if self._random else None
            caches = _BlockCaches(self._kernel, 1, p, n) if self._replicated is None else None
            for size in range(total, 0, -1):
                now, _, w = heapq.heappop(heap)
                if items is not None:
                    # SampleSet.draw's swap-remove, replayed in place.
                    idx = integers(size)
                    task = items[idx]
                    items[idx] = items[size - 1]
                else:
                    task = total - size
                if caches is None:
                    assert self._replicated is not None
                    acc.commit(x, now, w, self._replicated, 1)
                else:
                    acc.commit(x, now, w, caches.ship(0, w, task), 1)
            draws.sync()
        return acc.finish()

    def _operand_keys(
        self, n: int, w_seq: np.ndarray, task_seq: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """(worker, block) keys per operand cache, in cache-add order."""
        if self._kernel == "outer":
            i, j = np.divmod(task_seq, n)
            base = w_seq * n
            return (base + i, base + j)
        ij, k = np.divmod(task_seq, n)
        i, j = np.divmod(ij, n)
        base = w_seq * (n * n)
        return (base + i * n + k, base + k * n + j, base + i * n + j)

    def _account(
        self,
        n: int,
        p: int,
        total: int,
        d: np.ndarray,
        w_seq: np.ndarray,
        pop_times: np.ndarray,
        counts: np.ndarray,
        makespan: float,
        task_seq: Optional[np.ndarray],
        want_events: bool,
    ) -> KernelRun:
        """Fold one replicate's schedule + task order into a KernelRun."""
        events: Optional[List[Event]] = None
        if self._replicated is not None:
            # Full replication: every task ships the same constant blocks.
            per_blocks = counts * self._replicated
            if want_events:
                durations = d[w_seq]
                events = list(
                    zip(
                        pop_times.tolist(),
                        w_seq.tolist(),
                        [self._replicated] * total,
                        [1] * total,
                        durations.tolist(),
                        [1] * total,
                    )
                )
            return KernelRun(per_blocks, counts, makespan, total, events)
        assert task_seq is not None
        block_space = n if self._kernel == "outer" else n * n
        keys = self._operand_keys(n, w_seq, task_seq)
        per_blocks = np.zeros(p, dtype=np.int64)
        for key in keys:
            seen = np.zeros(p * block_space, dtype=bool)
            seen[key] = True
            per_blocks += seen.reshape(p, block_space).sum(axis=1)
        if want_events:
            per_event = np.zeros(total, dtype=np.int64)
            for key in keys:
                first = np.zeros(total, dtype=bool)
                first[np.unique(key, return_index=True)[1]] = True
                per_event += first
            durations = d[w_seq]
            events = list(
                zip(
                    pop_times.tolist(),
                    w_seq.tolist(),
                    per_event.tolist(),
                    [1] * total,
                    durations.tolist(),
                    [1] * total,
                )
            )
        return KernelRun(per_blocks, counts, makespan, total, events)


# ---------------------------------------------------------------------------
# Lockstep machinery (Dynamic* strategies)
# ---------------------------------------------------------------------------


def _flat_view(array: np.ndarray) -> memoryview:
    """1-D memoryview over contiguous *array*, for per-element Python access.

    Indexing it costs half a numpy scalar access and yields plain Python
    ints and bools, which is what the per-replicate passes need.
    """
    return memoryview(array.reshape(-1))


def _swap_remove(items: memoryview, base: int, size: int, integers: _Integers) -> int:
    """``SampleSet.draw`` over ``items[base : base + size]``: same draw, same swap."""
    x = base + integers(size)
    value: int = items[x]
    items[x] = items[base + size - 1]
    return value


class _BlockCaches:
    """``(R, p, ·)`` boolean per-worker block caches for single-task draws.

    Backs both the random task-by-task strategies under dynamic speeds
    and phase 2 of the two-phase strategies under dynamic speeds: a
    worker's holdings are an arbitrary block subset, and :meth:`ship`
    counts (then records) the blocks a drawn task is missing — exactly
    ``BlockCache.add``'s semantics, one event at a time.
    """

    def __init__(self, kind: str, R: int, p: int, n: int) -> None:
        self._outer = kind == "outer"
        self._n = n
        self._p = p
        shape = (R, p, n) if self._outer else (R, p, n, n)
        self.a = np.zeros(shape, dtype=bool)
        self.b = np.zeros(shape, dtype=bool)
        self.c: Optional[np.ndarray] = None if self._outer else np.zeros(shape, dtype=bool)
        self._views = [_flat_view(cache) for cache in (self.a, self.b, self.c) if cache is not None]

    def ship(self, r: int, w: int, task: int) -> int:
        """Blocks flat *task* adds to worker *w*'s caches in replicate *r*."""
        n = self._n
        if self._outer:
            i, j = divmod(task, n)
            base = (r * self._p + w) * n
            keys: Tuple[int, ...] = (base + i, base + j)
        else:
            ij, k = divmod(task, n)
            i, j = divmod(ij, n)
            base = (r * self._p + w) * n * n
            keys = (base + i * n + k, base + k * n + j, base + i * n + j)
        blocks = 0
        for view, key in zip(self._views, keys):
            if not view[key]:
                view[key] = True
                blocks += 1
        return blocks


class _SpeedWalk(NamedTuple):
    """A :class:`DynamicSpeedModel` replicate's speeds, stepped as Python floats.

    ``speeds`` is the kernel's copy of the model's per-worker speeds,
    ``array`` the model's own, which only sees the copy around calls of
    the model itself.  ``low`` and ``span`` are ``uniform(-jitter,
    jitter)``'s operands and ``random`` its generator's ``random``.
    """

    speeds: List[float]
    array: np.ndarray
    low: float
    span: float
    random: Callable[[], float]


def _speed_walk(model: Optional[SpeedModel], generator: np.random.Generator) -> Optional[_SpeedWalk]:
    """The walk a one-task event steps in place of ``model.duration``, if any."""
    if type(model) is not DynamicSpeedModel:
        return None
    array = model._speeds
    assert array is not None  # reset() ran
    jitter = model.jitter
    return _SpeedWalk(array.tolist(), array, -jitter, jitter - -jitter, generator.random)


class _LockstepAccumulator:
    """Per-replicate event queues and accounting of the lockstep kernels.

    Each replicate keeps the scalar engine's own structures: a ``heapq`` of
    ``(time, seq, worker)`` (:attr:`heaps`, seeded with every worker
    requesting at time 0) and plain-int per-worker accumulators.
    :meth:`commit` accounts one assignment as the scalar loop does — the
    same ``tasks / speed`` division or ``model.duration`` call on the
    replicate's own stream, makespan rule, livelock guard and FIFO
    sequence — and :meth:`finish` folds every replicate into a
    :class:`KernelRun`.  Shared by the lockstep loop and the task-by-task
    kernel's dynamic-speed path.

    A one-task event on a :class:`DynamicSpeedModel` replicate skips the
    model: ``duration(w, 1)`` is ``1 / max(s0, floor)``, and the worker's
    next speed ``max(s0 * (1 + u), floor)`` with ``u`` the same
    ``uniform(-jitter, jitter)`` draw, in the same float operations.  The
    speeds live in the replicate's :class:`_SpeedWalk` and go back to the
    model around its own calls and at :meth:`finish`, so its
    ``current_speed`` ends where a scalar run leaves it.
    """

    def __init__(
        self,
        strategy_name: str,
        speeds: np.ndarray,
        replay: Optional[Sequence[Optional[SpeedModel]]],
        generators: Sequence[np.random.Generator],
        n: int,
        want_events: bool,
    ) -> None:
        R, p = int(speeds.shape[0]), int(speeds.shape[1])
        self.name = strategy_name
        self.speeds = speeds
        self._speed_rows: List[List[float]] = speeds.tolist()
        self._models: List[Optional[SpeedModel]] = [None] * R if replay is None else list(replay)
        self._walks = [_speed_walk(model, g) for model, g in zip(self._models, generators)]
        self.heaps: List[List[Tuple[float, int, int]]] = [
            [(0.0, w, w) for w in range(p)] for _ in range(R)
        ]
        self._next_seq = [p] * R
        self._blocks = [[0] * p for _ in range(R)]
        self._tasks = [[0] * p for _ in range(R)]
        self._makespan = [0.0] * R
        self._n_events = [0] * R
        self._streak = [0] * R
        self._budget = 4 * (3 * n + 2) * p + 1024
        self._events: Optional[List[List[Event]]] = (
            [[] for _ in range(R)] if want_events else None
        )

    def commit(self, r: int, now: float, w: int, blocks: int, tasks: int, phase: int = 1) -> None:
        """Account replicate *r*'s assignment to *w* popped at *now*, scalar-exactly."""
        model = self._models[r]
        if model is None:
            duration = tasks / self._speed_rows[r][w]
        else:
            walk = self._walks[r]
            if walk is None:
                duration = model.duration(w, tasks)
            elif tasks == 1:
                speeds = walk.speeds
                s0 = speeds[w]
                duration = 1.0 / (s0 if s0 >= _SPEED_FLOOR else _SPEED_FLOOR)
                speed = s0 * (1.0 + (walk.low + walk.span * walk.random()))
                speeds[w] = speed if speed >= _SPEED_FLOOR else _SPEED_FLOOR
            else:
                walk.array[w] = walk.speeds[w]
                duration = model.duration(w, tasks)
                walk.speeds[w] = float(walk.array[w])
        finish = now + duration
        if tasks > 0:
            if finish > self._makespan[r]:
                self._makespan[r] = finish
            self._streak[r] = 0
        else:
            streak = self._streak[r] + 1
            if streak > self._budget:
                raise LivelockError(
                    f"{streak} consecutive zero-task assignments "
                    f"(strategy={self.name}, remaining tasks unallocated)"
                )
            self._streak[r] = streak
        self._blocks[r][w] += blocks
        self._tasks[r][w] += tasks
        self._n_events[r] += 1
        seq = self._next_seq[r]
        heapq.heappush(self.heaps[r], (finish, seq, w))
        self._next_seq[r] = seq + 1
        if self._events is not None:
            self._events[r].append((now, w, blocks, tasks, duration, phase))

    def fork(self, state: "_DynState", r: int, now: float, seq: int, w: int) -> "_Fork":
        """Replicate *r*'s state at the crossing pop of *w* (``now``, ``seq``).

        The pending event times and FIFO sequences come from the
        replicate's heap plus the popped event, which phase 2 re-serves.
        """
        p = len(self._blocks[r])
        times = [0.0] * p
        seqs = [0] * p
        for t, s, u in self.heaps[r]:
            times[u] = t
            seqs[u] = s
        times[w] = now
        seqs[w] = seq
        order, cnt = state.knowledge(r)
        return _Fork(
            self.speeds[r],
            np.array(times, dtype=np.float64),
            np.array(seqs, dtype=np.int64),
            ~state.open[r],
            order,
            cnt,
            np.array(self._blocks[r], dtype=np.int64),
            np.array(self._tasks[r], dtype=np.int64),
            self._makespan[r],
            self._n_events[r],
            None if self._events is None else self._events[r],
        )

    def finish(self) -> List[KernelRun]:
        for walk in self._walks:
            if walk is not None:
                walk.array[:] = walk.speeds
        return [
            KernelRun(
                np.array(self._blocks[r], dtype=np.int64),
                np.array(self._tasks[r], dtype=np.int64),
                self._makespan[r],
                self._n_events[r],
                None if self._events is None else self._events[r],
            )
            for r in range(len(self.heaps))
        ]


class _DynState:
    """Phase-1 state of R Dynamic* replicates: knowledge and task bitmap.

    Per worker and index dimension, the scalar ``IndexKnowledge`` keeps an
    unknown-index sampler (swap-remove layout) and the known indices in
    insertion order.  Here they are ``(R * p, dims, n)`` int64 buffers,
    ``items`` and ``order``, with the known counts in plain-int lists.
    Draws run per replicate in plain Python (:meth:`draw`); each step then
    marks every pending request's cross or shell in one flat-index
    gather/scatter across replicates (:meth:`mark`).

    ``order`` stores each known index times its stride in the flat task
    bitmap (``n**(dims - 1 - dim)``), so a cross or shell is sums of
    gathered spans.  The bitmap holds ``True`` for unallocated tasks plus
    one extra ``False`` cell at index ``sentinel`` (``R * n**dims``).
    Every ``order`` slot past a worker's count holds ``sentinel``, as does
    every record field of a dimension that drew nothing, so any index a
    padded span builds is at least ``sentinel``: the clipped gather reads
    it as allocated and it marks nothing, with no validity masks.
    ``order`` has one spare column, so ``width + 1`` slots can always be
    gathered.  A step's draws enter ``order`` only after its marking,
    which therefore spans the previous index sets.
    """

    dims = 0

    def __init__(self, R: int, p: int, n: int) -> None:
        dims = self.dims
        cells = n**dims
        self.n = n
        self.p = p
        self.sentinel = R * cells
        self._open = np.ones(R * cells + 1, dtype=bool)
        self._open[-1] = False
        self.open = self._open[:-1].reshape((R,) + (n,) * dims)
        self.remaining = [cells] * R
        self.items = np.broadcast_to(np.arange(n, dtype=np.int64), (R * p, dims, n)).copy()
        self.order = np.full((R * p, dims, n + 1), self.sentinel, dtype=np.int64)
        self.cnt = [[0] * (R * p) for _ in range(dims)]
        self._items = _flat_view(self.items)
        self._dims = np.arange(dims)
        self._scales = (n ** np.arange(dims - 1, -1, -1))[:, None, None]

    def absorb(self, r: int) -> int:
        """``mark_all`` for replicate *r*: every remaining task, allocated."""
        tasks = self.remaining[r]
        self.open[r] = False
        self.remaining[r] = 0
        return tasks

    def knowledge(self, r: int) -> Tuple[np.ndarray, np.ndarray]:
        """Replicate *r*'s ``(dims, p, n)`` known indices and ``(dims, p)`` counts."""
        lo = r * self.p
        hi = lo + self.p
        cnt = np.array([counts[lo:hi] for counts in self.cnt], dtype=np.int64)
        return self.order[lo:hi, :, : self.n].transpose(1, 0, 2) // self._scales, cnt

    def draw(self, r: int, w: int, integers: _Integers, pending: List[int]) -> Optional[int]:
        """Draw worker *w*'s new indices; return the shipped blocks.

        Extends *pending* by the request's marking record, or returns
        ``None`` without drawing when *w*'s knowledge is complete.
        """
        raise NotImplementedError

    def mark(self, pending: List[int]) -> List[int]:
        """Mark every pending request at once; newly allocated tasks each."""
        raise NotImplementedError

    def _scatter(self, flat: np.ndarray, rec: np.ndarray) -> List[int]:
        """Allocate the open cells of *flat* ``(G, L)``; count each row.

        Then records' draws join ``order`` at the previous counts (an
        undrawn dimension rewrites the sentinel of its spare column).
        """
        fresh = self._open.take(flat, mode="clip")
        self._open[flat[fresh]] = False
        dims = self.dims
        self.order[rec[:, :1], self._dims, rec[:, 1 : 1 + dims]] = rec[:, 1 + dims : 1 + 2 * dims]
        counts: List[int] = fresh.sum(axis=1).tolist()
        return counts


class _OuterDynState(_DynState):
    """DynamicOuter phase 1: rows of ``a`` and columns of ``b``, cross marking.

    DynamicOuter, and phase 1 of DynamicOuter2Phases.  A marking record
    is ``key, |I|, |J|, i n, j, base + i n, base + j``, where ``key`` is
    ``r * p + w`` and ``base`` is ``r * n**2``.
    """

    dims = 2

    def draw(self, r: int, w: int, integers: _Integers, pending: List[int]) -> Optional[int]:
        n = self.n
        key = r * self.p + w
        cnt_i, cnt_j = self.cnt
        ci = cnt_i[key]
        cj = cnt_j[key]
        if ci == n and cj == n:
            return None
        big = self.sentinel
        i = j = row = col = big
        base = r * n * n
        at = 2 * key * n
        if ci < n:
            i = _swap_remove(self._items, at, n - ci, integers) * n
            row = base + i
            cnt_i[key] = ci + 1
        if cj < n:
            j = _swap_remove(self._items, at + n, n - cj, integers)
            col = base + j
            cnt_j[key] = cj + 1
        pending += (key, ci, cj, i, j, row, col)
        return (ci < n) + (cj < n)

    def mark(self, pending: List[int]) -> List[int]:
        rec = np.array(pending, dtype=np.int64).reshape(-1, 7)
        width = max(max(pending[1::7]), max(pending[2::7]))
        span = self.order[rec[:, 0], :, : width + 1]
        span[:, 1, width] = rec[:, 4]  # J plus the new j
        # The cross: (i, J + j), centre included, then (I, j) with I's
        # spare slot as padding.
        flat = rec[:, 5:7, None] + span[:, ::-1]
        return self._scatter(flat.reshape(len(rec), -1), rec)


class _MatrixDynState(_DynState):
    """DynamicMatrix phase 1: index sets I, J, K, shell marking.

    DynamicMatrix, and phase 1 of DynamicMatrix2Phases.  A marking record
    is ``key, |I|, |J|, |K|, i n**2, j n, k, base + i n**2, base + j n,
    base + k`` with ``base = r * n**3``, as in :class:`_OuterDynState`.
    """

    dims = 3

    def draw(self, r: int, w: int, integers: _Integers, pending: List[int]) -> Optional[int]:
        n = self.n
        key = r * self.p + w
        cnt_i, cnt_j, cnt_k = self.cnt
        ci = cnt_i[key]
        cj = cnt_j[key]
        ck = cnt_k[key]
        if ci == n and cj == n and ck == n:
            return None
        big = self.sentinel
        i = j = k = at_i = at_j = at_k = big
        items = self._items
        base = r * n**3
        at = 3 * key * n
        if ci < n:
            i = _swap_remove(items, at, n - ci, integers) * n * n
            at_i = base + i
            cnt_i[key] = ci + 1
        if cj < n:
            j = _swap_remove(items, at + n, n - cj, integers) * n
            at_j = base + j
            cnt_j[key] = cj + 1
        if ck < n:
            k = _swap_remove(items, at + 2 * n, n - ck, integers)
            at_k = base + k
            cnt_k[key] = ck + 1
        pending += (key, ci, cj, ck, i, j, k, at_i, at_j, at_k)
        # Shipped blocks: growth of the A (I x K), B (K x J) and C (I x J)
        # rectangles, as _grown_blocks computes them.
        gi, gj, gk = ci + (ci < n), cj + (cj < n), ck + (ck < n)
        return (gi * gk - ci * ck) + (gk * gj - ck * cj) + (gi * gj - ci * cj)

    def mark(self, pending: List[int]) -> List[int]:
        rec = np.array(pending, dtype=np.int64).reshape(-1, 10)
        width = max(max(pending[1::10]), max(pending[2::10]), max(pending[3::10]))
        w1 = width + 1
        G = len(rec)
        span = self.order[rec[:, 0], :, :w1]
        span[:, 1:, width] = rec[:, 5:7]  # J plus j, K plus k
        # The shell in three disjoint slabs: the outer product's cross
        # (i, J + j) and (I, j) times K + k, then (I, J, k).
        cross = rec[:, 7:9, None] + span[:, 1::-1]
        flat = np.empty((G, 3 * w1 * w1 - w1), dtype=np.int64)
        split = 2 * w1 * w1
        np.add(cross.reshape(G, -1, 1), span[:, 2, None, :], out=flat[:, :split].reshape(G, 2 * w1, w1))
        np.add(
            (span[:, 0] + rec[:, 9:10])[:, :, None],
            span[:, 1, None, :width],
            out=flat[:, split:].reshape(G, w1, width),
        )
        return self._scatter(flat, rec)


# ---------------------------------------------------------------------------
# The lockstep loop: Dynamic* and Dynamic*2Phases cells, alone or grouped
# ---------------------------------------------------------------------------


class _Fork(NamedTuple):
    """One replicate's lockstep state where a two-phase member forks.

    Built at the crossing pop from the replicate's heap plus the popped
    event (:meth:`_LockstepAccumulator.fork`) and consumed before the
    replicate's next step; :func:`_phase2_analytic` only reads it.
    """

    speeds: np.ndarray  # (p,) platform speeds
    times: np.ndarray  # (p,) pending event times
    seqs: np.ndarray  # (p,) their heap insertion sequences
    processed: np.ndarray  # (n, n[, n]) phase-1 task bitmap
    order: np.ndarray  # (dims, p, n) known indices in insertion order
    cnt: np.ndarray  # (dims, p) known-index counts
    blocks: np.ndarray  # (p,) phase-1 blocks per worker
    tasks: np.ndarray  # (p,) phase-1 tasks per worker
    makespan: float
    n_events: int
    events: Optional[List[Event]]


def _is_two_phase(prototype: Strategy) -> bool:
    return isinstance(prototype, (OuterTwoPhase, MatrixTwoPhase))


class _LockstepKernel(VectorKernel):
    """Lockstep kernel for the Dynamic* strategies and their two-phase variants.

    Phase 1 is the Dynamic* loop of Algorithms 1 and 3, R replicates at
    once.  Each step is one pass over the active replicates in plain
    Python — pop the replicate's heap, draw the new indices — then one
    fused marking of every pending cross or shell (:meth:`_DynState.mark`),
    then the accounting pass.  A two-phase member crosses its own
    threshold per replicate (``resolve_threshold`` replayed against the
    replicate's platform, matching the scalar reset) the moment a request
    finds ``remaining <= threshold`` — the same pre-dispatch check
    ``assign`` performs.

    Under static speeds the member then *forks*: phase 2 assigns exactly
    one task per event at a constant ``1 / speed_w``, so its whole
    remainder is closed-form (:func:`_phase2_analytic`) from the
    replicate's state at the crossing pop.  The loop itself carries on
    for the members still in phase 1, so one loop serves a whole group of
    cells that share their replicates (:meth:`run_group`): a DynamicOuter
    cell and any number of DynamicOuter2Phases cells, whatever sets their
    thresholds.  A replicate leaves the loop after its last fork; a member
    without a threshold, or whose threshold phase 1 never reaches, takes
    the finished phase-1 run.  A single cell is the one-member group.

    Replicates on a dynamic speed model (one-member groups only) instead
    freeze their knowledge into per-worker block caches plus a
    swap-remove sampler over the surviving task ids (:meth:`_freeze`) and
    stay in the loop, their phase-2 events advancing beside the other
    replicates' phase-1 events.
    """

    def __init__(self, kind: str, strategy_name: str) -> None:
        self._kind = kind
        self.strategy_name = strategy_name

    def group_key(self, prototype: Strategy) -> Optional[Tuple[str, int]]:
        return (self._kind, prototype.n)

    def bytes_per_replicate(self, prototype: Strategy, p: int) -> int:
        # Bitmap, (dims, p, n + 1) int64 index buffers twice, ~256 bytes of
        # heap entry and accumulators per worker, and a step's marking
        # temporaries; two-phase adds its (p, n[, n]) caches and sampler ids.
        n = prototype.n
        if self._kind == "outer":
            if not _is_two_phase(prototype):
                return n * n + 32 * p * n + 256 * p + 64 * n
            return 9 * n * n + 34 * p * n + 256 * p + 64 * n
        if not _is_two_phase(prototype):
            return n**3 + 48 * p * n + 256 * p + 64 * n * n
        return 9 * n**3 + 3 * p * n * n + 48 * p * n + 256 * p + 64 * n * n

    def run(self, prototype: Strategy, ctx: BatchContext) -> List[KernelRun]:
        return self.run_group([prototype], ctx)[0]

    def run_group(
        self, prototypes: Sequence[Strategy], ctx: BatchContext
    ) -> List[List[KernelRun]]:
        """Run every member over one shared phase-1 lockstep.

        Returns one :class:`KernelRun` list per member, each bit-identical
        to running that member alone.  With one member the replicate
        generators are consumed exactly as the scalar engine would; with
        several, each fork draws its phase 2 from a copy, so the
        generators end where the longest member's phase 1 stopped.
        """
        n = prototypes[0].n
        R, p = int(ctx.speeds.shape[0]), int(ctx.speeds.shape[1])
        M = len(prototypes)
        replay = _replay_models(ctx.models)
        assert replay is None or M == 1, "dynamic speeds run one member at a time"
        # The scalar strategy resolves its threshold at reset() from the
        # bound platform; replay that resolution per replicate.  -1 marks
        # a member without one (Dynamic*).
        thresholds = [
            [prototype.resolve_threshold(pl) for pl in ctx.platforms]
            if _is_two_phase(prototype)
            else [-1] * R
            for prototype in prototypes
        ]
        name = " + ".join(dict.fromkeys(prototype.name for prototype in prototypes))
        acc = _LockstepAccumulator(name, ctx.speeds, replay, ctx.generators, n, ctx.want_events)
        state: _DynState = _OuterDynState(R, p, n) if self._kind == "outer" else _MatrixDynState(R, p, n)
        # Members still following each replicate's phase 1, and the
        # highest threshold among them (the next possible crossing).
        following = [list(range(M)) for _ in range(R)]
        next_cross = [max(row[r] for row in thresholds) for r in range(R)]
        forks: List[List[Optional[KernelRun]]] = [[None] * R for _ in range(M)]
        p2_items: List[Optional[List[int]]] = [None] * R
        caches: Optional[_BlockCaches] = None
        heaps = acc.heaps
        commit = acc.commit
        draw = state.draw
        remaining = state.remaining
        generators = ctx.generators
        draws = [bounded_draws(generator) for generator in generators]
        integers = [d.integers for d in draws]
        heappop = heapq.heappop
        act = list(range(R))
        while act:
            pending: List[int] = []
            waiting: List[Tuple[int, float, int, int]] = []
            for r in act:
                now, seq, w = heappop(heaps[r])
                if remaining[r] <= next_cross[r]:
                    # Threshold check before dispatch, as assign() does.
                    next_cross[r] = -1
                    if replay is not None and replay[r] is not None:
                        if caches is None:
                            caches = _BlockCaches(self._kind, R, p, n)
                        p2_items[r] = self._freeze(state, caches, r)
                    else:
                        fork = acc.fork(state, r, now, seq, w)
                        # Phase 2 draws from the generator itself (or a copy).
                        draws[r].sync()
                        stay = []
                        for m in following[r]:
                            if thresholds[m][r] < remaining[r]:
                                stay.append(m)
                                continue
                            generator = generators[r]
                            forks[m][r] = _phase2_analytic(
                                fork, generator if M == 1 else copy.deepcopy(generator)
                            )
                        draws[r].reload()
                        following[r] = stay
                        if not stay:
                            continue  # every member forked: the replicate leaves
                        next_cross[r] = max(thresholds[m][r] for m in stay)
                items = p2_items[r]
                if items is not None:
                    assert caches is not None
                    # SampleSet.draw over the frozen remainder: the live
                    # size *is* the remaining count.
                    size = remaining[r]
                    idx = integers[r](size)
                    task = items[idx]
                    items[idx] = items[size - 1]
                    remaining[r] = size - 1
                    commit(r, now, w, caches.ship(r, w, task), 1, 2)
                    continue
                blocks = draw(r, w, integers[r], pending)
                if blocks is None:
                    commit(r, now, w, 0, state.absorb(r))
                else:
                    waiting.append((r, now, w, blocks))
            if pending:
                for (r, now, w, blocks), tasks in zip(waiting, state.mark(pending)):
                    remaining[r] -= tasks
                    commit(r, now, w, blocks, tasks)
            act = [r for r in act if remaining[r] > 0 and following[r]]
        for d in draws:
            d.sync()
        out: List[List[KernelRun]] = []
        for row in forks:
            final = acc.finish() if any(run is None for run in row) else []
            out.append([final[r] if run is None else run for r, run in enumerate(row)])
        return out

    def _freeze(self, state: _DynState, caches: _BlockCaches, r: int) -> List[int]:
        """Scalar ``_enter_phase2`` for replicate *r*.

        Returns the frozen sampler items (the pool's unprocessed ids in
        ascending order) and seeds the worker block caches from the
        phase-1 index sets — the index-set product for matmul, the plain
        index sets for the outer product.
        """
        order, cnt = state.knowledge(r)
        for w in range(state.p):
            rows = order[0, w, : int(cnt[0, w])]
            cols = order[1, w, : int(cnt[1, w])]
            if caches.c is None:
                caches.a[r, w, rows] = True
                caches.b[r, w, cols] = True
            else:
                deps = order[2, w, : int(cnt[2, w])]
                caches.a[r, w][np.ix_(rows, deps)] = True
                caches.b[r, w][np.ix_(deps, cols)] = True
                caches.c[r, w][np.ix_(rows, cols)] = True
        flat: List[int] = np.flatnonzero(state.open[r].reshape(-1)).tolist()
        return flat


def _phase2_analytic(fork: _Fork, generator: np.random.Generator) -> KernelRun:
    """One replicate's whole run, its phase 2 closed-form (static speeds).

    Every phase-2 event assigns exactly one task for a constant
    ``1 / speed_w``, so from the crossing pop onward the schedule is the
    heap resumed at the replicate's pending event times and FIFO ranks
    (:func:`_pop_schedule` with ``t0``/``rank0``; the crossing pop itself
    becomes the first phase-2 event), the sampler indices are one batched
    draw over deterministically shrinking bounds, and the shipped blocks
    are first occurrences of (worker, block) keys not already in the
    frozen phase-1 caches.  Pure: reads *fork*, consumes *generator*, and
    returns the phase-1 prefix plus phase 2 as one :class:`KernelRun`.
    """
    processed = fork.processed
    n = int(processed.shape[0])
    outer = processed.ndim == 2
    p = int(fork.times.size)
    d = 1.0 / fork.speeds
    rank0 = np.empty(p, dtype=np.int64)
    rank0[np.argsort(fork.seqs, kind="stable")] = np.arange(p, dtype=np.int64)
    pool: List[int] = np.flatnonzero(~processed.reshape(-1)).tolist()
    m = len(pool)
    w_seq, pop_times, counts, mk2 = _pop_schedule(d, m, t0=fork.times, rank0=rank0)
    idx = generator.integers(np.arange(m, 0, -1, dtype=np.int64))
    task_seq = _replay_draws(m, idx, items=pool)
    order, cnt = fork.order, fork.cnt
    block_space = n if outer else n * n
    # Frozen per-worker caches (scalar _enter_phase2) as flat
    # (worker, block) masks, one per operand in cache-add order.
    dims = 2 if outer else 3
    seen = [np.zeros((p, block_space), dtype=bool) for _ in range(dims)]
    if outer:
        width = int(cnt.max())
        if width:
            valid_cols = np.arange(width)
            w_rows = np.broadcast_to(np.arange(p)[:, None], (p, width))
            for dim in range(2):
                pad = order[dim, :, :width]
                valid = valid_cols < cnt[dim][:, None]
                seen[dim][w_rows[valid], pad[valid]] = True
    else:
        seen_a = seen[0].reshape(p, n, n)
        seen_b = seen[1].reshape(p, n, n)
        seen_c = seen[2].reshape(p, n, n)
        cnt_l = cnt.tolist()
        for w in range(p):
            rows = order[0, w, : cnt_l[0][w]][:, None]
            cols = order[1, w, : cnt_l[1][w]]
            deps = order[2, w, : cnt_l[2][w]]
            seen_a[w][rows, deps] = True
            seen_b[w][deps[:, None], cols] = True
            seen_c[w][rows, cols] = True
    if outer:
        i, j = np.divmod(task_seq, n)
        base = w_seq * n
        keys = (base + i, base + j)
    else:
        ij, k = np.divmod(task_seq, n)
        i, j = np.divmod(ij, n)
        base = w_seq * block_space
        keys = (base + i * n + k, base + k * n + j, base + i * n + j)
    per_blocks = np.zeros(p, dtype=np.int64)
    per_event = np.zeros(m, dtype=np.int64) if fork.events is not None else None
    is_first = np.empty(m, dtype=bool)
    for cache, key in zip(seen, keys):
        # First occurrence of each (worker, block) key not already in the
        # frozen cache ships exactly once (BlockCache.add).
        srt = np.argsort(key, kind="stable")
        ks = key[srt]
        is_first[0] = True
        np.not_equal(ks[1:], ks[:-1], out=is_first[1:])
        fresh = is_first & ~cache.reshape(-1)[ks]
        per_blocks += np.bincount(ks[fresh] // block_space, minlength=p)
        if per_event is not None:
            per_event[srt[fresh]] += 1
    events: Optional[List[Event]] = None
    if fork.events is not None:
        assert per_event is not None
        events = fork.events + list(
            zip(
                pop_times.tolist(),
                w_seq.tolist(),
                per_event.tolist(),
                [1] * m,
                d[w_seq].tolist(),
                [2] * m,
            )
        )
    return KernelRun(
        fork.blocks + per_blocks,
        fork.tasks + counts,
        max(fork.makespan, mk2),
        fork.n_events + m,
        events,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Exact-type kernel registry.  Keyed by ``type(strategy)`` — never
#: ``isinstance`` — so strategy subclasses (which may change semantics)
#: safely fall back to per-replicate scalar simulation.
_KERNELS: Dict[Type[Strategy], VectorKernel] = {
    OuterRandom: _TaskByTaskKernel("outer", True, "RandomOuter"),
    OuterSorted: _TaskByTaskKernel("outer", False, "SortedOuter"),
    MatrixRandom: _TaskByTaskKernel("matrix", True, "RandomMatrix"),
    MatrixSorted: _TaskByTaskKernel("matrix", False, "SortedMatrix"),
    OuterMapReduce: _TaskByTaskKernel("outer", True, "MapReduceOuter", blocks_per_task=2),
    MatrixMapReduce: _TaskByTaskKernel("matrix", True, "MapReduceMatrix", blocks_per_task=3),
    OuterDynamic: _LockstepKernel("outer", "DynamicOuter"),
    MatrixDynamic: _LockstepKernel("matrix", "DynamicMatrix"),
    OuterTwoPhase: _LockstepKernel("outer", "DynamicOuter2Phases"),
    MatrixTwoPhase: _LockstepKernel("matrix", "DynamicMatrix2Phases"),
}


def kernel_for(strategy: "Strategy | Type[Strategy]") -> Optional[VectorKernel]:
    """The vector kernel covering *strategy*'s exact type, or ``None``."""
    cls = strategy if isinstance(strategy, type) else type(strategy)
    return _KERNELS.get(cls)
