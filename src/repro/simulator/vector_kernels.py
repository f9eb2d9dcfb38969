"""Vectorized kernels for the batch replicate engine.

The batch engine (:mod:`repro.simulator.batch`) runs R replicates of one
(strategy, platform) cell at once.  The kernel here reproduces, bit for
bit, what R independent :func:`repro.simulator.simulate` calls would
compute — same RNG consumption per replicate, same IEEE-754 operand order
for every duration and timestamp, same heap tie-breaking — but over numpy
arrays instead of one Python event at a time.

One kernel per product (:class:`VectorKernel`, an outer-product and a
matrix instance) covers all five strategies of that product.  Its
backbone is the Dynamic* loop of Algorithms 1 and 3: replicates advance
event by event, but *together*.  The sequential part of each event runs
per replicate in plain Python, as in the scalar engine: one ``heapq`` of
``(time, seq, worker)`` and plain-int accumulators per replicate, and the
strategy's draws with their swap-removes on (R·p, dims, n) index buffers.
The data-parallel part, each step's cross/shell marking, is one
flat-index gather/scatter over the (R, n, n[, n]) task bitmaps of every
active replicate.

Every member of a run has a *fork count*, the remaining-task count at
which it leaves that loop: never for Dynamic*, the ``e^{-beta}``
threshold for Dynamic*2Phases, and ``n^d`` for Random*, Sorted* and
MapReduce* — their first pop, an empty phase 1, as in Algorithm 2 at
β = 0.  From its fork on a member assigns one task per request, as its
:class:`_Rule` says: in sampler-draw or lowest-open-id order, shipping
the blocks its caches miss or a constant 2 (outer) or 3 (matmul).  Under
static speeds that remainder is closed-form (:func:`_close_out`): worker
``w``'s ``k``-th request happens at ``t0_w + k / speed_w`` (the same
repeated float addition the event loop performs, via ``cumsum``), the
heap's pop order is a stable sort by time with FIFO ties fixed up exactly
(:func:`_pop_schedule`), the draws are one batched ``Generator.integers``
call, which numpy guarantees to be stream-identical to the scalar
per-draw calls, and the shipped blocks are boolean scatters into
(worker, block) masks.  Members that fork at one pop share its schedule
and draws, so one call serves every vector-kernel cell of a figure point
(:meth:`VectorKernel.run_group`): the members without a phase 1 run
replicate by replicate before any lockstep state exists, then one loop
runs phase 1 for the rest and every two-phase member forks off it at its
own threshold.

Dynamic speed models (``dyn.*``) no longer force the scalar engine:
each event's duration replays ``model.duration`` on the replicate's own
stream, in pop order — exactly the call the scalar loop makes after each
assignment, a one-task event's in the kernel itself with the same draw
and float operations (see :meth:`_LockstepAccumulator.commit`).  The
schedule then depends on history, so a member past its fork stays in the
loop on a frozen sampler and per-worker block caches (:func:`_freeze`),
one task per step.

Per-event bounded draws (the Dynamic* index draws and the frozen
sampler) go through :func:`repro.utils.rng.bounded_draws`:
``Generator.integers(size)``'s values and stream consumption, from raw
PCG64 words when the generator allows it.  The kernel writes the buffered
half word back before a closed form or a deep copy reads the generator,
and at the end of the run.

Strategies without a kernel here (user subclasses) transparently fall
back to per-replicate scalar simulation in the batch engine — the
registry is keyed by *exact* type, so a subclass never silently inherits
a kernel whose semantics it may have changed.  The kernel also advertises
a per-replicate working-set estimate (:meth:`VectorKernel.bytes_per_replicate`)
that the batch engine uses to chunk the replicate axis under a memory
budget, keeping paper-scale ``(R, n, n, n)`` bitmaps in RAM.
"""

from __future__ import annotations

import copy
import heapq
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type, TypeVar, Union

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


# ---------------------------------------------------------------------------
# Dynamic speed models
# ---------------------------------------------------------------------------


def _replay_models(
    models: Sequence[Optional[SpeedModel]],
) -> Optional[List[Optional[SpeedModel]]]:
    """Per-replicate models whose ``duration`` must be replayed per event.

    ``None`` when every replicate runs on static speeds (the common
    case): every duration is then the scalar engine's ``tasks / speed``
    division, and every fork takes the closed form.
    """
    out = [
        model if model is not None and type(model) is not StaticSpeedModel else None
        for model in models
    ]
    return out if any(model is not None for model in out) else None


# ---------------------------------------------------------------------------
# Exact event-schedule reconstruction (one task per event)
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


# ---------------------------------------------------------------------------
# Lockstep machinery
# ---------------------------------------------------------------------------

_K = TypeVar("_K", int, np.ndarray)


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


def _block_keys(outer: bool, n: int, base: _K, task: _K) -> Tuple[_K, ...]:
    """Flat (worker, block) keys of *task* per operand cache, in cache-add order.

    *base* is the worker's offset in a key space of ``n`` (outer) or
    ``n * n`` (matrix) blocks per worker.  Works on ints and int64 arrays
    alike, so the closed form and :meth:`_BlockCaches.ship` share it.
    """
    if outer:
        i, j = divmod(task, n)
        return (base + i, base + j)
    ij, k = divmod(task, n)
    i, j = divmod(ij, n)
    return (base + i * n + k, base + k * n + j, base + i * n + j)


def _seed(masks: Sequence[np.ndarray], order: np.ndarray, cnt: np.ndarray) -> None:
    """Scalar ``_enter_phase2``'s block caches, from phase-1 knowledge.

    *masks* are one replicate's per-operand ``(p, n)`` (outer) or
    ``(p, n, n)`` (matrix) boolean caches; *order* and *cnt* its known
    indices and their counts (:meth:`_DynState.knowledge`).  A worker
    holds its known index sets — for matmul, their products.
    """
    if len(masks) == 2:
        width = int(cnt.max())
        if width:
            p = int(cnt.shape[1])
            workers = np.broadcast_to(np.arange(p)[:, None], (p, width))
            valid = np.arange(width) < cnt[:, :, None]
            for dim, mask in enumerate(masks):
                mask[workers[valid[dim]], order[dim, :, :width][valid[dim]]] = True
        return
    a, b, c = masks
    counts = cnt.tolist()
    for w in range(int(cnt.shape[1])):
        rows = order[0, w, : counts[0][w]][:, None]
        cols = order[1, w, : counts[1][w]]
        deps = order[2, w, : counts[2][w]]
        a[w][rows, deps] = True
        b[w][deps[:, None], cols] = True
        c[w][rows, cols] = True


class _BlockCaches:
    """``(R, p, ·)`` boolean per-worker block caches for single-task draws.

    Backs every member past its fork under dynamic speeds: a worker's
    holdings are an arbitrary block subset, seeded from phase 1
    (:func:`_freeze`), and :meth:`ship` counts (then records) the blocks a
    drawn task is missing — exactly ``BlockCache.add``'s semantics, one
    event at a time.
    """

    def __init__(self, kind: str, R: int, p: int, n: int) -> None:
        self._outer = kind == "outer"
        self._n = n
        self._p = p
        self._space = n if self._outer else n * n
        shape = (R, p, n) if self._outer else (R, p, n, n)
        self.masks = [np.zeros(shape, dtype=bool) for _ in range(2 if self._outer else 3)]
        self._views = [_flat_view(mask) for mask in self.masks]

    def ship(self, r: int, w: int, task: int) -> int:
        """Blocks flat *task* adds to worker *w*'s caches in replicate *r*."""
        keys = _block_keys(self._outer, self._n, (r * self._p + w) * self._space, task)
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
    """Per-replicate event queues and accounting of the lockstep loop.

    Each replicate keeps the scalar engine's own structures: a ``heapq`` of
    ``(time, seq, worker)`` (:attr:`heaps`, seeded with every worker
    requesting at time 0) and plain-int per-worker accumulators.
    :meth:`commit` accounts one assignment as the scalar loop does — the
    same ``tasks / speed`` division or ``model.duration`` call on the
    replicate's own stream, makespan rule, livelock guard and FIFO
    sequence — and :meth:`finish` folds every replicate into a
    :class:`KernelRun`.

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

        The pending event times and FIFO ranks come from the replicate's
        heap plus the popped event, which the closed form re-serves.
        """
        p = len(self._blocks[r])
        times = [0.0] * p
        seqs = [0] * p
        for t, s, u in self.heaps[r]:
            times[u] = t
            seqs[u] = s
        times[w] = now
        seqs[w] = seq
        rank0 = np.empty(p, dtype=np.int64)
        rank0[np.argsort(seqs, kind="stable")] = np.arange(p, dtype=np.int64)
        pool = np.flatnonzero(state.open[r].reshape(-1))
        return _Fork(
            1.0 / self.speeds[r],
            int(pool.size),
            np.array(times, dtype=np.float64),
            rank0,
            pool,
            state.knowledge(r),
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
        self.items = np.broadcast_to(np.arange(n, dtype=np.int64), (R * p, dims, n)).copy()
        self.order = np.full((R * p, dims, n + 1), self.sentinel, dtype=np.int64)
        self.cnt = [[0] * (R * p) for _ in range(dims)]
        self._items = _flat_view(self.items)
        self._dims = np.arange(dims)
        self._scales = (n ** np.arange(dims - 1, -1, -1))[:, None, None]

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
# The lockstep loop: every strategy of one product, alone or grouped
# ---------------------------------------------------------------------------


class _Rule(NamedTuple):
    """What serves a member from its fork on, one task per request.

    ``draws``: the task order is a swap-remove sampler draw (Random*,
    MapReduce*, a phase 2), else the lowest open id (Sorted*, which draws
    nothing).  ``blocks``: a constant shipped per task (MapReduce*), or 0
    for the blocks missing from the seeded caches.  ``phase``: the events'
    phase label, 1 for the task-by-task strategies and 2 for a phase 2.
    """

    draws: bool
    blocks: int
    phase: int


_RANDOM = _Rule(draws=True, blocks=0, phase=1)
_SORTED = _Rule(draws=False, blocks=0, phase=1)
_PHASE2 = _Rule(draws=True, blocks=0, phase=2)

#: The rule of every strategy that leaves the Dynamic* loop, by exact type.
_RULES: Dict[Type[Strategy], _Rule] = {
    OuterRandom: _RANDOM,
    MatrixRandom: _RANDOM,
    OuterSorted: _SORTED,
    MatrixSorted: _SORTED,
    OuterMapReduce: _Rule(draws=True, blocks=2, phase=1),
    MatrixMapReduce: _Rule(draws=True, blocks=3, phase=1),
    OuterTwoPhase: _PHASE2,
    MatrixTwoPhase: _PHASE2,
}


def _fork_counts(prototype: Strategy, platforms: Sequence[Platform], total: int) -> List[int]:
    """Per replicate, the remaining-task count at which *prototype* forks.

    Dynamic*2Phases replays the threshold its scalar ``reset`` resolves
    from the bound platform; a strategy without a phase 1 forks at its
    first pop (*total* tasks remaining); Dynamic* never does (-1).
    """
    if isinstance(prototype, (OuterTwoPhase, MatrixTwoPhase)):
        return [prototype.resolve_threshold(platform) for platform in platforms]
    return [total if type(prototype) in _RULES else -1] * len(platforms)


class _Fork(NamedTuple):
    """One replicate's state where members leave the Dynamic* loop.

    Built at the crossing pop from the replicate's heap plus the popped
    event (:meth:`_LockstepAccumulator.fork`) and consumed before the
    replicate's next step; :func:`_close_out` only reads it.  A fresh
    fork, the first pop of a member without a phase 1, keeps the
    defaults: every worker pending at time 0 in worker order, every task
    open, no block held and nothing accounted yet.
    """

    d: np.ndarray  # (p,) per-task durations, 1 / speed
    remaining: int  # open tasks
    t0: Optional[np.ndarray] = None  # (p,) pending event times
    rank0: Optional[np.ndarray] = None  # (p,) their FIFO ranks
    pool: Optional[np.ndarray] = None  # open task ids, ascending
    knowledge: Optional[Tuple[np.ndarray, np.ndarray]] = None  # phase-1 (order, cnt)
    blocks: Union[np.ndarray, int] = 0  # phase-1 blocks per worker
    tasks: Union[np.ndarray, int] = 0  # phase-1 tasks per worker
    makespan: float = 0.0
    n_events: int = 0
    events: Optional[List[Event]] = None


class VectorKernel:
    """The vector kernel of one product, covering its five strategies.

    Phase 1 is the Dynamic* loop of Algorithms 1 and 3, R replicates at
    once.  Each step is one pass over the active replicates in plain
    Python — pop the replicate's heap, draw the new indices — then one
    fused marking of every pending cross or shell (:meth:`_DynState.mark`),
    then the accounting pass.  A member forks on a replicate the moment a
    request finds ``remaining <=`` its fork count (:func:`_fork_counts`)
    — the same pre-dispatch check a two-phase ``assign`` performs.

    Under static speeds the member's remainder is then closed-form
    (:func:`_close_out`) from the replicate's state at the crossing pop,
    one schedule for every member that forks there.  The loop itself
    carries on for the members still in phase 1, so one call serves a
    whole group of cells that share their replicates (:meth:`run_group`):
    any mix of the product's strategies, whatever sets their thresholds.
    Members whose fork count reaches ``n^d`` on every replicate have an
    empty phase 1 and run first, replicate by replicate, before any
    lockstep state exists.  A replicate leaves the loop after its last
    fork; a member that never forks, or whose fork phase 1 never reaches,
    takes the finished phase-1 run.  A single cell is the one-member
    group.

    Replicates on a dynamic speed model (one-member groups only) instead
    freeze their knowledge into per-worker block caches plus a
    swap-remove sampler over the surviving task ids (:func:`_freeze`) and
    stay in the loop, one task per step on their member's rule, beside
    the other replicates' phase-1 events.

    :meth:`run_group` is a pure function of its arguments (plus the
    generators' streams): no I/O, no module or class globals — the A-PURE
    analyzer check walks it and everything it calls, since the batch
    engine may run kernels in any process and any order.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._dims = 2 if kind == "outer" else 3

    def bytes_per_replicate(self, prototype: Strategy, p: int) -> int:
        """Rough working-set bytes one replicate adds to a batch.

        Only state that scales with the replicate axis counts (bitmaps,
        knowledge buffers, sampler replays) — transient per-replicate
        temporaries of a serial inner loop do not.  The batch engine
        divides its memory budget by this to size replicate chunks.
        """
        # Phase 1: the bitmap, (dims, p, n + 1) int64 index buffers twice,
        # ~256 bytes of heap entry and accumulators per worker, and a
        # step's marking temporaries; a two-phase member adds its
        # (p, n[, n]) caches and sampler ids.  Without a phase 1: the
        # drawn task ids and the caches.
        n = prototype.n
        rule = _RULES.get(type(prototype))
        outer = self._kind == "outer"
        if rule is not None and rule.phase == 1:
            caches = 0 if rule.blocks else (2 * p * n if outer else 3 * p * n * n)
            return 8 * n**self._dims + caches + 64 * p
        if outer:
            if rule is None:
                return n * n + 32 * p * n + 256 * p + 64 * n
            return 9 * n * n + 34 * p * n + 256 * p + 64 * n
        if rule is None:
            return n**3 + 48 * p * n + 256 * p + 64 * n * n
        return 9 * n**3 + 3 * p * n * n + 48 * p * n + 256 * p + 64 * n * n

    def run_group(
        self, prototypes: Sequence[Strategy], ctx: BatchContext
    ) -> List[List[KernelRun]]:
        """Run every member: those without a phase 1, then one shared lockstep.

        Returns one :class:`KernelRun` list per member, each bit-identical
        to running that member alone.  With one member the replicate
        generators are consumed exactly as the scalar engine would; with
        several, each fork draws from a copy, so the generators end where
        the longest member's phase 1 stopped — where they started when no
        member has a phase 1.
        """
        n = prototypes[0].n
        R = int(ctx.speeds.shape[0])
        M = len(prototypes)
        total = n**self._dims
        replay = _replay_models(ctx.models)
        assert replay is None or M == 1, "dynamic speeds run one member at a time"
        forks_at = [_fork_counts(prototype, ctx.platforms, total) for prototype in prototypes]
        # Dynamic* never forks, so its rule is never read.
        rules = [_RULES.get(type(prototype), _PHASE2) for prototype in prototypes]
        dynamic = [replay is not None and replay[r] is not None for r in range(R)]
        out: List[List[Optional[KernelRun]]] = [[None] * R for _ in range(M)]
        # Members without a phase 1 run first, from a fresh fork per static
        # replicate, so their closed-form arrays are freed before any
        # lockstep state is allocated.
        fresh = [m for m in range(M) if min(forks_at[m]) >= total]
        if fresh:
            fresh_rules = [rules[m] for m in fresh]
            drawing = any(rule.draws for rule in fresh_rules)
            for r in range(R):
                if dynamic[r]:
                    continue
                generator = ctx.generators[r]
                if drawing and M > 1:
                    generator = copy.deepcopy(generator)
                fork = _Fork(1.0 / ctx.speeds[r], total, events=[] if ctx.want_events else None)
                for m, run in zip(fresh, _close_out(fork, fresh_rules, self._dims == 2, n, generator)):
                    out[m][r] = run
        phase1 = [m for m in range(M) if m not in fresh]
        following = [[0] if dynamic[r] else list(phase1) for r in range(R)]
        if any(following):
            self._lockstep(prototypes, ctx, forks_at, rules, following, out)
        runs = [[run for run in row if run is not None] for row in out]
        assert all(len(row) == R for row in runs)
        return runs

    def _lockstep(
        self,
        prototypes: Sequence[Strategy],
        ctx: BatchContext,
        forks_at: List[List[int]],
        rules: List[_Rule],
        following: List[List[int]],
        out: List[List[Optional[KernelRun]]],
    ) -> None:
        """The Dynamic* loop over every replicate a member still *follows*.

        Fills the rest of *out*: each member's closed form where it forks,
        else the replicate's finished run.  Builds no phase-1 state when
        every member forks at its first pop (dynamic speeds only).
        """
        n = prototypes[0].n
        R, p = int(ctx.speeds.shape[0]), int(ctx.speeds.shape[1])
        M = len(prototypes)
        total = n**self._dims
        outer = self._dims == 2
        replay = _replay_models(ctx.models)
        name = " + ".join(dict.fromkeys(prototype.name for prototype in prototypes))
        acc = _LockstepAccumulator(name, ctx.speeds, replay, ctx.generators, n, ctx.want_events)
        state: Optional[_DynState] = None
        if any(min(counts) < total for counts in forks_at):
            state = _OuterDynState(R, p, n) if outer else _MatrixDynState(R, p, n)
        remaining = [total] * R
        # The highest fork count among the members a replicate follows.
        next_fork = [max((forks_at[m][r] for m in following[r]), default=-1) for r in range(R)]
        # Under dynamic speeds (one member) a forked replicate stays in the
        # loop on its member's rule, over a frozen sampler and caches.
        frozen: List[Optional[memoryview]] = [None] * R
        frozen_draws, frozen_blocks, frozen_phase = rules[0]
        caches: Optional[_BlockCaches] = None
        heaps = acc.heaps
        commit = acc.commit
        if state is not None:
            # Only with a phase 1: a replicate without one is frozen at its
            # first pop, before it could draw.
            draw = state.draw
        generators = ctx.generators
        draws = [bounded_draws(generator) for generator in generators]
        integers = [d.integers for d in draws]
        heappop = heapq.heappop
        act = [r for r in range(R) if following[r]]
        while act:
            pending: List[int] = []
            waiting: List[Tuple[int, float, int, int]] = []
            for r in act:
                now, seq, w = heappop(heaps[r])
                size = remaining[r]
                if size <= next_fork[r]:
                    # The fork check before dispatch, as assign() does it.
                    next_fork[r] = -1
                    if replay is not None and replay[r] is not None:
                        if caches is None and not frozen_blocks:
                            caches = _BlockCaches(self._kind, R, p, n)
                        frozen[r] = _freeze(state, caches, r, total)
                    else:
                        assert state is not None  # static replicates follow phase-1 members only
                        leave = [m for m in following[r] if forks_at[m][r] >= size]
                        following[r] = [m for m in following[r] if forks_at[m][r] < size]
                        # The closed form draws from the generator itself (or a copy).
                        draws[r].sync()
                        generator = generators[r] if M == 1 else copy.deepcopy(generators[r])
                        # An unnamed fork: nothing keeps its arrays alive after the closed form.
                        fork_rules = [rules[m] for m in leave]
                        closed = _close_out(acc.fork(state, r, now, seq, w), fork_rules, outer, n, generator)
                        for m, run in zip(leave, closed):
                            out[m][r] = run
                        draws[r].reload()
                        if not following[r]:
                            continue  # every member forked: the replicate leaves
                        next_fork[r] = max(forks_at[m][r] for m in following[r])
                items = frozen[r]
                if items is not None:
                    # The frozen sampler's live size is the remaining count.
                    if frozen_draws:
                        task = _swap_remove(items, 0, size, integers[r])
                    else:
                        task = items[len(items) - size]
                    remaining[r] = size - 1
                    shipped = frozen_blocks
                    if not shipped:
                        assert caches is not None
                        shipped = caches.ship(r, w, task)
                    commit(r, now, w, shipped, 1, frozen_phase)
                    continue
                blocks = draw(r, w, integers[r], pending)
                if blocks is None:
                    # Complete knowledge: mark_all takes every remaining task.
                    remaining[r] = 0
                    commit(r, now, w, 0, size)
                else:
                    waiting.append((r, now, w, blocks))
            if pending:
                assert state is not None
                for (r, now, w, blocks), tasks in zip(waiting, state.mark(pending)):
                    remaining[r] -= tasks
                    commit(r, now, w, blocks, tasks)
            act = [r for r in act if remaining[r] > 0 and following[r]]
        for d in draws:
            d.sync()
        for row in out:
            if any(run is None for run in row):
                final = acc.finish()
                row[:] = [final[r] if run is None else run for r, run in enumerate(row)]


def _freeze(
    state: Optional[_DynState], caches: Optional[_BlockCaches], r: int, total: int
) -> memoryview:
    """Scalar ``_enter_phase2`` for replicate *r*: its frozen sampler.

    Returns the open task ids in ascending order — every id when no
    member has a phase 1 (*state* ``None``) — and seeds *caches*, when
    the member ships cache misses, from the replicate's phase-1 knowledge.
    """
    if state is None:
        return _flat_view(np.arange(total, dtype=np.int64))
    if caches is not None:
        _seed([mask[r] for mask in caches.masks], *state.knowledge(r))
    return _flat_view(np.flatnonzero(state.open[r].reshape(-1)))


def _close_out(
    fork: _Fork, rules: Sequence[_Rule], outer: bool, n: int, generator: np.random.Generator
) -> List[KernelRun]:
    """Each rule's whole run, closed-form from *fork* on (static speeds).

    Every event from the fork on assigns exactly one task for a constant
    ``1 / speed_w``, so the schedule is the heap resumed at the fork's
    pending event times and FIFO ranks (:func:`_pop_schedule`; a crossing
    pop is itself the first event), one for all *rules*.  The drawing
    rules share one batched draw over deterministically shrinking bounds,
    consumed from *generator*, and its swap-remove replay; the others
    take the open ids in order.  Pure: reads *fork*, consumes
    *generator*, and returns the phase-1 prefix plus the remainder, per
    rule.
    """
    m = fork.remaining
    w_seq, pop_times, counts, makespan = _pop_schedule(fork.d, m, t0=fork.t0, rank0=fork.rank0)
    idx: Optional[np.ndarray] = None
    if any(rule.draws for rule in rules):
        idx = generator.integers(np.arange(m, 0, -1, dtype=np.int64))
    drawn: Optional[np.ndarray] = None
    columns: Optional[Tuple[List[float], List[int], List[int], List[float]]] = None
    if fork.events is not None:
        columns = (pop_times.tolist(), w_seq.tolist(), [1] * m, fork.d[w_seq].tolist())
    runs: List[KernelRun] = []
    for rule in rules:
        per_event: Optional[List[int]] = None
        if rule.blocks:
            per_blocks = counts * rule.blocks
            if columns is not None:
                per_event = [rule.blocks] * m
        else:
            if not rule.draws:
                order = np.arange(m, dtype=np.int64) if fork.pool is None else fork.pool
            else:
                if drawn is None:
                    assert idx is not None
                    drawn = _replay_draws(m, idx, fork.pool)
                order = drawn
            per_blocks, per_event = _shipped(fork, outer, n, w_seq, order, columns is not None)
        events: Optional[List[Event]] = None
        if columns is not None and fork.events is not None and per_event is not None:
            times, workers, ones, durations = columns
            events = fork.events + list(
                zip(times, workers, per_event, ones, durations, [rule.phase] * m)
            )
        runs.append(
            KernelRun(
                fork.blocks + per_blocks,
                fork.tasks + counts,
                max(fork.makespan, makespan),
                fork.n_events + m,
                events,
            )
        )
    return runs


def _shipped(
    fork: _Fork, outer: bool, n: int, w_seq: np.ndarray, order: np.ndarray, want_events: bool
) -> Tuple[np.ndarray, Optional[List[int]]]:
    """Per-worker and (if wanted) per-event blocks of tasks *order* on *w_seq*.

    A task ships each operand block its worker's cache lacks: the first
    occurrence of a (worker, block) key that phase 1 did not seed
    (``BlockCache.add``).  Per worker that is the growth of the seeded
    masks under one boolean scatter; per event, first occurrences from
    ``np.unique(return_index=True)``, which does not load ``numpy.ma``.
    """
    p = int(fork.d.size)
    m = int(order.size)
    space = n if outer else n * n
    masks = [np.zeros((p, space), dtype=bool) for _ in range(2 if outer else 3)]
    if fork.knowledge is not None:
        shape = (p, n) if outer else (p, n, n)
        _seed([mask.reshape(shape) for mask in masks], *fork.knowledge)
    per_blocks = np.zeros(p, dtype=np.int64)
    per_event = np.zeros(m, dtype=np.int64) if want_events else None
    for mask, key in zip(masks, _block_keys(outer, n, w_seq * space, order)):
        seen = mask.reshape(-1)
        if per_event is not None:
            first = np.zeros(m, dtype=bool)
            first[np.unique(key, return_index=True)[1]] = True
            per_event += first & ~seen[key]
        if fork.knowledge is not None:
            per_blocks -= mask.sum(axis=1)
        seen[key] = True
        per_blocks += mask.sum(axis=1)
    return per_blocks, None if per_event is None else per_event.tolist()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Exact-type kernel registry: one kernel per product, for all five of its
#: strategies.  Keyed by ``type(strategy)`` — never ``isinstance`` — so
#: strategy subclasses (which may change semantics) safely fall back to
#: per-replicate scalar simulation.
_KERNELS: Dict[Type[Strategy], VectorKernel] = {
    cls: kernel
    for kernel, classes in (
        (
            VectorKernel("outer"),
            (OuterRandom, OuterSorted, OuterMapReduce, OuterDynamic, OuterTwoPhase),
        ),
        (
            VectorKernel("matrix"),
            (MatrixRandom, MatrixSorted, MatrixMapReduce, MatrixDynamic, MatrixTwoPhase),
        ),
    )
    for cls in classes
}


def kernel_for(strategy: "Strategy | Type[Strategy]") -> Optional[VectorKernel]:
    """The vector kernel covering *strategy*'s exact type, or ``None``."""
    cls = strategy if isinstance(strategy, type) else type(strategy)
    return _KERNELS.get(cls)
