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
  replicates advance event by event, but *together*: worker-available
  times are an (R, p) float array, per-worker knowledge lives in
  (R, p, n) index buffers, the processed task bitmaps are (R, n, n[, n])
  booleans, and each step's cross/shell marking is one padded
  gather/scatter across every active replicate.  A two-phase strategy's
  phase 1 *is* that loop: each replicate crosses its own
  ``e^{-beta}``-remaining threshold and forks its phase 2 off the loop,
  closed-form under static speeds.  One loop can therefore serve a whole
  *group* of Dynamic-family cells that share their replicates
  (:meth:`_LockstepKernel.run_group`): phase 1 runs once and every
  two-phase member forks at its own threshold.

Dynamic speed models (``dyn.*``) no longer force the scalar engine:
strategy-side state stays vectorized across the replicate axis while
each event's duration replays ``model.duration`` on the replicate's own
stream, in pop order — exactly the call the scalar loop makes after each
assignment (see :func:`_event_durations`).

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

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
from repro.platform.speeds import SpeedModel, StaticSpeedModel
from repro.simulator.engine import LivelockError

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
# Shared duration replay (static division / dynamic model calls)
# ---------------------------------------------------------------------------


def _replay_models(
    models: Sequence[Optional[SpeedModel]],
) -> Optional[List[Optional[SpeedModel]]]:
    """Per-replicate models whose ``duration`` must be replayed per event.

    ``None`` when every replicate runs on static speeds (the common
    case): durations then come from the one vectorized division in
    :func:`_event_durations` with zero per-event Python work.
    """
    out = [
        model if model is not None and type(model) is not StaticSpeedModel else None
        for model in models
    ]
    return out if any(model is not None for model in out) else None


def _event_durations(
    speeds: np.ndarray,
    replay: Optional[List[Optional[SpeedModel]]],
    act: np.ndarray,
    wsel: np.ndarray,
    tasks: np.ndarray,
) -> np.ndarray:
    """Durations of one popped event per active replicate, scalar-exactly.

    Static replicates use the same ``tasks / speed`` float division the
    scalar engine inlines.  Replicates with a dynamic model instead call
    ``model.duration(worker, tasks)`` on the replicate's own stream —
    after the step's strategy draws, exactly where the scalar loop calls
    it — so RNG consumption and the evolving per-worker speeds match the
    oracle bit for bit.
    """
    durations = tasks / speeds[act, wsel]
    if replay is not None:
        w_l = wsel.tolist()
        t_l = tasks.tolist()
        for g, r in enumerate(act.tolist()):
            model = replay[r]
            if model is not None:
                durations[g] = model.duration(w_l[g], t_l[g])
    return durations


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
    m = int(t_sorted.size)
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.not_equal(t_sorted[1:], t_sorted[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], m)
    # Runs are time-ordered; only tied runs before the cut need fixing,
    # and with continuous speeds there usually are none.
    multi = np.flatnonzero((ends - starts > 1) & (starts < total))
    if multi.size == 0:
        return order[:total]
    pos = np.empty(m, dtype=np.int64)
    pos[order] = np.arange(m, dtype=np.int64)
    for a, b in zip(starts[multi].tolist(), ends[multi].tolist()):
        ids = order[a:b]
        w = ids % p
        if np.unique(w).size != w.size:
            return None
        first_key = w if rank0 is None else rank0[w]
        keys = np.where(ids < p, first_key - p, pos[ids - p])
        sub = np.argsort(keys, kind="stable")
        reordered = ids[sub]
        order[a:b] = reordered
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
        order = np.argsort(flat, kind="stable")
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
    universe: int, idx: np.ndarray, items: Optional[List[int]] = None
) -> np.ndarray:
    """Map pre-drawn swap-remove indices to drawn values.

    Replays :meth:`repro.taskpool.sample_set.SampleSet.draw`'s swap-remove
    on a full set of *universe* elements (or the explicit *items* list —
    phase 2's frozen remainder — which is consumed in place), with the
    per-draw uniform indices *idx* already consumed from the RNG in one
    batched call.
    """
    if items is None:
        items = list(range(universe))
    out = [0] * universe
    size = universe
    for t, pick in enumerate(idx.tolist()):
        v = items[pick]
        size -= 1
        items[pick] = items[size]
        out[t] = v
    return np.array(out, dtype=np.int64)


class _TaskByTaskKernel(VectorKernel):
    """Analytic kernel for the six one-task-per-request strategies.

    Under static speeds the schedule never depends on the task drawn
    (every assignment lasts ``1 / speed_w``), so pop order, task order
    and block accounting decouple: the pop schedule comes from
    :func:`_pop_schedule`, the task order from one batched RNG draw (or
    ``arange`` for the Sorted* variants), and per-worker distinct-block
    counts from boolean scatters over (worker, block) key spaces.  The
    MapReduce variants ship a constant *blocks_per_task* instead of
    consulting caches.  Replicates with a dynamic speed model take the
    lockstep single-task path (:meth:`_run_lockstep`) — the schedule is
    then genuinely history-dependent — with identical draws.
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
        lockstep = (
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
        if lockstep:
            for r, kr in zip(lockstep, self._run_lockstep(n, p, total, lockstep, ctx, replay)):
                runs[r] = kr
        return [kr for kr in runs if kr is not None]

    def _run_lockstep(
        self,
        n: int,
        p: int,
        total: int,
        sub: List[int],
        ctx: BatchContext,
        replay: Optional[List[Optional[SpeedModel]]],
    ) -> List[KernelRun]:
        """Event-by-event lockstep for dynamic-speed replicates.

        Same draws, same block accounting; only the schedule is computed
        per event because durations depend on the evolving speeds.
        """
        assert replay is not None
        Rn = len(sub)
        speeds = ctx.speeds[np.asarray(sub, dtype=np.int64)]
        generators = [ctx.generators[r] for r in sub]
        models: List[Optional[SpeedModel]] = [replay[r] for r in sub]
        acc = _LockstepAccumulator(self.strategy_name, Rn, p, n, ctx.want_events)
        remaining = np.full(Rn, total, dtype=np.int64)
        items: List[Optional[List[int]]] = [
            list(range(total)) if self._random else None for _ in sub
        ]
        caches = _BlockCaches(self._kernel, Rn, p, n) if self._replicated is None else None
        act = np.arange(Rn, dtype=np.int64)
        while act.size:
            now, wsel = acc.pop(act)
            A = int(act.size)
            if self._random:
                vals = np.empty(A, dtype=np.int64)
                for g, r in enumerate(act.tolist()):
                    lst = items[r]
                    assert lst is not None
                    size = int(remaining[r])
                    # SampleSet.draw's swap-remove, replayed in place.
                    idx = int(generators[r].integers(size))
                    vals[g] = lst[idx]
                    lst[idx] = lst[size - 1]
            else:
                vals = total - remaining[act]
            if caches is not None:
                blocks = caches.ship(act, wsel, vals)
            else:
                assert self._replicated is not None
                blocks = np.full(A, self._replicated, dtype=np.int64)
            tasks = np.ones(A, dtype=np.int64)
            durations = _event_durations(speeds, models, act, wsel, tasks)
            acc.commit(act, wsel, now, durations, blocks, tasks)
            remaining[act] -= 1
            act = act[remaining[act] > 0]
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

_SEQ_HUGE = np.iinfo(np.int64).max


def _select_workers(
    times: np.ndarray, seqs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-replicate heap pop: ``(now, worker)`` minimizing (time, seq)."""
    now = times.min(axis=1)
    masked = np.where(times == now[:, None], seqs, _SEQ_HUGE)
    return now, masked.argmin(axis=1)


def _batched_dim_draws(
    generators: Sequence[np.random.Generator],
    act: np.ndarray,
    need: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """Per-replicate uniform indices for this step's dimension draws.

    *need* is ``(dims, A)`` (which dimensions each active replicate grows)
    and *sizes* the matching unknown-set sizes.  Each draw is a plain
    scalar ``Generator.integers`` call in dimension order — the exact
    calls the scalar strategy makes, and several times cheaper than
    numpy's array-of-highs path at 1-3 elements.
    """
    dims = need.shape[0]
    need_rows = need.tolist()
    sizes_rows = sizes.tolist()
    out_rows = [[-1] * need.shape[1] for _ in range(dims)]
    act_l = act.tolist()
    # Dimension-major is safe: each generator only ever serves its own
    # replicate, so its stream still sees the draws in dimension order.
    for dim in range(dims):
        nr, sr, ol = need_rows[dim], sizes_rows[dim], out_rows[dim]
        for g, needed in enumerate(nr):
            if needed:
                ol[g] = int(generators[act_l[g]].integers(sr[g]))
    return np.array(out_rows, dtype=np.int64)


def _draw_values(
    items: np.ndarray,
    order: np.ndarray,
    cnt: np.ndarray,
    n: int,
    act: np.ndarray,
    wsel: np.ndarray,
    need: np.ndarray,
    draw_idx: np.ndarray,
) -> np.ndarray:
    """Swap-remove the drawn indices out of each unknown set, vectorized.

    Mirrors ``IndexKnowledge.draw_unknown``: the drawn value is recorded
    in insertion order (*order*) and the unknown buffer (*items*) closes
    the hole with its last live element.  Returns the ``(dims, A)`` drawn
    values (-1 where nothing was drawn).
    """
    dims = need.shape[0]
    vals = np.full(need.shape, -1, dtype=np.int64)
    for dim in range(dims):
        grp = np.flatnonzero(need[dim])
        if grp.size == 0:
            continue
        rg = act[grp]
        wg = wsel[grp]
        size = n - cnt[dim, rg, wg]
        ix = draw_idx[dim, grp]
        v = items[dim, rg, wg, ix]
        items[dim, rg, wg, ix] = items[dim, rg, wg, size - 1]
        vals[dim, grp] = v
        order[dim, rg, wg, cnt[dim, rg, wg]] = v
        cnt[dim, rg, wg] += 1
    return vals


class _BlockCaches:
    """(R, p, ·) boolean per-worker block caches for single-task draws.

    Backs both the random task-by-task strategies under dynamic speeds
    and phase 2 of the two-phase strategies: a worker's holdings are an
    arbitrary block subset, and ``ship`` counts (then records) the blocks
    a drawn task is missing — exactly ``BlockCache.add``'s semantics,
    batched across the step's active replicates.
    """

    def __init__(self, kind: str, R: int, p: int, n: int) -> None:
        self._outer = kind == "outer"
        self._n = n
        if self._outer:
            self.a = np.zeros((R, p, n), dtype=bool)
            self.b = np.zeros((R, p, n), dtype=bool)
            self.c: Optional[np.ndarray] = None
        else:
            self.a = np.zeros((R, p, n, n), dtype=bool)
            self.b = np.zeros((R, p, n, n), dtype=bool)
            self.c = np.zeros((R, p, n, n), dtype=bool)

    def ship(self, rg: np.ndarray, wg: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Newly shipped blocks per (replicate, worker, flat task) triple."""
        n = self._n
        if self._outer:
            i, j = np.divmod(vals, n)
            blocks = (~self.a[rg, wg, i]).astype(np.int64)
            blocks += ~self.b[rg, wg, j]
            self.a[rg, wg, i] = True
            self.b[rg, wg, j] = True
            return blocks
        assert self.c is not None
        ij, k = np.divmod(vals, n)
        i, j = np.divmod(ij, n)
        blocks = (~self.a[rg, wg, i, k]).astype(np.int64)
        blocks += ~self.b[rg, wg, k, j]
        blocks += ~self.c[rg, wg, i, j]
        self.a[rg, wg, i, k] = True
        self.b[rg, wg, k, j] = True
        self.c[rg, wg, i, j] = True
        return blocks


class _LockstepAccumulator:
    """Shared per-step bookkeeping of the lockstep kernels.

    Owns the event-queue mirror ((R, p) times + insertion sequences), the
    per-worker accumulators and the livelock guard, and finalizes the
    per-replicate :class:`KernelRun` list — everything that is identical
    between the outer and matrix lockstep loops and the task-by-task
    kernel's dynamic-speed path.
    """

    def __init__(self, strategy_name: str, R: int, p: int, n: int, want_events: bool) -> None:
        self.name = strategy_name
        self.times = np.zeros((R, p), dtype=np.float64)
        self.seqs = np.tile(np.arange(p, dtype=np.int64), (R, 1))
        self.next_seq = np.full(R, p, dtype=np.int64)
        self.blocks_acc = np.zeros((R, p), dtype=np.int64)
        self.tasks_acc = np.zeros((R, p), dtype=np.int64)
        self.makespan = np.zeros(R, dtype=np.float64)
        self.n_events = np.zeros(R, dtype=np.int64)
        self.streak = np.zeros(R, dtype=np.int64)
        self.budget = 4 * (3 * n + 2) * p + 1024
        self.events: Optional[List[List[Event]]] = (
            [[] for _ in range(R)] if want_events else None
        )

    def pop(self, act: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return _select_workers(self.times[act], self.seqs[act])

    def commit(
        self,
        act: np.ndarray,
        wsel: np.ndarray,
        now: np.ndarray,
        durations: np.ndarray,
        blocks: np.ndarray,
        tasks: np.ndarray,
        phases: Optional[np.ndarray] = None,
    ) -> None:
        """Account one popped event per active replicate, scalar-exactly."""
        finish = now + durations
        progressed = tasks > 0
        grew = act[progressed]
        self.makespan[grew] = np.maximum(self.makespan[grew], finish[progressed])
        self.streak[act] = np.where(progressed, 0, self.streak[act] + 1)
        if bool((self.streak[act] > self.budget).any()):
            worst = int(self.streak[act].max())
            raise LivelockError(
                f"{worst} consecutive zero-task assignments "
                f"(strategy={self.name}, remaining tasks unallocated)"
            )
        self.blocks_acc[act, wsel] += blocks
        self.tasks_acc[act, wsel] += tasks
        self.n_events[act] += 1
        self.times[act, wsel] = finish
        self.seqs[act, wsel] = self.next_seq[act]
        self.next_seq[act] += 1
        if self.events is not None:
            now_l = now.tolist()
            w_l = wsel.tolist()
            b_l = blocks.tolist()
            t_l = tasks.tolist()
            d_l = durations.tolist()
            ph_l = None if phases is None else phases.tolist()
            for g, r in enumerate(act.tolist()):
                self.events[r].append(
                    (now_l[g], w_l[g], b_l[g], t_l[g], d_l[g], 1 if ph_l is None else ph_l[g])
                )

    def fork(
        self, state: "_OuterDynState | _MatrixDynState", speeds: np.ndarray, r: int
    ) -> "_Fork":
        """Replicate *r*'s lockstep state, as a phase-2 close-out reads it."""
        return _Fork(
            speeds[r],
            self.times[r],
            self.seqs[r],
            state.processed[r],
            state.order[:, r],
            state.cnt[:, r],
            self.blocks_acc[r],
            self.tasks_acc[r],
            float(self.makespan[r]),
            int(self.n_events[r]),
            None if self.events is None else self.events[r],
        )

    def finish(self) -> List[KernelRun]:
        runs: List[KernelRun] = []
        for r in range(self.times.shape[0]):
            runs.append(
                KernelRun(
                    self.blocks_acc[r].copy(),
                    self.tasks_acc[r].copy(),
                    float(self.makespan[r]),
                    int(self.n_events[r]),
                    None if self.events is None else self.events[r],
                )
            )
        return runs


class _OuterDynState:
    """Vectorized DynamicOuter phase-1 state: knowledge + processed bitmap.

    One :meth:`step` performs the scalar ``_dynamic_assign`` for a group
    of active replicates (two uniform dimension draws, cross marking over
    the previous index sets, complete-knowledge absorption) and keeps
    ``remaining`` in sync: DynamicOuter, and phase 1 of
    DynamicOuter2Phases.
    """

    def __init__(self, R: int, p: int, n: int) -> None:
        self.n = n
        self.processed = np.zeros((R, n, n), dtype=bool)
        self.remaining = np.full(R, n * n, dtype=np.int64)
        # Two knowledge dimensions (rows of a, columns of b) per worker:
        # unknown-set buffers, insertion-order buffers and known counts.
        self.items = np.broadcast_to(np.arange(n, dtype=np.int64), (2, R, p, n)).copy()
        self.order = np.zeros((2, R, p, n), dtype=np.int64)
        self.cnt = np.zeros((2, R, p), dtype=np.int64)

    def step(
        self,
        generators: Sequence[np.random.Generator],
        act: np.ndarray,
        wsel: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = self.n
        A = int(act.size)
        prev = self.cnt[:, act, wsel]  # (2, A) counts before this step's draws
        complete = (prev[0] >= n) & (prev[1] >= n)
        tasks = np.zeros(A, dtype=np.int64)
        for g in np.flatnonzero(complete).tolist():
            r = int(act[g])
            tasks[g] = self.remaining[r]
            self.processed[r] = True
        need = np.empty((2, A), dtype=bool)
        need[0] = ~complete & (prev[0] < n)
        need[1] = ~complete & (prev[1] < n)
        sizes = n - prev
        draw_idx = _batched_dim_draws(generators, act, need, sizes)
        vals = _draw_values(self.items, self.order, self.cnt, n, act, wsel, need, draw_idx)
        iv, jv = vals[0], vals[1]
        # Cross marking, three disjoint pieces (center, row arm over the
        # previous columns, column arm over the previous rows).
        center = np.flatnonzero(need[0] & need[1])
        if center.size:
            rg = act[center]
            fresh = ~self.processed[rg, iv[center], jv[center]]
            self.processed[rg, iv[center], jv[center]] = True
            tasks[center] += fresh.astype(np.int64)
        tasks += _mark_arm(
            self.processed, self.order[1], act, wsel, need[0] & (prev[1] > 0), prev[1], iv, axis=0
        )
        tasks += _mark_arm(
            self.processed, self.order[0], act, wsel, need[1] & (prev[0] > 0), prev[0], jv, axis=1
        )
        blocks = need[0].astype(np.int64) + need[1].astype(np.int64)
        self.remaining[act] -= tasks
        return blocks, tasks


def _mark_arm(
    processed: np.ndarray,
    arm_order: np.ndarray,
    act: np.ndarray,
    wsel: np.ndarray,
    grp_mask: np.ndarray,
    arm_counts: np.ndarray,
    fixed: np.ndarray,
    axis: int,
) -> np.ndarray:
    """Mark one arm of the DynamicOuter cross across replicates.

    For every replicate in *grp_mask*, marks the unprocessed tasks pairing
    the freshly drawn index *fixed* against the worker's previously-known
    indices of the other dimension (*arm_order* rows, *arm_counts* live
    prefix lengths).  Rows across replicates are padded to the longest
    prefix and masked.  Returns the newly-marked count per active slot.
    """
    out = np.zeros(act.size, dtype=np.int64)
    grp = np.flatnonzero(grp_mask)
    if grp.size == 0:
        return out
    rg = act[grp]
    wg = wsel[grp]
    width = int(arm_counts[grp].max())
    pad = arm_order[rg, wg, :width]
    valid = np.arange(width) < arm_counts[grp][:, None]
    rep = np.broadcast_to(rg[:, None], pad.shape)
    fix = np.broadcast_to(fixed[grp][:, None], pad.shape)
    if axis == 0:
        current = processed[rep, fix, pad]
    else:
        current = processed[rep, pad, fix]
    fresh = valid & ~current
    if axis == 0:
        processed[rep[fresh], fix[fresh], pad[fresh]] = True
    else:
        processed[rep[fresh], pad[fresh], fix[fresh]] = True
    out[grp] = fresh.sum(axis=1)
    return out


class _MatrixDynState:
    """Vectorized DynamicMatrix phase-1 state: I/J/K knowledge + cube bitmap.

    As :class:`_OuterDynState`, but with three dimensions, rectangle-growth
    block accounting and shell marking: DynamicMatrix, and phase 1 of
    DynamicMatrix2Phases.
    """

    def __init__(self, R: int, p: int, n: int) -> None:
        self.n = n
        self.processed = np.zeros((R, n, n, n), dtype=bool)
        self.remaining = np.full(R, n**3, dtype=np.int64)
        self.items = np.broadcast_to(np.arange(n, dtype=np.int64), (3, R, p, n)).copy()
        self.order = np.zeros((3, R, p, n), dtype=np.int64)
        self.cnt = np.zeros((3, R, p), dtype=np.int64)

    def step(
        self,
        generators: Sequence[np.random.Generator],
        act: np.ndarray,
        wsel: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = self.n
        A = int(act.size)
        prev = self.cnt[:, act, wsel]  # (3, A): |I|, |J|, |K| before the draws
        complete = (prev >= n).all(axis=0)
        tasks = np.zeros(A, dtype=np.int64)
        for g in np.flatnonzero(complete).tolist():
            r = int(act[g])
            tasks[g] = self.remaining[r]
            self.processed[r] = True
        need = ~complete & (prev < n)  # (3, A), draw order i, j, k
        sizes = n - prev
        draw_idx = _batched_dim_draws(generators, act, need, sizes)
        vals = _draw_values(self.items, self.order, self.cnt, n, act, wsel, need, draw_idx)
        grew = need.astype(np.int64)
        # Shipped blocks: growth of the A (I x K), B (K x J), C (I x J)
        # rectangles — the vectorized _grown_blocks arithmetic.
        blocks = (
            ((prev[0] + grew[0]) * (prev[2] + grew[2]) - prev[0] * prev[2])
            + ((prev[2] + grew[2]) * (prev[1] + grew[1]) - prev[2] * prev[1])
            + ((prev[0] + grew[0]) * (prev[1] + grew[1]) - prev[0] * prev[1])
        )
        # Shell marking: three disjoint slabs of the grown cube.
        grown_j = prev[1] + grew[1]
        grown_k = prev[2] + grew[2]
        tasks += _mark_slab(
            self.processed, act, need[0] & (grown_j > 0) & (grown_k > 0),
            (vals[0], 0),
            (self.order[1], grown_j), (self.order[2], grown_k), wsel,
        )
        tasks += _mark_slab(
            self.processed, act, need[1] & (prev[0] > 0) & (grown_k > 0),
            (vals[1], 1),
            (self.order[0], prev[0]), (self.order[2], grown_k), wsel,
        )
        tasks += _mark_slab(
            self.processed, act, need[2] & (prev[0] > 0) & (prev[1] > 0),
            (vals[2], 2),
            (self.order[0], prev[0]), (self.order[1], prev[1]), wsel,
        )
        self.remaining[act] -= tasks
        return blocks, tasks


def _mark_slab(
    processed: np.ndarray,
    act: np.ndarray,
    grp_mask: np.ndarray,
    fixed: Tuple[np.ndarray, int],
    span_a: Tuple[np.ndarray, np.ndarray],
    span_b: Tuple[np.ndarray, np.ndarray],
    wsel: np.ndarray,
) -> np.ndarray:
    """Mark one DynamicMatrix shell slab across replicates.

    The slab fixes one cube axis to a freshly drawn index and spans the
    other two axes with per-worker index prefixes (padded to the longest
    prefix across the group and masked).  The three slabs of a shell are
    disjoint by construction, so gathers never see a sibling's scatter.
    Returns the newly-marked count per active slot.
    """
    out = np.zeros(act.size, dtype=np.int64)
    grp = np.flatnonzero(grp_mask)
    if grp.size == 0:
        return out
    rg = act[grp]
    wg = wsel[grp]
    fixed_vals, fixed_axis = fixed
    order_a, len_a = span_a
    order_b, len_b = span_b
    wa = int(len_a[grp].max())
    wb = int(len_b[grp].max())
    pad_a = order_a[rg, wg, :wa]  # (G, wa)
    pad_b = order_b[rg, wg, :wb]  # (G, wb)
    valid = (np.arange(wa) < len_a[grp][:, None])[:, :, None] & (
        np.arange(wb) < len_b[grp][:, None]
    )[:, None, :]
    shape = (int(grp.size), wa, wb)
    rep = np.broadcast_to(rg[:, None, None], shape)
    fix = np.broadcast_to(fixed_vals[grp][:, None, None], shape)
    a_idx = np.broadcast_to(pad_a[:, :, None], shape)
    b_idx = np.broadcast_to(pad_b[:, None, :], shape)
    # Map (fixed, span_a, span_b) onto cube axes (i, j, k).
    if fixed_axis == 0:
        i_idx, j_idx, k_idx = fix, a_idx, b_idx
    elif fixed_axis == 1:
        i_idx, j_idx, k_idx = a_idx, fix, b_idx
    else:
        i_idx, j_idx, k_idx = a_idx, b_idx, fix
    current = processed[rep, i_idx, j_idx, k_idx]
    fresh = valid & ~current
    processed[rep[fresh], i_idx[fresh], j_idx[fresh], k_idx[fresh]] = True
    out[grp] = fresh.sum(axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# The lockstep loop: Dynamic* and Dynamic*2Phases cells, alone or grouped
# ---------------------------------------------------------------------------


class _Fork(NamedTuple):
    """One replicate's lockstep state where a two-phase member forks.

    Views into the live ``(R, ...)`` arrays, taken at the crossing pop and
    consumed before the replicate's next step; :func:`_phase2_analytic`
    only reads them.
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
    once.  A two-phase member crosses its own threshold per replicate
    (``resolve_threshold`` replayed against the replicate's platform,
    matching the scalar reset) the moment a request finds ``remaining <=
    threshold`` — the same pre-dispatch check ``assign`` performs.

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
    stay in the loop, their phase-2 events advancing through the shared
    queue beside the other replicates' phase-1 events.
    """

    def __init__(self, kind: str, strategy_name: str) -> None:
        self._kind = kind
        self.strategy_name = strategy_name

    def group_key(self, prototype: Strategy) -> Optional[Tuple[str, int]]:
        return (self._kind, prototype.n)

    def bytes_per_replicate(self, prototype: Strategy, p: int) -> int:
        n = prototype.n
        if self._kind == "outer":
            if not _is_two_phase(prototype):
                return n * n + 32 * p * n + 64 * p
            # Phase-1 state + (R, p, n) caches + sampler replay ids.
            return 9 * n * n + 34 * p * n + 64 * p
        if not _is_two_phase(prototype):
            return n**3 + 48 * p * n + 64 * p
        return 9 * n**3 + 3 * p * n * n + 48 * p * n + 64 * p

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
        thresholds = np.full((M, R), -1, dtype=np.int64)
        for m, prototype in enumerate(prototypes):
            if _is_two_phase(prototype):
                thresholds[m] = [prototype.resolve_threshold(pl) for pl in ctx.platforms]
        name = " + ".join(dict.fromkeys(prototype.name for prototype in prototypes))
        acc = _LockstepAccumulator(name, R, p, n, ctx.want_events)
        state = _OuterDynState(R, p, n) if self._kind == "outer" else _MatrixDynState(R, p, n)
        # Members still following each replicate's phase 1, and the
        # highest threshold among them (the next possible crossing).
        following = np.ones((M, R), dtype=bool)
        next_cross = thresholds.max(axis=0)
        check = bool((next_cross > 0).any())
        forks: List[List[Optional[KernelRun]]] = [[None] * R for _ in range(M)]
        phase2 = np.zeros(R, dtype=bool)
        p2_items: List[Optional[List[int]]] = [None] * R
        caches: Optional[_BlockCaches] = None
        act = np.arange(R, dtype=np.int64)
        while act.size:
            now, wsel = acc.pop(act)
            # Threshold check before dispatch, as assign() does.
            crossing = act[state.remaining[act] <= next_cross[act]] if check else act[:0]
            for r in crossing.tolist():
                next_cross[r] = -1
                if replay is not None and replay[r] is not None:
                    if caches is None:
                        caches = _BlockCaches(self._kind, R, p, n)
                    p2_items[r] = self._freeze(state, caches, r, p)
                    phase2[r] = True
                    continue
                fork = acc.fork(state, ctx.speeds, r)
                crossed = following[:, r] & (thresholds[:, r] >= state.remaining[r])
                for m in np.flatnonzero(crossed).tolist():
                    generator = ctx.generators[r]
                    forks[m][r] = _phase2_analytic(
                        fork, generator if M == 1 else copy.deepcopy(generator)
                    )
                following[crossed, r] = False
                next_cross[r] = thresholds[following[:, r], r].max(initial=-1)
            if crossing.size:
                keep = following[:, act].any(axis=0)
                act, now, wsel = act[keep], now[keep], wsel[keep]
                if not act.size:
                    break
            phases: Optional[np.ndarray] = None
            if caches is None:
                blocks, tasks = state.step(ctx.generators, act, wsel)
            else:
                blocks, tasks, phases = self._mixed_step(
                    state, caches, p2_items, phase2, ctx, act, wsel
                )
            durations = _event_durations(ctx.speeds, replay, act, wsel, tasks)
            acc.commit(act, wsel, now, durations, blocks, tasks, phases)
            act = act[state.remaining[act] > 0]
        out: List[List[KernelRun]] = []
        for row in forks:
            final = acc.finish() if any(run is None for run in row) else []
            out.append([final[r] if run is None else run for r, run in enumerate(row)])
        return out

    def _mixed_step(
        self,
        state: "_OuterDynState | _MatrixDynState",
        caches: _BlockCaches,
        p2_items: List[Optional[List[int]]],
        phase2: np.ndarray,
        ctx: BatchContext,
        act: np.ndarray,
        wsel: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One step with some replicates in lockstep phase 2 (dynamic speeds)."""
        in2 = phase2[act]
        A = int(act.size)
        blocks = np.zeros(A, dtype=np.int64)
        tasks = np.zeros(A, dtype=np.int64)
        g1 = np.flatnonzero(~in2)
        if g1.size:
            b1, t1 = state.step(ctx.generators, act[g1], wsel[g1])
            blocks[g1] = b1
            tasks[g1] = t1
        g2 = np.flatnonzero(in2)
        phases = np.ones(A, dtype=np.int64)
        phases[g2] = 2
        rg = act[g2]
        vals = np.empty(int(g2.size), dtype=np.int64)
        for x, r in enumerate(rg.tolist()):
            lst = p2_items[r]
            assert lst is not None
            # SampleSet.draw over the frozen remainder: the live size *is*
            # the remaining count.
            size = int(state.remaining[r])
            idx = int(ctx.generators[r].integers(size))
            vals[x] = lst[idx]
            lst[idx] = lst[size - 1]
        blocks[g2] = caches.ship(rg, wsel[g2], vals)
        tasks[g2] = 1
        state.remaining[rg] -= 1
        return blocks, tasks, phases

    def _freeze(
        self,
        state: "_OuterDynState | _MatrixDynState",
        caches: _BlockCaches,
        r: int,
        p: int,
    ) -> List[int]:
        """Scalar ``_enter_phase2`` for replicate *r*.

        Returns the frozen sampler items (the pool's unprocessed ids in
        ascending order) and seeds the worker block caches from the
        phase-1 index sets — the index-set product for matmul, the plain
        index sets for the outer product.
        """
        order, cnt = state.order, state.cnt
        if self._kind == "outer":
            for w in range(p):
                caches.a[r, w, order[0, r, w, : int(cnt[0, r, w])]] = True
                caches.b[r, w, order[1, r, w, : int(cnt[1, r, w])]] = True
        else:
            assert caches.c is not None
            for w in range(p):
                rows = order[0, r, w, : int(cnt[0, r, w])]
                cols = order[1, r, w, : int(cnt[1, r, w])]
                deps = order[2, r, w, : int(cnt[2, r, w])]
                caches.a[r, w][np.ix_(rows, deps)] = True
                caches.b[r, w][np.ix_(deps, cols)] = True
                caches.c[r, w][np.ix_(rows, cols)] = True
        flat: List[int] = np.flatnonzero(~state.processed[r].reshape(-1)).tolist()
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
