"""The demand-driven simulation loop.

The engine realizes the paper's execution model:

* every worker requests work the instant it becomes idle (time 0 at start);
* the master answers immediately with an :class:`~repro.core.strategies.base.Assignment`;
* communication is fully overlapped, so shipping blocks costs volume but no
  time; an assignment of ``m`` tasks occupies the worker for
  ``m / speed`` time units (or the dynamic-speed equivalent);
* the run ends when the strategy has allocated every task.

Zero-task assignments (the master ships blocks whose whole cross is already
processed) legitimately occur near the end of a Dynamic* run; they re-enter
the queue at the same timestamp.  Termination is still guaranteed because
each such assignment strictly grows the worker's knowledge, and a worker
with complete knowledge absorbs the whole remainder — but a defensive
livelock guard turns any strategy bug into a loud :class:`LivelockError`
instead of a hang.

Fault injection (:mod:`repro.faults`) runs through the same loop.  Given a
pre-drawn :class:`~repro.faults.models.FaultSchedule`, crash, restart and
heartbeat-timeout events share the queue with the workers' requests, each
payload encoded as ``worker + p * (kind + 4 * epoch)``.  ``epoch`` is a
per-worker counter bumped on every crash and every tracked completion;
events carrying a stale epoch are discarded on pop, so a crash at the exact
timestamp of a finish invalidates the finish (FIFO pop order decides which
fired first), and a completed assignment is never re-released by its own
late heartbeat.  A fault-free request is the bare worker id: one
``token >= p`` test sends every fault event — and every request of a run
that tracks task ids, whose epochs start at 1 — to the cold branch, which a
run without a schedule never enters.

Correctness contract of the fault path (verified by ``tests/faults``):

* **exactly-once completion** — a first-completion bitmap guarantees every
  task of the kernel is counted complete exactly once; re-executions and
  replica finishes are tallied separately in
  :class:`~repro.simulator.results.FaultStats`;
* **fault-free reduction** — an empty schedule with the default policy
  performs the same pops, strategy calls and RNG draws as a run without a
  schedule, so the results are bit-identical;
* **termination** — releases only ever return tasks to the pool (knowledge
  grows monotonically, so a knowledge-complete worker eventually absorbs
  any remainder); if every worker is down or parked and no event is
  pending, the loop raises :class:`FaultDeadlockError` instead of hanging.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.core.strategies.base import Strategy
from repro.obs.sink import MetricsSink
from repro.platform.platform import Platform
from repro.platform.speeds import SpeedModel, StaticSpeedModel
from repro.simulator.events import EventQueue
from repro.simulator.results import FaultStats, SimulationResult
from repro.simulator.trace import AssignmentRecord, FaultRecord, Trace
from repro.utils.rng import SeedLike, as_generator

if TYPE_CHECKING:
    # repro.faults re-exports FaultDeadlockError from this module, so the
    # runtime imports happen inside simulate().
    from repro.faults.models import FaultSchedule, Slowdown
    from repro.faults.policies import RecoveryPolicy

__all__ = ["simulate", "LivelockError", "FaultDeadlockError"]

# Event kinds of a queue payload ``worker + p * (kind + 4 * epoch)``; kind 0
# is the worker's own request for work.
_CRASH, _RESTART, _TIMEOUT = 1, 2, 3


class LivelockError(RuntimeError):
    """Raised when the run exceeds the zero-progress assignment budget."""


class FaultDeadlockError(RuntimeError):
    """Raised when no event is pending but the computation is unfinished.

    This happens only for schedules without eventual worker availability —
    e.g. every worker crashed and none restarts — or for policies that park
    workers while no straggler can ever finish.
    """


# The fault-path helpers live at module level: a closure inside simulate()
# would turn the loop variables it reads into cells, slowing every event.


def _wake_parked(
    parked: List[bool],
    epoch: List[int],
    stride: int,
    push: Callable[[float, int], None],
    now: float,
) -> None:
    """Re-queue every parked worker (tasks became allocatable)."""
    for u, waiting in enumerate(parked):
        if waiting:
            parked[u] = False
            push(now, u + stride * epoch[u])


def _slow_factor(windows: List[Slowdown], now: float) -> float:
    """Straggler factor of the window containing *now*, else 1.0.

    *windows* are one worker's pending windows, latest first; those that
    ended by *now* are dropped.
    """
    while windows and windows[-1].end <= now:
        windows.pop()
    return windows[-1].factor if windows and windows[-1].start <= now else 1.0


def _message_lost(requests: List[int], lost: List[List[int]], worker: int) -> bool:
    """Count *worker*'s next assignment; True when its message is lost."""
    index = requests[worker]
    requests[worker] = index + 1
    pending = lost[worker]
    if pending and pending[-1] == index:
        pending.pop()
        return True
    return False


def simulate(
    strategy: Strategy,
    platform: Platform,
    *,
    rng: SeedLike = None,
    speed_model: Optional[SpeedModel] = None,
    collect_trace: bool = False,
    sink: Optional[MetricsSink] = None,
    schedule: Optional[FaultSchedule] = None,
    policy: Optional[RecoveryPolicy] = None,
) -> SimulationResult:
    """Run *strategy* on *platform* and return the communication accounting.

    Parameters
    ----------
    strategy:
        Any :class:`~repro.core.strategies.base.Strategy`; it is reset at
        the start of the run, so the same instance can be reused.
    platform:
        The heterogeneous platform (worker speeds).
    rng:
        Seed or generator driving every random choice of the run (strategy
        draws and dynamic-speed perturbations share this stream).
    speed_model:
        Defaults to :class:`~repro.platform.speeds.StaticSpeedModel`.
    collect_trace:
        Record one :class:`~repro.simulator.trace.AssignmentRecord` per
        interaction (needed for execution replay and fine-grained tests);
        a fault-aware run also records one
        :class:`~repro.simulator.trace.FaultRecord` per fault/recovery event.
    sink:
        Optional :class:`~repro.obs.sink.MetricsSink` receiving run/
        assignment events, plus one
        :meth:`~repro.obs.sink.MetricsSink.on_fault` call per fault/recovery
        event.  ``None`` (the default) keeps the hot loop free of
        instrumentation.
    schedule:
        A pre-drawn :class:`~repro.faults.models.FaultSchedule` makes the
        run fault-aware; ``None`` (the default) runs the fault-free model.
        An empty schedule with the default policy gives the fault-free
        results plus a zeroed ``faults`` accounting.
    policy:
        A :class:`~repro.faults.policies.RecoveryPolicy` for a fault-aware
        run; defaults to :class:`~repro.faults.policies.ReassignLost`.
        Crashed workers' in-flight tasks are always released back to the
        pool regardless of the policy.

    The strategy must be built with ``collect_ids=True`` whenever the
    schedule is non-empty or the policy needs per-task tracking
    (heartbeats, replication): completions are deduplicated through a
    first-completion bitmap over flat task ids.

    Returns
    -------
    SimulationResult
        Totals, per-worker breakdowns, makespan and the optional trace; for
        a fault-aware run, ``faults`` carries the
        :class:`~repro.simulator.results.FaultStats` accounting.
    """
    p = platform.p
    if schedule is None:
        if policy is not None:
            raise ValueError(
                "a recovery policy needs a fault schedule; pass "
                "schedule=FaultSchedule.empty() for a fault-free run under a policy"
            )
    else:
        from repro.faults.models import FaultSchedule
        from repro.faults.policies import ReassignLost

        if not isinstance(schedule, FaultSchedule):
            raise TypeError(f"schedule must be a FaultSchedule, got {type(schedule).__name__}")
        # Bound only here: every use sits on the fault path below.
        recovery = ReassignLost() if policy is None else policy
        if schedule.max_worker >= p:
            raise ValueError(
                f"schedule references worker {schedule.max_worker} but the "
                f"platform has only {p} workers"
            )
        if (not schedule.is_empty or recovery.needs_task_ids) and not strategy.collect_ids:
            raise ValueError(
                "fault injection needs per-task completion tracking; build the "
                "strategy with collect_ids=True"
            )

    generator = as_generator(rng)
    model = speed_model if speed_model is not None else StaticSpeedModel()
    model.reset(platform, generator)
    strategy.reset(platform, generator)
    if schedule is not None:
        recovery.reset(strategy, platform)
    if sink is not None:
        sink.on_run_start(
            strategy.name,
            strategy.kernel,
            strategy.n,
            p,
            [float(s) for s in platform.relative_speeds],
        )

    # Completion tracking: the run ends at the last first completion rather
    # than when the strategy has allocated everything.
    track = schedule is not None and strategy.collect_ids
    total = strategy.total_tasks
    stride = 4 * p
    # Tracked epochs start at 1, so every request of a tracked run takes the
    # cold branch, where its completion is accounted.
    epoch = [int(track)] * p
    queue = EventQueue()
    # Worker ids are validated here, once; the loop below re-queues the same
    # ids through the unchecked fast path.
    for w in range(p):
        queue.push(0.0, w + stride * epoch[w])

    # Per-worker fault events, latest first: the loop pops the next one.
    restarts: List[List[float]] = [[] for _ in range(p)]
    windows: List[List[Slowdown]] = [[] for _ in range(p)]
    lost: List[List[int]] = [[] for _ in range(p)]
    if schedule is not None:
        for crash in schedule.crashes:
            queue.push(crash.time, crash.worker + p * _CRASH)
        for crash in reversed(schedule.crashes):
            restarts[crash.worker].append(crash.restart_time)
        for window in reversed(schedule.slowdowns):
            windows[window.worker].append(window)
        for loss in reversed(schedule.losses):
            lost[loss.worker].append(loss.request_index)
    lossy = any(lost)
    slowed = any(windows)

    # Per-worker accumulation in plain Python ints: ~10^6 numpy-scalar
    # indexed updates per run cost more than the whole heap traffic.
    blocks = [0] * p
    tasks = [0] * p
    makespan = 0.0
    n_assignments = 0
    trace = Trace() if collect_trace else None

    # Fault-path state, touched only by runs with a schedule.
    parked = [False] * p
    requests = [0] * p
    # blocks[w] when w last crashed: every block shipped since is cached.
    cache_base = [0] * p
    inflight_ids: List[Optional[np.ndarray]] = [None] * p
    inflight_blocks = [0] * p
    completed = np.zeros(total if track else 0, dtype=bool)
    completed_count = 0
    completed_makespan = 0.0
    lost_tasks = 0
    counts = dict.fromkeys((f.name for f in fields(FaultStats)), 0)

    zero_streak = 0
    # A worker can receive at most ~3n index blocks before its knowledge is
    # complete, so across p workers the number of zero-task assignments is
    # bounded by O(n * p); anything far beyond that is a strategy bug.  A
    # crash resets one worker's knowledge, legitimately re-enabling up to
    # ~3n zero-task assignments, so each crash earns the whole budget again.
    n_crashes = 0 if schedule is None else len(schedule.crashes)
    zero_budget = 4 * (3 * strategy.n + 2) * p * (1 + n_crashes) + 1024

    # Hoisted method lookups for the event loop.
    queue_pop = queue.pop
    queue_push = queue.push_unchecked
    assign = strategy.assign

    # StaticSpeedModel (every figure except 8) reduces to one float division
    # per event; inlining it avoids a method call plus numpy scalar indexing
    # while producing bit-identical durations (same ``n_tasks / speed``
    # operands as StaticSpeedModel.duration).
    speeds = [float(s) for s in platform.speeds]
    static_speeds = speeds if type(model) is StaticSpeedModel else None
    model_duration = model.duration

    while (completed_count < total) if track else not strategy.done:
        if not queue:
            raise FaultDeadlockError(
                f"no pending event but only {completed_count}/{total} tasks "
                f"completed (strategy={strategy.name}); the schedule leaves "
                "no worker available to finish the run"
            )
        now, worker = queue_pop()
        if worker >= p:
            event, worker = divmod(worker, p)
            kind = event & 3
            if kind == _CRASH:
                counts["n_crashes"] += 1
                epoch[worker] += 1  # voids the worker's pending requests and timeouts
                parked[worker] = False
                lost_ids = inflight_ids[worker]
                inflight_ids[worker] = None
                release_ids: Optional[np.ndarray] = None
                if lost_ids is not None and lost_ids.size:
                    counts["wasted_blocks"] += inflight_blocks[worker]
                    # Only uncompleted copies need re-execution; a re-executed
                    # task whose original straggler already finished is done.
                    release_ids = lost_ids[~completed[lost_ids]]
                n_released = 0 if release_ids is None else int(release_ids.size)
                counts["released_tasks"] += n_released
                strategy.on_worker_lost(worker, release_ids)
                lost_cache = blocks[worker] - cache_base[worker]
                cache_base[worker] = blocks[worker]
                counts["lost_cache_blocks"] += lost_cache
                if trace is not None:
                    trace.append_fault(FaultRecord(now, "crash", worker, n_released, lost_cache))
                if sink is not None:
                    sink.on_fault(now, "crash", worker, n_released, lost_cache)
                # FaultSchedule rejects a crash at or before the previous
                # restart, so a worker's crash and restart events alternate.
                queue_push(restarts[worker].pop(), worker + p * _RESTART)
                if n_released:
                    _wake_parked(parked, epoch, stride, queue_push, now)
                continue
            if kind == _RESTART:
                counts["n_restarts"] += 1
                if trace is not None:
                    trace.append_fault(FaultRecord(now, "restart", worker))
                if sink is not None:
                    sink.on_fault(now, "restart", worker, 0, 0)
                # The rejoined worker requests work immediately.
                queue_push(now, worker + stride * epoch[worker])
                continue
            if event >> 2 != epoch[worker]:
                continue  # the worker crashed or completed meanwhile
            if kind == _TIMEOUT:
                late_ids = inflight_ids[worker]
                if late_ids is None or late_ids.size == 0:
                    continue
                # Declare the assignment lost: its uncompleted tasks go back
                # to the pool for re-execution while the straggler keeps
                # computing its own copy (a late finish becomes a duplicate).
                recovery.register_timeout(worker)
                counts["n_timeouts"] += 1
                late = late_ids[~completed[late_ids]]
                n_late = int(late.size)
                if trace is not None:
                    trace.append_fault(FaultRecord(now, "timeout", worker, n_late))
                if sink is not None:
                    sink.on_fault(now, "timeout", worker, n_late, 0)
                if n_late:
                    counts["released_tasks"] += n_late
                    strategy.release_tasks(late)
                    _wake_parked(parked, epoch, stride, queue_push, now)
                continue

            # -- request: account the completion, then ask for new work ------
            done_ids = inflight_ids[worker]
            if done_ids is not None:
                epoch[worker] += 1  # retire any pending heartbeat deadline
                inflight_ids[worker] = None
                if done_ids.size:
                    firsts = int(np.count_nonzero(~completed[done_ids]))
                    counts["duplicate_completions"] += int(done_ids.size) - firsts
                    if firsts:
                        completed[done_ids] = True
                        completed_count += firsts
                        if now > completed_makespan:
                            completed_makespan = now
            if strategy.done:
                replicas = (
                    recovery.tail_replicas(worker, now, inflight_ids, completed, completed_count)
                    if completed_count < total
                    else None
                )
                if replicas is None or replicas.size == 0:
                    parked[worker] = True
                    continue
                n_rep = int(replicas.size)
                rep_blocks = n_rep * (2 if strategy.kernel == "outer" else 3)
                counts["replicated_tasks"] += n_rep
                blocks[worker] += rep_blocks
                tasks[worker] += n_rep
                n_assignments += 1
                if static_speeds is not None:
                    duration = n_rep / static_speeds[worker]
                else:
                    duration = model_duration(worker, n_rep)
                duration *= _slow_factor(windows[worker], now)
                inflight_ids[worker] = replicas
                inflight_blocks[worker] = rep_blocks
                if trace is not None:
                    trace.append_fault(FaultRecord(now, "replicate", worker, n_rep, rep_blocks))
                    trace.append(
                        AssignmentRecord(now, worker, rep_blocks, n_rep, duration, 1, replicas)
                    )
                if sink is not None:
                    sink.on_fault(now, "replicate", worker, n_rep, rep_blocks)
                    sink.on_assignment(now, worker, rep_blocks, n_rep, duration, 1)
                queue_push(now + duration, worker + stride * epoch[worker])
                continue

        assignment = assign(worker, now)
        n_assignments += 1
        a_tasks = assignment.tasks
        a_blocks = assignment.blocks
        blocks[worker] += a_blocks
        if lossy and _message_lost(requests, lost, worker):
            # The allocation message vanishes: blocks arrived (the master's
            # cache bookkeeping stays truthful) but no work starts.  The
            # tasks return to the pool and the worker re-requests after the
            # time the lost work would have taken.
            counts["n_lost_assignments"] += 1
            counts["wasted_blocks"] += a_blocks
            lost_tasks += a_tasks
            if a_tasks and assignment.task_ids is not None:
                counts["released_tasks"] += a_tasks
                strategy.release_tasks(assignment.task_ids)
            if trace is not None:
                trace.append_fault(FaultRecord(now, "loss", worker, a_tasks, a_blocks))
                trace.append(
                    AssignmentRecord(
                        now, worker, a_blocks, a_tasks, 0.0, assignment.phase, assignment.task_ids
                    )
                )
            if sink is not None:
                sink.on_fault(now, "loss", worker, a_tasks, a_blocks)
                sink.on_assignment(now, worker, a_blocks, a_tasks, 0.0, assignment.phase)
            queue_push(now + a_tasks / speeds[worker], worker + stride * epoch[worker])
            if a_tasks:
                _wake_parked(parked, epoch, stride, queue_push, now)
            continue

        tasks[worker] += a_tasks
        if static_speeds is not None:
            duration = a_tasks / static_speeds[worker]
        else:
            duration = model_duration(worker, a_tasks)
        if slowed:
            duration *= _slow_factor(windows[worker], now)
        finish = now + duration
        if a_tasks > 0:
            if finish > makespan:
                makespan = finish
            zero_streak = 0
        else:
            zero_streak += 1
            if zero_streak > zero_budget:
                raise LivelockError(
                    f"{zero_streak} consecutive zero-task assignments "
                    f"(strategy={strategy.name}, remaining tasks unallocated)"
                )
        if trace is not None:
            trace.append(
                AssignmentRecord(
                    time=now,
                    worker=worker,
                    blocks=a_blocks,
                    tasks=a_tasks,
                    duration=duration,
                    phase=assignment.phase,
                    task_ids=assignment.task_ids,
                )
            )
        if sink is not None:
            sink.on_assignment(now, worker, a_blocks, a_tasks, duration, assignment.phase)
        if track:
            inflight_ids[worker] = assignment.task_ids
            inflight_blocks[worker] = a_blocks
            deadline = recovery.timeout_deadline(worker, now, a_tasks / speeds[worker])
            if deadline is not None and a_tasks > 0:
                queue_push(deadline, worker + p * _TIMEOUT + stride * epoch[worker])
            queue_push(finish, worker + stride * epoch[worker])
        else:
            queue_push(finish, worker)

    faults: Optional[FaultStats] = None
    if schedule is not None:
        if track:
            makespan = completed_makespan
        allocated = sum(tasks) - counts["replicated_tasks"] + lost_tasks
        counts["reexecuted_tasks"] = max(0, allocated - total)
        faults = FaultStats(**counts)
    if sink is not None:
        sink.on_run_end(makespan, sum(blocks), sum(tasks), n_assignments)
    return SimulationResult(
        total_blocks=sum(blocks),
        per_worker_blocks=np.asarray(blocks, dtype=np.int64),
        per_worker_tasks=np.asarray(tasks, dtype=np.int64),
        makespan=makespan,
        n_assignments=n_assignments,
        strategy_name=strategy.name,
        trace=trace,
        faults=faults,
    )
