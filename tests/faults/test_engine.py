"""Tests for fault-aware runs of the simulation engine (``schedule=``)."""

import collections

import numpy as np
import pytest

from repro.core.strategies.base import Assignment, Strategy
from repro.core.strategies.registry import make_strategy, strategy_names
from repro.faults import FaultSchedule, HeartbeatTimeout, ReplicateTail
from repro.faults.models import AssignmentLoss, Slowdown, WorkerCrash
from repro.platform import Platform, uniform_speeds
from repro.simulator import simulate

EMPTY = FaultSchedule.empty()


def _paper_platform() -> Platform:
    return Platform(uniform_speeds(6, 10, 100, rng=123))


def _make(name: str, *, collect_ids: bool):
    n = 8 if "Matrix" in name else 16
    return make_strategy(name, n, collect_ids=collect_ids)


def _assert_identical(a, b):
    assert a.total_blocks == b.total_blocks
    assert a.makespan == b.makespan
    assert a.n_assignments == b.n_assignments
    assert np.array_equal(a.per_worker_blocks, b.per_worker_blocks)
    assert np.array_equal(a.per_worker_tasks, b.per_worker_tasks)


class TestFaultFreeReduction:
    """Empty schedule => bit-identical to the fault-free engine."""

    @pytest.mark.parametrize("name", strategy_names())
    @pytest.mark.parametrize("collect_ids", [False, True])
    def test_identical_to_simulate(self, name, collect_ids):
        platform = _paper_platform()
        base = simulate(_make(name, collect_ids=collect_ids), platform, rng=321)
        faulty = simulate(
            _make(name, collect_ids=collect_ids), platform, schedule=EMPTY, rng=321
        )
        _assert_identical(base, faulty)
        assert base.faults is None
        assert faulty.faults is not None
        assert not faulty.faults.any_faults
        assert faulty.faults.reexecuted_tasks == 0
        assert faulty.faults.duplicate_completions == 0

    @pytest.mark.parametrize("name", ["DynamicOuter", "DynamicMatrix2Phases"])
    def test_heartbeat_policy_is_inert_without_faults(self, name):
        """Deadlines arm but never fire on an on-time static platform."""
        platform = _paper_platform()
        base = simulate(_make(name, collect_ids=True), platform, rng=321)
        faulty = simulate(
            _make(name, collect_ids=True),
            platform,
            schedule=EMPTY,
            policy=HeartbeatTimeout(k=2.0),
            rng=321,
        )
        _assert_identical(base, faulty)
        assert faulty.faults is not None
        assert faulty.faults.n_timeouts == 0


class TestValidation:
    def test_rejects_non_schedule(self, small_platform):
        with pytest.raises(TypeError):
            simulate(
                _make("DynamicOuter", collect_ids=True), small_platform, schedule=[]
            )

    def test_rejects_schedule_beyond_platform(self, small_platform):
        schedule = FaultSchedule(crashes=(WorkerCrash(9, 1.0, 1.0),))
        with pytest.raises(ValueError, match="worker 9"):
            simulate(
                _make("DynamicOuter", collect_ids=True), small_platform, schedule=schedule
            )

    def test_nonempty_schedule_requires_collect_ids(self, small_platform):
        schedule = FaultSchedule(crashes=(WorkerCrash(0, 1.0, 1.0),))
        with pytest.raises(ValueError, match="collect_ids"):
            simulate(
                _make("DynamicOuter", collect_ids=False), small_platform, schedule=schedule
            )

    def test_policy_requires_schedule(self, small_platform):
        with pytest.raises(ValueError, match="schedule"):
            simulate(
                _make("DynamicOuter", collect_ids=True), small_platform, policy=HeartbeatTimeout()
            )

    def test_tracking_policy_requires_collect_ids(self, small_platform):
        with pytest.raises(ValueError, match="collect_ids"):
            simulate(
                _make("DynamicOuter", collect_ids=False),
                small_platform,
                schedule=EMPTY,
                policy=HeartbeatTimeout(),
            )


class TestCrashes:
    def test_single_crash_recovers(self, small_platform):
        schedule = FaultSchedule(crashes=(WorkerCrash(3, 0.05, 0.5),))
        result = simulate(
            _make("DynamicOuter", collect_ids=True),
            small_platform,
            schedule=schedule,
            rng=5,
            collect_trace=True,
        )
        stats = result.faults
        assert stats is not None
        assert stats.n_crashes == 1
        assert stats.n_restarts <= 1
        # Crash-only schedule: every released task is re-allocated exactly
        # once, and the dead copy can never produce a duplicate completion.
        assert stats.reexecuted_tasks == stats.released_tasks
        assert stats.duplicate_completions == 0
        assert result.trace is not None
        assert len(result.trace.faults_of_kind("crash")) == 1

    def test_crash_without_restart_still_completes(self, small_platform):
        """A worker that never returns must not block the run."""
        schedule = FaultSchedule(crashes=(WorkerCrash(0, 0.01, 1e9),))
        result = simulate(
            _make("DynamicOuter", collect_ids=True), small_platform, schedule=schedule, rng=5
        )
        assert result.faults is not None
        assert result.faults.n_crashes == 1
        assert result.faults.n_restarts == 0
        assert result.makespan < 1e9

    def test_all_workers_crash_and_return(self, small_platform):
        crashes = tuple(WorkerCrash(w, 0.05, 0.2) for w in range(4))
        result = simulate(
            _make("DynamicOuter", collect_ids=True),
            small_platform,
            schedule=FaultSchedule(crashes=crashes),
            rng=5,
        )
        assert result.faults is not None
        assert result.faults.n_crashes == 4
        assert result.faults.n_restarts == 4

    def test_crash_after_completion_never_fires(self, small_platform):
        base = simulate(
            _make("DynamicOuter", collect_ids=True), small_platform, schedule=EMPTY, rng=5
        )
        late = FaultSchedule(crashes=(WorkerCrash(0, base.makespan * 100, 1.0),))
        result = simulate(
            _make("DynamicOuter", collect_ids=True), small_platform, schedule=late, rng=5
        )
        _assert_identical(base, result)
        assert result.faults is not None
        assert result.faults.n_crashes == 0


class TestLossesAndSlowdowns:
    def test_first_request_lost_everywhere(self, small_platform):
        losses = tuple(AssignmentLoss(w, 0) for w in range(4))
        result = simulate(
            _make("DynamicOuter", collect_ids=True),
            small_platform,
            schedule=FaultSchedule(losses=losses),
            rng=5,
            collect_trace=True,
        )
        stats = result.faults
        assert stats is not None
        assert stats.n_lost_assignments == 4
        assert stats.wasted_blocks > 0
        assert stats.released_tasks > 0
        assert result.trace is not None
        assert len(result.trace.faults_of_kind("loss")) == 4

    def test_uniform_slowdown_scales_makespan_only(self, small_platform):
        base = simulate(
            _make("DynamicOuter", collect_ids=True), small_platform, schedule=EMPTY, rng=5
        )
        horizon = base.makespan * 10.0
        # Factor 2 scales every duration by a power of two, which commutes
        # exactly with float rounding: the whole timeline doubles bit for bit.
        slowdowns = tuple(Slowdown(w, 0.0, 100.0 * horizon, 2.0) for w in range(4))
        slowed = simulate(
            _make("DynamicOuter", collect_ids=True),
            small_platform,
            schedule=FaultSchedule(slowdowns=slowdowns),
            rng=5,
        )
        assert slowed.total_blocks == base.total_blocks
        assert slowed.n_assignments == base.n_assignments
        assert np.array_equal(slowed.per_worker_blocks, base.per_worker_blocks)
        assert slowed.makespan == 2.0 * base.makespan

    def test_partial_slowdown_delays_completion(self, small_platform):
        base = simulate(
            _make("DynamicOuter", collect_ids=True), small_platform, schedule=EMPTY, rng=5
        )
        slowdowns = (Slowdown(3, 0.0, base.makespan * 100.0, 50.0),)
        slowed = simulate(
            _make("DynamicOuter", collect_ids=True),
            small_platform,
            schedule=FaultSchedule(slowdowns=slowdowns),
            rng=5,
        )
        assert slowed.makespan > base.makespan


class TestPolicies:
    def test_heartbeat_fires_on_straggler(self, small_platform):
        base = simulate(
            _make("DynamicOuter", collect_ids=True), small_platform, schedule=EMPTY, rng=5
        )
        slowdowns = (Slowdown(3, 0.0, base.makespan * 1000.0, 50.0),)
        result = simulate(
            _make("DynamicOuter", collect_ids=True),
            small_platform,
            schedule=FaultSchedule(slowdowns=slowdowns),
            policy=HeartbeatTimeout(k=2.0),
            rng=5,
            collect_trace=True,
        )
        stats = result.faults
        assert stats is not None
        assert stats.n_timeouts >= 1
        assert result.trace is not None
        assert len(result.trace.faults_of_kind("timeout")) == stats.n_timeouts
        # Re-issuing the straggler's work beats waiting 50x for it.
        assert result.makespan < 50.0 * base.makespan

    def test_replicate_tail_masks_straggler(self, small_platform):
        base = simulate(
            _make("DynamicOuter", collect_ids=True), small_platform, schedule=EMPTY, rng=5
        )
        slowdowns = (Slowdown(3, 0.0, base.makespan * 1000.0, 50.0),)
        result = simulate(
            _make("DynamicOuter", collect_ids=True),
            small_platform,
            schedule=FaultSchedule(slowdowns=slowdowns),
            policy=ReplicateTail(beta=1.0),
            rng=5,
            collect_trace=True,
        )
        stats = result.faults
        assert stats is not None
        assert stats.replicated_tasks >= 1
        assert result.trace is not None
        assert len(result.trace.faults_of_kind("replicate")) >= 1
        assert result.makespan < 50.0 * base.makespan


class TestDeterminism:
    @pytest.mark.parametrize("name", ["DynamicOuter", "RandomOuter", "DynamicMatrix"])
    def test_same_seed_same_result(self, name):
        platform = Platform(uniform_speeds(8, 10, 100, rng=9))
        schedule = FaultSchedule.draw(
            8, 2.0, rng=17, crash_rate=3.0, mean_downtime=0.05, loss_prob=0.02
        )
        runs = [
            simulate(
                _make(name, collect_ids=True), platform, schedule=schedule, rng=77
            )
            for _ in range(2)
        ]
        _assert_identical(runs[0], runs[1])
        assert runs[0].faults == runs[1].faults

    def test_churn_run_all_strategies_terminate(self):
        platform = Platform(uniform_speeds(6, 10, 100, rng=3))
        schedule = FaultSchedule.draw(6, 2.0, rng=4, crash_rate=2.0, mean_downtime=0.05)
        for name in strategy_names():
            result = simulate(
                _make(name, collect_ids=True), platform, schedule=schedule, rng=11
            )
            assert result.faults is not None
            assert result.faults.n_restarts <= result.faults.n_crashes


class _InOrder(Strategy):
    """One task per request, in id order; released tasks go out first."""

    name = "InOrder"
    kernel = "outer"

    def _setup(self):
        self._queue = collections.deque(range(self.total_tasks))

    @property
    def total_tasks(self):
        return self.n * self.n

    @property
    def done(self):
        return not self._queue

    def assign(self, worker, now):
        return Assignment(2, 1, 1, np.array([self._queue.popleft()], dtype=np.int64))

    def release_tasks(self, task_ids):
        self._queue.extendleft(reversed(task_ids.tolist()))

    def forget_worker(self, worker):
        pass


def _counting(policy_type):
    """*policy_type* recording ``(now, n_completed, set flags)`` at every tail call."""

    class Counting(policy_type):
        def reset(self, strategy, platform):
            super().reset(strategy, platform)
            self.seen = []

        def tail_replicas(self, worker, now, inflight, completed, n_completed):
            self.seen.append((now, n_completed, int(np.count_nonzero(completed))))
            return super().tail_replicas(worker, now, inflight, completed, n_completed)

    return Counting


class TestCompletionTracking:
    """One-task assignments finishing twice: one first completion, one duplicate."""

    def test_one_task_replica_completes_twice(self):
        # Task 3 starts on worker 0 at t=1; at t=2 worker 1 replicates it,
        # worker 0 completes it first, and the replica finishes it again at
        # t=3 while task 2 (replicated by worker 0) is still outstanding.
        platform = Platform([1.0, 1.0, 1.0])
        slowdowns = (Slowdown(1, 0.0, 0.5, 2.0), Slowdown(2, 0.0, 0.5, 10.0))
        policy = _counting(ReplicateTail)(beta=float(np.log(2.0)))
        result = simulate(
            _InOrder(2, collect_ids=True),
            platform,
            schedule=FaultSchedule(slowdowns=slowdowns),
            policy=policy,
            rng=0,
        )
        stats = result.faults
        assert stats is not None
        assert policy.threshold == 2
        assert stats.replicated_tasks == 2
        assert stats.duplicate_completions == 1
        assert policy.seen == [(2.0, 2, 2), (2.0, 3, 3), (3.0, 3, 3)]
        assert result.makespan == 3.0  # task 2's replica, the last first completion

    def test_timed_out_one_task_assignment_completes_twice(self):
        # Task 1 straggles on worker 1 (due at t=3, deadline t=2); the
        # timeout releases it, worker 0 re-executes it, and both copies
        # finish at t=3, the straggler's first.
        platform = Platform([1.0, 1.0])
        policy = _counting(HeartbeatTimeout)(k=2.0, backoff=1.0)
        result = simulate(
            _InOrder(3, collect_ids=True),
            platform,
            schedule=FaultSchedule(slowdowns=(Slowdown(1, 0.0, 0.5, 3.0),)),
            policy=policy,
            rng=0,
        )
        stats = result.faults
        assert stats is not None
        assert (stats.n_timeouts, stats.released_tasks) == (1, 1)
        assert stats.duplicate_completions == 1
        assert stats.reexecuted_tasks == 1
        assert int(result.per_worker_tasks.sum()) == 9 + 1
        # The last two tasks go out at t=5; the first to finish, at t=6,
        # finds eight tasks completed once each.
        assert policy.seen == [(6.0, 8, 8)]
