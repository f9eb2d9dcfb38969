"""Property-based tests of the fault path's correctness contract.

Acceptance criterion of the fault subsystem: under any crash schedule with
eventual worker availability, every task is completed exactly once (the
engine's first-completion bitmap), re-executions are tracked separately,
and the run is a pure function of ``(config, seed)``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies.registry import make_strategy
from repro.faults import FaultSchedule
from repro.platform import Platform
from repro.simulator import simulate

STRATEGY_NAMES = ("DynamicOuter", "RandomOuter", "DynamicOuter2Phases", "DynamicMatrix")

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run(name: str, schedule_seed: int, run_seed: int, crash_rate: float, loss_prob: float):
    platform = Platform([1.0, 2.0, 3.0, 4.0])
    n = 4 if "Matrix" in name else 6
    schedule = FaultSchedule.draw(
        4,
        5.0,
        rng=schedule_seed,
        crash_rate=crash_rate,
        mean_downtime=0.1,
        loss_prob=loss_prob,
    )
    strategy = make_strategy(name, n, collect_ids=True)
    result = simulate(
        strategy, platform, schedule=schedule, rng=run_seed, collect_trace=True
    )
    return strategy, result


@given(
    name=st.sampled_from(STRATEGY_NAMES),
    schedule_seed=st.integers(0, 2**16),
    run_seed=st.integers(0, 2**16),
    crash_rate=st.floats(0.5, 6.0),
    loss_prob=st.floats(0.0, 0.2),
)
@_SETTINGS
def test_every_task_allocated_and_run_terminates(
    name, schedule_seed, run_seed, crash_rate, loss_prob
):
    strategy, result = _run(name, schedule_seed, run_seed, crash_rate, loss_prob)
    total = strategy.total_tasks
    # Termination is implicit (the call returned).  Coverage: the union of
    # all allocated task ids spans the whole kernel — nothing fell through a
    # crash, a lost message, or a release.
    assert result.trace is not None
    allocated = np.unique(result.trace.all_task_ids())
    assert np.array_equal(allocated, np.arange(total))
    assert result.makespan > 0.0


@given(
    name=st.sampled_from(STRATEGY_NAMES),
    schedule_seed=st.integers(0, 2**16),
    run_seed=st.integers(0, 2**16),
    crash_rate=st.floats(0.5, 6.0),
)
@_SETTINGS
def test_counter_consistency_under_crashes(name, schedule_seed, run_seed, crash_rate):
    strategy, result = _run(name, schedule_seed, run_seed, crash_rate, 0.0)
    stats = result.faults
    assert stats is not None
    assert stats.n_restarts <= stats.n_crashes
    assert stats.n_lost_assignments == 0
    # Crash-only schedules: a released task sits in the pool until it is
    # re-allocated exactly once, and the dead copy never completes — so
    # re-executions match releases one for one and no duplicates arise.
    assert stats.reexecuted_tasks == stats.released_tasks
    assert stats.duplicate_completions == 0
    assert stats.wasted_blocks >= 0
    assert stats.lost_cache_blocks >= 0
    # Every executed task beyond the kernel's total is a tracked re-execution.
    assert result.total_tasks == strategy.total_tasks + stats.reexecuted_tasks


@given(
    name=st.sampled_from(STRATEGY_NAMES),
    schedule_seed=st.integers(0, 2**12),
    run_seed=st.integers(0, 2**12),
)
@_SETTINGS
def test_determinism(name, schedule_seed, run_seed):
    _, a = _run(name, schedule_seed, run_seed, 3.0, 0.05)
    _, b = _run(name, schedule_seed, run_seed, 3.0, 0.05)
    assert a.total_blocks == b.total_blocks
    assert a.makespan == b.makespan
    assert a.faults == b.faults
    assert np.array_equal(a.per_worker_blocks, b.per_worker_blocks)
