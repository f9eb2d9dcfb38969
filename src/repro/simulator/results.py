"""Aggregate outcome of one simulation run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.simulator.trace import Trace

__all__ = ["FaultStats", "SimulationResult"]


@dataclass(frozen=True)
class FaultStats:
    """Fault/recovery accounting of one fault-aware simulation run.

    Produced by :func:`repro.simulator.simulate` when given a fault
    ``schedule``; all counters are zero for an empty schedule.

    Attributes
    ----------
    n_crashes / n_restarts:
        Crash and restart events that actually fired during the run.
    n_lost_assignments:
        Assignments whose allocation message was lost in transit.
    n_timeouts:
        Heartbeat deadlines that fired and released an in-flight assignment.
    wasted_blocks:
        Blocks shipped with assignments that never completed (crashed
        worker or lost allocation message).
    lost_cache_blocks:
        Cached blocks destroyed by crashes — the master's re-shipping
        exposure (an upper bound on the blocks that must travel again).
    released_tasks:
        Task allocations returned to the pool by recovery (a task released
        twice counts twice).
    reexecuted_tasks:
        Extra allocations caused by recovery: total allocated task count
        minus the kernel's task count.
    replicated_tasks:
        Duplicate tail tasks issued by a replicating policy.
    duplicate_completions:
        Task completions beyond the first (stragglers finishing after their
        work was re-issued or replicated), counted up to the run's last
        first-completion — copies still in flight when the run ends are not
        waited for.
    """

    n_crashes: int = 0
    n_restarts: int = 0
    n_lost_assignments: int = 0
    n_timeouts: int = 0
    wasted_blocks: int = 0
    lost_cache_blocks: int = 0
    released_tasks: int = 0
    reexecuted_tasks: int = 0
    replicated_tasks: int = 0
    duplicate_completions: int = 0

    @property
    def any_faults(self) -> bool:
        """True when at least one fault event fired during the run."""
        return bool(self.n_crashes or self.n_lost_assignments or self.n_timeouts)


@dataclass(frozen=True)
class SimulationResult:
    """What one run of :func:`repro.simulator.simulate` produced.

    Attributes
    ----------
    total_blocks:
        Total communication volume in blocks (the paper's metric).
    per_worker_blocks:
        Blocks shipped to each worker.
    per_worker_tasks:
        Block tasks processed by each worker.
    makespan:
        Time at which the last task completes.
    n_assignments:
        Number of master/worker interactions.
    strategy_name:
        Name of the strategy that produced the run.
    trace:
        Full assignment trace when requested, else ``None``.
    faults:
        Fault/recovery accounting of a run given a fault ``schedule``,
        else ``None``.
    """

    total_blocks: int
    per_worker_blocks: np.ndarray
    per_worker_tasks: np.ndarray
    makespan: float
    n_assignments: int
    strategy_name: str
    trace: Optional[Trace] = None
    faults: Optional[FaultStats] = None

    @property
    def total_tasks(self) -> int:
        """Total number of block tasks processed."""
        return int(self.per_worker_tasks.sum())

    def normalized(self, lower_bound: float) -> float:
        """Communication volume divided by a lower bound (paper's y-axis)."""
        if lower_bound <= 0:
            raise ValueError(f"lower bound must be positive, got {lower_bound}")
        return self.total_blocks / lower_bound

    def load_imbalance(self, relative_speeds: np.ndarray) -> float:
        """Max relative deviation of per-worker work from the speed-ideal.

        Demand-driven allocation should keep every worker busy until (close
        to) the end; this measures how far the realized task shares are from
        the relative speeds.
        """
        rel = np.asarray(relative_speeds, dtype=float)
        ideal = rel * self.total_tasks
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(self.per_worker_tasks - ideal) / np.maximum(ideal, 1.0)
        return float(dev.max())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult({self.strategy_name}: blocks={self.total_blocks}, "
            f"tasks={self.total_tasks}, makespan={self.makespan:.4g})"
        )
