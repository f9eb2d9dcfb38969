"""Fault injection and recovery for dynamic schedulers on unreliable platforms.

The paper evaluates dynamic scheduling under *speed* variability (Figure
8); this subsystem adds the orthogonal *availability* axis — crashes,
stragglers and lost messages — while keeping every run a pure function of
``(config, seed)``:

* :mod:`repro.faults.models` — deterministic, pre-drawn fault schedules
  (:class:`WorkerCrash`, :class:`Slowdown`, :class:`AssignmentLoss`,
  :class:`FaultSchedule`);
* :mod:`repro.faults.policies` — recovery policies
  (:class:`ReassignLost`, :class:`HeartbeatTimeout`, :class:`ReplicateTail`).

The events run through the one master–worker loop,
:func:`repro.simulator.simulate`: pass ``schedule=`` (and optionally
``policy=``) to make a run fault-aware.  An empty schedule reproduces the
fault-free run bit for bit, plus a zeroed
:class:`~repro.simulator.results.FaultStats` accounting.
"""

from repro.faults.models import AssignmentLoss, FaultSchedule, Slowdown, WorkerCrash
from repro.faults.policies import (
    HeartbeatTimeout,
    ReassignLost,
    RecoveryPolicy,
    ReplicateTail,
)
from repro.simulator.engine import FaultDeadlockError

__all__ = [
    "FaultDeadlockError",
    "FaultSchedule",
    "WorkerCrash",
    "Slowdown",
    "AssignmentLoss",
    "RecoveryPolicy",
    "ReassignLost",
    "HeartbeatTimeout",
    "ReplicateTail",
]
