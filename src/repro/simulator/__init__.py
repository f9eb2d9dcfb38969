"""Event-driven master–worker simulator.

This is the paper's "ad-hoc event based simulation tool, where processors
request new tasks as soon as they are available, and tasks are allocated
based on the given runtime dynamic strategy" (Section 3.4), rebuilt as a
documented library:

* :class:`~repro.simulator.events.EventQueue` — a deterministic min-heap of
  worker-ready events (FIFO among equal timestamps);
* :func:`~repro.simulator.engine.simulate` — the demand-driven loop: pop the
  next ready worker, ask the strategy for an assignment, account the shipped
  blocks, advance the worker by the assignment's duration; given a
  :mod:`repro.faults` schedule, the same loop also runs crashes, restarts,
  lost messages and heartbeat timeouts;
* :class:`~repro.simulator.results.SimulationResult` — total/per-worker
  communication, task counts, makespan, and the optional event trace.

Communication is counted in *blocks shipped* and never consumes time: the
paper assumes communication is fully overlapped with computation (blocks are
uploaded slightly in advance), so only the volume matters.
"""

from repro.simulator.batch import has_vector_kernel, simulate_batch, simulate_sweep
from repro.simulator.engine import FaultDeadlockError, LivelockError, simulate
from repro.simulator.events import EventQueue
from repro.simulator.gantt import ascii_gantt, utilization, worker_intervals
from repro.simulator.results import FaultStats, SimulationResult
from repro.simulator.serialize import (
    load_result,
    result_from_json,
    result_to_json,
    save_result,
)
from repro.simulator.trace import AssignmentRecord, FaultRecord, Trace

__all__ = [
    "simulate",
    "simulate_batch",
    "simulate_sweep",
    "has_vector_kernel",
    "LivelockError",
    "FaultDeadlockError",
    "EventQueue",
    "SimulationResult",
    "FaultStats",
    "Trace",
    "AssignmentRecord",
    "FaultRecord",
    "ascii_gantt",
    "utilization",
    "worker_intervals",
    "result_to_json",
    "result_from_json",
    "save_result",
    "load_result",
]
