"""Deterministic fault models: crashes, slowdowns and lost assignments.

The paper's platforms are unreliable in speed only (Figure 8's ``dyn.*``
scenarios); this module adds the orthogonal failure axis — workers that
disappear, straggle or lose messages — while preserving the repo's core
contract: *a run is a pure function of (config, seed)*.

All fault events are **pre-drawn**: :meth:`FaultSchedule.draw` materializes
the full schedule from its own RNG stream before the simulation starts, so
the fault process never interleaves with the strategy's draws.  Two
consequences:

* a run under an empty schedule is bit-identical to the fault-free
  :func:`repro.simulator.simulate` run (nothing extra is drawn from the run
  RNG);
* worker ``w``'s fault stream is drawn from the ``w``-th spawned child of
  the schedule seed, so it depends only on ``(seed, w)`` — adding workers to
  a platform never perturbs the faults injected into existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.utils.rng import SeedLike, as_generator, spawn_seed_sequences
from repro.utils.validation import (
    check_nonnegative,
    check_nonnegative_int,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = ["WorkerCrash", "Slowdown", "AssignmentLoss", "FaultSchedule"]

#: Floor applied to drawn downtimes/durations so intervals are never empty.
_MIN_INTERVAL = 1e-9


@dataclass(frozen=True)
class WorkerCrash:
    """Worker *worker* crashes at *time* and restarts after *downtime*.

    A crash destroys the worker's memory: its in-flight tasks are lost and
    every block it cached must be re-shipped if needed again.  The restart
    at ``time + downtime`` rejoins the worker with a cold cache.
    """

    worker: int
    time: float
    downtime: float

    def __post_init__(self) -> None:
        check_nonnegative_int("worker", self.worker)
        check_nonnegative("time", self.time)
        check_positive("downtime", self.downtime)

    @property
    def restart_time(self) -> float:
        return self.time + self.downtime


@dataclass(frozen=True)
class Slowdown:
    """Transient straggler window: assignments issued to *worker* while
    ``start <= t < start + duration`` take *factor* times their nominal
    compute time.

    The factor applies to the whole assignment whose issue time falls in the
    window (the granularity at which the master observes progress), not to
    the overlapped fraction — a deliberate simplification that keeps the
    schedule pre-drawable.
    """

    worker: int
    start: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        check_nonnegative_int("worker", self.worker)
        check_nonnegative("start", self.start)
        check_positive("duration", self.duration)
        factor = check_positive("factor", self.factor)
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class AssignmentLoss:
    """The *request_index*-th assignment issued to *worker* is lost in
    transit.

    The data blocks still arrive (the master's knowledge of the worker's
    cache stays consistent) but the task-allocation message does not: the
    tasks return to the pool, and the worker re-requests work after the
    assignment's nominal compute time elapses unanswered.
    """

    worker: int
    request_index: int

    def __post_init__(self) -> None:
        check_nonnegative_int("worker", self.worker)
        check_nonnegative_int("request_index", self.request_index)


@dataclass(frozen=True)
class FaultSchedule:
    """Immutable, fully pre-drawn set of fault events for one run.

    Build one with :meth:`draw` (seed-driven) or construct directly from
    event lists for hand-crafted scenarios and tests.  Events are normalized
    to tuples sorted by worker and time, so two schedules with the same
    events compare equal regardless of construction order.  A worker's
    crashes must not overlap: each comes strictly after the previous
    restart.
    """

    crashes: Tuple[WorkerCrash, ...] = field(default_factory=tuple)
    slowdowns: Tuple[Slowdown, ...] = field(default_factory=tuple)
    losses: Tuple[AssignmentLoss, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "crashes", tuple(sorted(self.crashes, key=lambda c: (c.worker, c.time)))
        )
        object.__setattr__(
            self,
            "slowdowns",
            tuple(sorted(self.slowdowns, key=lambda s: (s.worker, s.start))),
        )
        object.__setattr__(
            self,
            "losses",
            tuple(sorted(self.losses, key=lambda x: (x.worker, x.request_index))),
        )
        prev: Dict[int, WorkerCrash] = {}
        for crash in self.crashes:
            earlier = prev.get(crash.worker)
            # A crash at the restart instant would pop before the queued
            # restart, so a worker's next crash must come strictly later.
            if earlier is not None and crash.time <= earlier.restart_time:
                raise ValueError(
                    f"worker {crash.worker} crashes at t={crash.time} while "
                    f"already down (until t={earlier.restart_time})"
                )
            prev[crash.worker] = crash
        seen = set()
        for loss in self.losses:
            key = (loss.worker, loss.request_index)
            if key in seen:
                raise ValueError(
                    f"duplicate assignment loss for worker {loss.worker}, "
                    f"request {loss.request_index}"
                )
            seen.add(key)

    # -- introspection -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the schedule injects no fault at all."""
        return not (self.crashes or self.slowdowns or self.losses)

    @property
    def max_worker(self) -> int:
        """Largest worker id referenced by any event (``-1`` when empty)."""
        ids = [c.worker for c in self.crashes]
        ids += [s.worker for s in self.slowdowns]
        ids += [x.worker for x in self.losses]
        return max(ids) if ids else -1

    def __len__(self) -> int:
        return len(self.crashes) + len(self.slowdowns) + len(self.losses)

    def cache_token(self) -> List[object]:
        """Canonical description for the result cache (:mod:`repro.store`).

        The schedule is fully pre-drawn, so listing every event captures it
        exactly; two schedules with equal tokens inject identical faults.
        """
        return [
            "fault-schedule",
            [[c.worker, c.time, c.downtime] for c in self.crashes],
            [[s.worker, s.start, s.duration, s.factor] for s in self.slowdowns],
            [[x.worker, x.request_index] for x in self.losses],
        ]

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "FaultSchedule":
        """The fault-free schedule (the run matches one without a schedule)."""
        return cls()

    @classmethod
    def draw(
        cls,
        p: int,
        horizon: float,
        *,
        rng: SeedLike = None,
        crash_rate: float = 0.0,
        mean_downtime: float = 1.0,
        slowdown_rate: float = 0.0,
        slowdown_factor: float = 3.0,
        mean_slowdown: float = 1.0,
        loss_prob: float = 0.0,
        max_requests: int = 100_000,
    ) -> "FaultSchedule":
        """Pre-draw a schedule for *p* workers over ``[0, horizon)``.

        Crashes and slowdown windows follow independent per-worker renewal
        processes with exponential inter-event gaps (rates per simulated
        time unit); no crash is drawn while the worker is already down.
        Assignment losses are Bernoulli(*loss_prob*) per issued assignment,
        pre-drawn as geometric gaps over the first *max_requests* request
        indices.

        Worker ``w``'s events come from the ``w``-th spawned child of *rng*
        (see :func:`repro.utils.rng.spawn_seed_sequences`), so they are
        invariant under changes of *p*.
        """
        p = check_positive_int("p", p)
        horizon = check_positive("horizon", horizon)
        crash_rate = check_nonnegative("crash_rate", crash_rate)
        mean_downtime = check_positive("mean_downtime", mean_downtime)
        slowdown_rate = check_nonnegative("slowdown_rate", slowdown_rate)
        slowdown_factor = check_positive("slowdown_factor", slowdown_factor)
        if slowdown_factor < 1.0:
            raise ValueError(f"slowdown_factor must be >= 1, got {slowdown_factor}")
        mean_slowdown = check_positive("mean_slowdown", mean_slowdown)
        loss_prob = check_probability("loss_prob", loss_prob)
        max_requests = check_positive_int("max_requests", max_requests)

        crashes: List[WorkerCrash] = []
        slowdowns: List[Slowdown] = []
        losses: List[AssignmentLoss] = []
        for worker, child in enumerate(spawn_seed_sequences(rng, p)):
            gen = as_generator(child)
            # Draw order is fixed (crashes, then slowdowns, then losses) so a
            # worker's stream is a deterministic function of (seed, worker).
            if crash_rate > 0.0:
                t = 0.0
                while True:
                    t += float(gen.exponential(1.0 / crash_rate))
                    if t >= horizon:
                        break
                    downtime = max(float(gen.exponential(mean_downtime)), _MIN_INTERVAL)
                    crashes.append(WorkerCrash(worker, t, downtime))
                    t += downtime
            if slowdown_rate > 0.0 and slowdown_factor > 1.0:
                t = 0.0
                while True:
                    t += float(gen.exponential(1.0 / slowdown_rate))
                    if t >= horizon:
                        break
                    duration = max(float(gen.exponential(mean_slowdown)), _MIN_INTERVAL)
                    slowdowns.append(Slowdown(worker, t, duration, slowdown_factor))
                    t += duration
            if loss_prob > 0.0:
                index = -1
                while True:
                    index += int(gen.geometric(loss_prob))
                    if index >= max_requests:
                        break
                    losses.append(AssignmentLoss(worker, index))
                    if loss_prob >= 1.0:
                        # Every request lost: enumerate instead of looping
                        # one geometric draw per index.
                        losses.extend(
                            AssignmentLoss(worker, i) for i in range(index + 1, max_requests)
                        )
                        break
        return cls(tuple(crashes), tuple(slowdowns), tuple(losses))

    def scaled(self, factor: float) -> "FaultSchedule":
        """A copy with every timestamp/duration multiplied by *factor*.

        Useful to adapt a schedule drawn for one horizon to a problem whose
        makespan is *factor* times longer; request indices are untouched.
        """
        factor = check_positive("factor", factor)
        if not math.isfinite(factor):  # pragma: no cover - check_positive guards
            raise ValueError(f"factor must be finite, got {factor}")
        return FaultSchedule(
            tuple(
                WorkerCrash(c.worker, c.time * factor, c.downtime * factor)
                for c in self.crashes
            ),
            tuple(
                Slowdown(s.worker, s.start * factor, s.duration * factor, s.factor)
                for s in self.slowdowns
            ),
            self.losses,
        )
