"""Metric sinks: the engines' observability hooks.

The simulation engine (:func:`repro.simulator.simulate`, fault-aware or
not) and the replicate runner accept an optional :class:`MetricsSink`.  The
default is *no sink at all* — the hot loop performs a single ``is not None``
test per event and nothing else, so instrumentation costs nothing when
disabled.  :class:`NullSink` is the explicit no-op for callers that want to
pass "a sink that drops everything";
:class:`RecordingSink` accumulates :class:`~repro.obs.metrics.Metrics` and,
optionally, a JSON-ready event stream.

Hooks receive *simulated* time only; the sink never reads a clock.  All
hook arguments are plain scalars so sinks stay decoupled from the strategy
and platform classes (and snapshots stay picklable for the parallel
replicate runner).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.metrics import ALL_PHASES, ALL_WORKERS, Metrics, TASK_BUCKETS

__all__ = ["MetricsSink", "NullSink", "RecordingSink", "STORE_EVENTS"]

#: Events the result-store layer may forward through ``on_store_event``:
#: cache traffic (``hit``/``miss``/``put``/``corrupt`` with the entry kind),
#: claim-file lifecycle (``claim``/``steal``/``release`` with kind
#: ``"claim"``) and journal activity (``journal_append``/``journal_corrupt``
#: with kind ``"journal"``).
STORE_EVENTS = ("hit", "miss", "put", "corrupt", "claim", "steal", "release", "journal_append", "journal_corrupt")


class MetricsSink:
    """Base sink: every hook is a no-op.

    Subclass and override the hooks you care about.  The engines call:

    * :meth:`on_run_start` once, after the strategy is reset;
    * :meth:`on_assignment` once per master/worker interaction (including
      zero-task index shipments, lost allocations — with ``duration`` 0 —
      and tail replicas);
    * :meth:`on_fault` once per fault/recovery event of a fault-aware run
      (kinds follow :data:`repro.simulator.trace.FAULT_KINDS`);
    * :meth:`on_run_end` once, just before the result is returned.

    :meth:`snapshot`/:meth:`absorb_snapshot` are the replicate-runner
    contract: a repetition's sink is snapshotted to a picklable dict in the
    worker process and absorbed by the caller's sink in repetition order.
    """

    def on_run_start(
        self,
        strategy: str,
        kernel: str,
        n: int,
        p: int,
        relative_speeds: Sequence[float],
    ) -> None:
        """A run of *strategy* (kernel, size *n*) starts on *p* workers."""

    def on_assignment(
        self, now: float, worker: int, blocks: int, tasks: int, duration: float, phase: int
    ) -> None:
        """The master answered one request at simulated time *now*."""

    def on_fault(self, now: float, kind: str, worker: int, tasks: int, blocks: int) -> None:
        """A fault/recovery event fired at simulated time *now*."""

    def on_run_end(
        self, makespan: float, total_blocks: int, total_tasks: int, n_assignments: int
    ) -> None:
        """The run finished; totals are the result's headline numbers."""

    def on_store_event(self, kind: str, event: str) -> None:
        """The result-store layer looked up/wrote an entry of *kind*.

        *event* is one of :data:`STORE_EVENTS`: cache traffic
        (``hit``/``miss``/``put``/``corrupt``, see
        :class:`repro.store.cache.ResultStore`), claim lifecycle
        (``claim``/``steal``/``release``, see
        :class:`repro.store.claims.ClaimRegistry`) or journal activity
        (``journal_append``/``journal_corrupt``, see
        :class:`repro.store.journal.Journal`).  Unlike the engine hooks
        this fires outside any run, so implementations must not assume a
        current strategy.
        """

    def snapshot(self) -> Dict[str, Any]:
        """Picklable representation of everything accumulated so far."""
        return {}

    def absorb_snapshot(self, raw: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` produced by another sink into this one."""


class NullSink(MetricsSink):
    """The explicit do-nothing sink (identical to passing no sink)."""


class RecordingSink(MetricsSink):
    """Accumulates engine events into :class:`~repro.obs.metrics.Metrics`.

    Metric families recorded, all keyed ``(strategy, worker, phase)`` with
    the :data:`~repro.obs.metrics.ALL_WORKERS` / :data:`~repro.obs.metrics.ALL_PHASES`
    sentinels where a dimension does not apply:

    ==========================  =======================================================
    ``runs`` (counter)          completed runs per strategy
    ``assignments`` (counter)   master/worker interactions, per worker and phase
    ``blocks_shipped`` (counter)  communication volume in blocks, per worker and phase
    ``tasks_allocated`` (counter) allocated tasks, per worker and phase
    ``zero_task_assignments``   index-only shipments (no work allocated)
    ``fault_<kind>`` (counter)  fault events per kind (crash/restart/loss/...)
    ``store_<event>`` (counter) result-store traffic per entry kind, keyed
                                ``(kind, ALL_WORKERS, ALL_PHASES)`` for each
                                of :data:`STORE_EVENTS` (cache hits/misses/
                                puts/corruption, claim/steal/release,
                                journal appends/quarantines)
    ``assignment_tasks`` (hist) per-assignment task counts, fixed power-of-two buckets
    ``makespan`` (gauge)        last run's makespan
    ``phase2_start_time`` (gauge) simulated time of the first phase-2 assignment
    ``idle_gap`` (gauge)        per-worker ``makespan - busy_time`` of the last run
    ==========================  =======================================================

    With ``events=True`` the sink additionally buffers one JSON-ready dict
    per engine event (run start/end, every assignment, phase transitions,
    faults) for the JSON-lines exporter.  Event buffers are per-sink and are
    *not* transferred by :meth:`absorb_snapshot` — replicate sweeps merge
    metrics, not event streams.
    """

    def __init__(self, *, events: bool = False) -> None:
        self.metrics = Metrics()
        self.runs: List[Dict[str, Any]] = []
        self.events: Optional[List[Dict[str, Any]]] = [] if events else None
        self._strategy: Optional[str] = None
        self._busy: List[float] = []
        self._phase2_at: Optional[float] = None
        self._event_index = 0

    # -- internal helpers --------------------------------------------------

    def _require_run(self) -> str:
        if self._strategy is None:
            raise RuntimeError("sink received an event before on_run_start")
        return self._strategy

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.events is not None:
            event["i"] = self._event_index
            self.events.append(event)
        self._event_index += 1

    # -- MetricsSink hooks -------------------------------------------------

    def on_run_start(
        self,
        strategy: str,
        kernel: str,
        n: int,
        p: int,
        relative_speeds: Sequence[float],
    ) -> None:
        self._strategy = strategy
        self._busy = [0.0] * p
        self._phase2_at = None
        self.runs.append(
            {
                "strategy": strategy,
                "kernel": kernel,
                "n": int(n),
                "p": int(p),
                "relative_speeds": [float(s) for s in relative_speeds],
            }
        )
        self._emit(
            {"event": "run_start", "strategy": strategy, "kernel": kernel, "n": int(n), "p": int(p)}
        )

    def on_assignment(
        self, now: float, worker: int, blocks: int, tasks: int, duration: float, phase: int
    ) -> None:
        strategy = self._require_run()
        key = (strategy, worker, phase)
        metrics = self.metrics
        metrics.counter("assignments").inc(key)
        if blocks:
            metrics.counter("blocks_shipped").inc(key, blocks)
        if tasks:
            metrics.counter("tasks_allocated").inc(key, tasks)
        else:
            metrics.counter("zero_task_assignments").inc(key)
        metrics.histogram("assignment_tasks", TASK_BUCKETS).observe(key, tasks)
        self._busy[worker] += duration
        if phase == 2 and self._phase2_at is None:
            self._phase2_at = now
            metrics.gauge("phase2_start_time").set((strategy, ALL_WORKERS, 2), now)
            self._emit({"event": "phase_transition", "t": now, "worker": worker, "phase": 2})
        self._emit(
            {
                "event": "assignment",
                "t": now,
                "worker": worker,
                "blocks": blocks,
                "tasks": tasks,
                "duration": duration,
                "phase": phase,
            }
        )

    def on_fault(self, now: float, kind: str, worker: int, tasks: int, blocks: int) -> None:
        strategy = self._require_run()
        self.metrics.counter(f"fault_{kind}").inc((strategy, worker, ALL_PHASES))
        self._emit(
            {
                "event": "fault",
                "t": now,
                "kind": kind,
                "worker": worker,
                "tasks": tasks,
                "blocks": blocks,
            }
        )

    def on_store_event(self, kind: str, event: str) -> None:
        """Count store traffic as ``store_<event>`` keyed by entry kind."""
        if event not in STORE_EVENTS:
            raise ValueError(f"unknown store event {event!r}")
        self.metrics.counter(f"store_{event}").inc((str(kind), ALL_WORKERS, ALL_PHASES))

    def on_run_end(
        self, makespan: float, total_blocks: int, total_tasks: int, n_assignments: int
    ) -> None:
        strategy = self._require_run()
        metrics = self.metrics
        metrics.counter("runs").inc((strategy, ALL_WORKERS, ALL_PHASES))
        metrics.gauge("makespan").set((strategy, ALL_WORKERS, ALL_PHASES), makespan)
        for worker, busy in enumerate(self._busy):
            metrics.gauge("idle_gap").set(
                (strategy, worker, ALL_PHASES), max(0.0, makespan - busy)
            )
        run = self.runs[-1]
        run["makespan"] = makespan
        run["total_blocks"] = int(total_blocks)
        run["total_tasks"] = int(total_tasks)
        run["n_assignments"] = int(n_assignments)
        self._emit(
            {
                "event": "run_end",
                "t": makespan,
                "blocks": int(total_blocks),
                "tasks": int(total_tasks),
                "assignments": int(n_assignments),
            }
        )
        self._strategy = None

    # -- replicate-runner contract -----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Runs metadata plus metrics, as a picklable/JSON-ready dict."""
        return {"runs": [dict(r) for r in self.runs], "metrics": self.metrics.to_dict()}

    def absorb_snapshot(self, raw: Mapping[str, Any]) -> None:
        """Merge another sink's snapshot (metrics add, run metas append)."""
        self.runs.extend(dict(r) for r in raw.get("runs", []))
        self.metrics.merge(Metrics.from_dict(raw.get("metrics", {})))
