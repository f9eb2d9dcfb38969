"""Observability layer: deterministic metrics, sinks, exporters, reports.

The subsystem that turns every simulation into a self-describing run
report:

* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms
  keyed by ``(strategy, worker, phase)``, simulated time only;
* :mod:`repro.obs.sink` — the engines' hook contract
  (:class:`MetricsSink`) and the accumulating :class:`RecordingSink`;
* :mod:`repro.obs.export` — JSON-lines event streams plus CSV/JSON metric
  summaries, all exact round-trips;
* :mod:`repro.obs.report` — normalized-communication run reports (the
  ``repro-report`` CLI);
* :mod:`repro.obs.profile` — wall-clock stage profiling for the bench
  harness; the single module allowed to read the clock (A-TAINT).
"""

from __future__ import annotations

from repro.obs.export import (
    events_from_jsonl,
    events_to_jsonl,
    load_summary,
    metrics_from_csv,
    metrics_from_json,
    metrics_to_csv,
    metrics_to_json,
    save_summary,
    summary_from_sink,
    summary_to_json,
)
from repro.obs.metrics import (
    ALL_PHASES,
    ALL_WORKERS,
    TASK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricKey,
    Metrics,
)
from repro.obs.profile import StageProfiler, wall_time
from repro.obs.report import build_report, render_report
from repro.obs.sink import MetricsSink, NullSink, RecordingSink

__all__ = [
    "ALL_PHASES",
    "ALL_WORKERS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricKey",
    "Metrics",
    "MetricsSink",
    "NullSink",
    "RecordingSink",
    "StageProfiler",
    "TASK_BUCKETS",
    "build_report",
    "events_from_jsonl",
    "events_to_jsonl",
    "load_summary",
    "metrics_from_csv",
    "metrics_from_json",
    "metrics_to_csv",
    "metrics_to_json",
    "render_report",
    "save_summary",
    "summary_from_sink",
    "summary_to_json",
    "wall_time",
]
