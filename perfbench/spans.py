"""Timing wrappers around the program's layer boundaries, for the traced run.

:func:`install` replaces each public call named in :data:`TARGETS` with a
wrapper that records one span per call: ``(span, parent, name, start, end,
id, extra)``.  The id is the cell fingerprint or the request number that
caused the span; ``extra`` carries the counts measured at that boundary
(events simulated, replicates, hit or miss, bytes written).  Spans stay in
memory and :meth:`Tracer.dump` writes them as JSONL when the process ends.

A call made while a span of the same layer is open (an analysis function
calling another one) records no span of its own, so a layer's busy time is
never counted twice.  Coroutines record spans without parents, because
asyncio interleaves them on one thread.

Only modules that are already imported are instrumented: wrapping never
imports part of the program the workload would not have loaded.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, Optional[int], str, float, float, Any, Optional[Dict[str, Any]]]


def _cell_id(args: Sequence[Any], kwargs: Dict[str, Any]) -> Optional[str]:
    from repro.store.cells import replicate_cell_key
    from repro.store.fingerprint import fingerprint

    key = replicate_cell_key(
        strategy_factory=args[0],
        platform_factory=args[1],
        n=args[2],
        reps=args[3],
        seed=kwargs.get("seed", 0),
        metrics=kwargs.get("sink") is not None,
    )
    return None if key is None else fingerprint(key)


def _batch_extra(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"replicates": len(result), "events": sum(r.n_assignments for r in result)}


def _run_extra(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"events": result.n_assignments}


def _csv_extra(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"bytes": os.path.getsize(result)}


def _get_extra(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"hit": bool(result)}


def _claim_extra(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"won": bool(result)}


def _status_extra(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"status": result.status}


def _pop_extra(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"fps": [job.cell.fingerprint() for job in result]}


def _cells_extra(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"cells": len(args[0])}


#: (layer, span name, module, attribute path, id function, extra function)
TARGETS: List[Tuple[str, str, str, str, Optional[Callable[..., Any]], Optional[Callable[..., Any]]]] = [
    ("figures", "figures.generate", "repro.experiments.figures", "generate", None, None),
    ("runner", "runner.cell", "repro.experiments.runner", "average_normalized_comm", _cell_id, None),
    ("runner", "runner.analysis", "repro.experiments.runner", "mean_analysis_ratio", None, None),
    ("analysis", "analysis", "repro.core.analysis.outer", "optimal_outer_beta", None, None),
    ("analysis", "analysis", "repro.core.analysis.outer", "outer_total_ratio", None, None),
    ("analysis", "analysis", "repro.core.analysis.matrix", "optimal_matrix_beta", None, None),
    ("analysis", "analysis", "repro.core.analysis.matrix", "matrix_total_ratio", None, None),
    ("analysis", "analysis", "repro.core.analysis.beta", "agnostic_beta", None, None),
    ("analysis", "analysis", "repro.core.analysis.lower_bounds", "lower_bound", None, None),
    ("engine", "engine.vector", "repro.simulator.batch", "simulate_batch", None, _batch_extra),
    ("engine", "engine.scalar", "repro.simulator.engine", "simulate", None, _run_extra),
    ("engine", "engine.faulty", "repro.faults.engine", "simulate_faulty", None, _run_extra),
    ("store", "store.get", "repro.store.cache", "ResultStore.get", None, _get_extra),
    ("store", "store.put", "repro.store.cache", "ResultStore.put", None, None),
    # A presence probe is a lookup too: it counts in store.get.* and the hit ratio.
    ("store", "store.get", "repro.store.cache", "ResultStore.has_fingerprint", None, _get_extra),
    ("io", "io.csv", "repro.experiments.io", "write_csv", None, _csv_extra),
    ("serve.parse", "serve.parse", "repro.serve.protocol", "CellSpec.parse", None, None),
    ("serve.parse", "serve.parse", "repro.serve.protocol", "AnalyticalQuery.parse", None, None),
    ("serve.analytical", "serve.analytical", "repro.serve.protocol", "AnalyticalQuery.evaluate", None, None),
    ("serve.request", "serve.request", "repro.serve.service", "SweepService._dispatch",
     lambda a, k: a[3], None),
    ("serve.submit", "serve.submit", "repro.serve.queueing", "SimulationLane.submit",
     lambda a, k: a[1].fingerprint(), _status_extra),
    ("serve.acquire", "serve.acquire", "repro.serve.queueing", "SimulationLane._acquire_claim",
     lambda a, k: a[2], None),
    ("serve.pop", "serve.pop", "repro.serve.queueing", "SimulationLane._pop_batch", None, _pop_extra),
    ("serve.compute", "serve.compute", "repro.experiments.parallel", "run_cells", None, _cells_extra),
    ("claims", "claims.try_claim", "repro.store.claims", "ClaimRegistry.try_claim",
     lambda a, k: a[1], _claim_extra),
    ("claims", "claims.release", "repro.store.claims", "ClaimRegistry.release", lambda a, k: a[1], None),
    ("journal", "journal.append", "repro.store.journal", "Journal.append", None, None),
    ("journal", "journal.append", "repro.store.journal", "Journal.append_many", None, None),
]


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Any, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        ident: Optional[Callable[..., Any]],
        extra: Optional[Callable[..., Any]],
    ) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = next(ids)
                key = ident(args, kwargs) if ident is not None else None
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    spans.append((sid, None, name, start, clock(), key, None))
                    raise
                end = clock()
                info = extra(args, kwargs, result) if extra is not None else None
                spans.append((sid, None, name, start, end, key, info))
                return result

            return async_wrapper

        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else None
            if parent is not None and parent[2] == layer:
                return fn(*args, **kwargs)
            sid = next(ids)
            key = ident(args, kwargs) if ident is not None else (parent[1] if parent else None)
            stack.append((sid, key, layer))
            parent_id = parent[0] if parent else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent_id, name, start, clock(), key, None))
                raise
            end = clock()
            stack.pop()
            info = extra(args, kwargs, result) if extra is not None else None
            spans.append((sid, parent_id, name, start, end, key, info))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, key, info in self.spans:
                record = {"span": sid, "parent": parent, "name": name, "start": start,
                          "end": end, "id": key}
                if info:
                    record.update(info)
                fh.write(json.dumps(record) + "\n")


def _swap(obj: Any, attr: str, replace: Callable[[Any], Any]) -> bool:
    raw = inspect.getattr_static(obj, attr)
    if isinstance(raw, classmethod):
        setattr(obj, attr, classmethod(replace(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(obj, attr, staticmethod(replace(raw.__func__)))
    else:
        setattr(obj, attr, replace(raw))
    return True


def install(tracer: Tracer) -> int:
    """Wrap every target whose module is loaded; returns how many were wrapped."""
    wrapped = 0
    for layer, name, module_name, path, ident, extra in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            wrapped += _swap(cls, attr, lambda fn: tracer.wrap(layer, name, fn, ident, extra))
            continue
        original = getattr(module, attr)
        replacement = tracer.wrap(layer, name, original, ident, extra)
        # Rebind every module-level reference, including `from x import f`
        # copies in the calling modules.
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not getattr(mod, "__name__", "").startswith("repro") or namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
        wrapped += 1
    return wrapped


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def load(paths: Iterable[str]) -> List[Dict[str, Any]]:
    """Spans of several processes; ``proc`` tells the files apart."""
    records: List[Dict[str, Any]] = []
    for proc, path in enumerate(paths):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                record["proc"] = proc
                records.append(record)
    return records


def _busy(spans: List[Dict[str, Any]]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _self_time(spans: List[Dict[str, Any]], children: Dict[Tuple[int, int], float]) -> float:
    return sum(s["end"] - s["start"] - children.get((s["proc"], s["span"]), 0.0) for s in spans)


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(records: List[Dict[str, Any]], scale: float) -> Dict[str, float]:
    """Per-layer counts, busy and self times; times are multiplied by *scale*."""
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    children: Dict[Tuple[int, int], float] = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)
        if record["parent"] is not None:
            key = (record["proc"], record["parent"])
            children[key] = children.get(key, 0.0) + record["end"] - record["start"]

    def named(name: str) -> List[Dict[str, Any]]:
        return by_name.get(name, [])

    out: Dict[str, float] = {}
    out["figures.self_s"] = _self_time(named("figures.generate"), children) * scale
    cells = named("runner.cell")
    engine_parents = {(r["proc"], r["parent"]) for r in records if r["name"].startswith("engine.")}
    computed = [c for c in cells if (c["proc"], c["span"]) in engine_parents]
    out["runner.cells"] = float(len(cells))
    out["runner.cell_p50_ms"] = _median_ms([c["end"] - c["start"] for c in computed]) * scale
    out["runner.self_s"] = _self_time(cells, children) * scale
    out["runner.analysis_s"] = _busy(named("runner.analysis")) * scale
    out["analysis.calls"] = float(len(named("analysis")))
    out["analysis.busy_s"] = _busy(named("analysis")) * scale
    for engine in ("vector", "scalar", "faulty"):
        runs = named(f"engine.{engine}")
        events = sum(r.get("events", 0) for r in runs)
        busy = _busy(runs) * scale
        out[f"engine.{engine}.calls"] = float(len(runs))
        out[f"engine.{engine}.events"] = float(events)
        out[f"engine.{engine}.busy_s"] = busy
        out[f"engine.{engine}.us_per_event"] = busy * 1e6 / events if events else 0.0
        if engine == "vector":
            out["engine.vector.replicates"] = float(sum(r.get("replicates", 0) for r in runs))
    gets = named("store.get")
    out["store.get.calls"] = float(len(gets))
    out["store.get.busy_s"] = _busy(gets) * scale
    out["store.put.calls"] = float(len(named("store.put")))
    out["store.put.busy_s"] = _busy(named("store.put")) * scale
    out["store.hit_ratio"] = sum(1 for g in gets if g.get("hit")) / len(gets) if gets else 0.0
    out["io.csv.busy_s"] = _busy(named("io.csv")) * scale
    out["io.csv.bytes"] = float(sum(r.get("bytes", 0) for r in named("io.csv")))
    out["serve.parse.busy_s"] = _busy(named("serve.parse")) * scale
    out["serve.analytical.busy_s"] = _busy(named("serve.analytical")) * scale

    submits = named("serve.submit")
    out["serve.submit.calls"] = float(len(submits))
    statuses = [s.get("status") for s in submits]
    ran = statuses.count("computed") + statuses.count("coalesced")
    out["serve.coalesced_ratio"] = statuses.count("coalesced") / ran if ran else 0.0
    popped: Dict[Tuple[int, str], float] = {}
    for pop in named("serve.pop"):
        for fp in pop.get("fps", []):
            popped.setdefault((pop["proc"], fp), pop["start"])
    acquired: Dict[Tuple[int, str], float] = {}
    for acq in named("serve.acquire"):
        acquired[(acq["proc"], acq["id"])] = acq["end"]
    wait = 0.0
    for sub in submits:
        if sub.get("status") != "computed":
            continue
        key = (sub["proc"], sub["id"])
        if key in popped:
            wait += max(0.0, popped[key] - max(sub["start"], acquired.get(key, sub["start"])))
    out["serve.queue_wait_s"] = wait * scale
    batches = named("serve.compute")
    out["serve.compute.busy_s"] = _busy(batches) * scale
    out["serve.compute.batches"] = float(len(batches))
    out["serve.batch_cells_mean"] = (
        sum(b.get("cells", 0) for b in batches) / len(batches) if batches else 0.0
    )
    claims = named("claims.try_claim")
    out["claims.calls"] = float(len(claims) + len(named("claims.release")))
    out["claims.lost"] = float(sum(1 for c in claims if not c.get("won")))
    claim_wait = _busy(named("serve.acquire"))
    out["claims.wait_s"] = claim_wait * scale
    submit_busy = _busy(submits)
    out["claims.wait_share"] = claim_wait / submit_busy if submit_busy else 0.0
    appends = named("journal.append")
    out["journal.append.calls"] = float(len(appends))
    out["journal.append.busy_s"] = _busy(appends) * scale
    return out


def request_spans(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Server-side duration of each ``serve.request`` span, keyed by request id."""
    return {r["id"]: r["end"] - r["start"] for r in records if r["name"] == "serve.request"}
