"""Caching wrapper around single simulation runs.

Where :mod:`repro.store.cells` caches *aggregated* replicate cells, this
module caches one :class:`~repro.simulator.results.SimulationResult` at a
time — the granularity of ``repro-report run``.  (The churn sweep, flt01,
caches whole crash levels under its own ``churn-cell`` key in
:mod:`repro.experiments.faults`.)  Payloads are the exact JSON documents produced by
:func:`repro.simulator.serialize.result_to_json` (which round-trips traces
and :class:`~repro.simulator.results.FaultStats` losslessly), plus the run's
sink snapshot when metrics were collected.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.core.strategies.registry import make_strategy
from repro.faults.models import FaultSchedule
from repro.obs.sink import MetricsSink, RecordingSink
from repro.platform.platform import Platform
from repro.simulator.engine import simulate
from repro.simulator.results import SimulationResult
from repro.simulator.serialize import result_from_json, result_to_json
from repro.store.cache import ResultStore
from repro.store.fingerprint import ENGINE_VERSION, seed_token
from repro.utils.rng import SeedLike

__all__ = ["RESULT_KIND", "RESULT_SCHEMA", "run_cached_simulation", "simulation_key"]

#: Schema tag inside every simulation key; bump on key-shape changes.
RESULT_SCHEMA = "repro.store.result/1"

#: Entry kind single simulations are stored under.
RESULT_KIND = "simulation"


def simulation_key(
    *,
    strategy_name: str,
    n: int,
    platform: Platform,
    seed: SeedLike,
    strategy_kwargs: Optional[Dict[str, Any]] = None,
    schedule: Optional[FaultSchedule] = None,
    metrics: bool = False,
) -> Optional[Dict[str, Any]]:
    """Cache key for one simulation, or ``None`` when the seed is uncacheable.

    The platform enters by its exact speed vector (floats round-trip JSON
    exactly), the strategy by registry name + constructor arguments, and the
    fault schedule by its fully pre-drawn event list.
    """
    seed_tok = seed_token(seed)
    if seed_tok is None:
        return None
    return {
        "schema": RESULT_SCHEMA,
        "engine": ENGINE_VERSION,
        "strategy": [str(strategy_name), int(n), dict(strategy_kwargs or {})],
        "platform": ["fixed", [float(s) for s in platform.speeds]],
        "seed": seed_tok,
        "schedule": None if schedule is None else schedule.cache_token(),
        "metrics": bool(metrics),
    }


def run_cached_simulation(
    store: Optional[ResultStore],
    *,
    strategy_name: str,
    n: int,
    platform: Platform,
    seed: SeedLike,
    strategy_kwargs: Optional[Dict[str, Any]] = None,
    schedule: Optional[FaultSchedule] = None,
    sink: Optional[MetricsSink] = None,
) -> SimulationResult:
    """Simulate (or fetch) one run, byte-identical either way.

    With ``store=None`` or an uncacheable seed this is exactly
    ``simulate(make_strategy(name, n), platform, rng=seed, sink=sink,
    schedule=schedule)``.  Otherwise the serialized result is cached; on a
    hit the stored sink snapshot is replayed into *sink* so reports cannot
    tell a cached run from a fresh one.
    """
    key = (
        None
        if store is None
        else simulation_key(
            strategy_name=strategy_name,
            n=n,
            platform=platform,
            seed=seed,
            strategy_kwargs=strategy_kwargs,
            schedule=schedule,
            metrics=sink is not None,
        )
    )
    if store is not None and key is not None:
        payload = store.get(key, kind=RESULT_KIND)
        if payload is not None:
            cached: Optional[SimulationResult]
            try:
                cached = result_from_json(json.dumps(payload["result"]))
            except (KeyError, TypeError, ValueError):
                cached = None
            if cached is not None:
                if sink is not None and payload.get("snapshot") is not None:
                    sink.absorb_snapshot(payload["snapshot"])
                return cached

    strategy = make_strategy(strategy_name, n, **(strategy_kwargs or {}))
    run_sink: Optional[RecordingSink] = RecordingSink() if sink is not None else None
    result = simulate(strategy, platform, rng=seed, sink=run_sink, schedule=schedule)
    snapshot = None
    if run_sink is not None and sink is not None:
        snapshot = run_sink.snapshot()
        sink.absorb_snapshot(snapshot)
    if store is not None and key is not None:
        store.put(
            key,
            {"result": json.loads(result_to_json(result)), "snapshot": snapshot},
            kind=RESULT_KIND,
        )
    return result
