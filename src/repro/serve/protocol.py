"""Request validation and canonicalization for the sweep service.

Every request body the service accepts is parsed here into a typed spec
*before* any queueing or computation happens, so a malformed payload costs
one JSON parse and nothing else.  The two request families mirror the
paper's own cost split:

* :class:`AnalyticalQuery` — closed-form math (Theorem-6 total ratios, the
  optimal and speed-agnostic β, communication lower bounds).  Evaluated
  inline by :meth:`AnalyticalQuery.evaluate`; microseconds of numpy.
* :class:`CellSpec` — one replicate cell of a simulation grid.  Its
  canonical cache key is the existing :func:`repro.store.cells.replicate_cell_key`
  schema — the *same* key the sweep runners use — so a cell computed by
  ``repro-experiments run --cache`` is a serve cache hit and vice versa.

Canonicalization is what makes coalescing sound: two JSON bodies that
describe the same cell (different key order, ``5`` vs ``5.0`` never allowed,
defaulted fields spelled out or omitted) produce the identical
:meth:`CellSpec.fingerprint`, so the queue can collapse them onto one
in-flight computation.

All parse errors raise :class:`ProtocolError`, which the HTTP layer maps
to a 400 response carrying the message.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.core.analysis import (
    agnostic_beta,
    lower_bound,
    matrix_total_ratio,
    optimal_matrix_beta,
    optimal_outer_beta,
    outer_total_ratio,
)
from repro.core.strategies.registry import make_strategy, strategy_names
from repro.experiments.parallel import (
    FixedPlatformSpec,
    HeterogeneityPlatformSpec,
    ScenarioPlatformSpec,
    StrategySpec,
    UniformPlatformSpec,
)
from repro.experiments.runner import PlannedCell
from repro.platform.platform import Platform
from repro.platform.speeds import SCENARIO_NAMES
from repro.store.fingerprint import fingerprint

__all__ = [
    "JOB_SCHEMA",
    "KERNELS",
    "PLATFORM_TYPES",
    "QUERY_KINDS",
    "SERVE_SCHEMA",
    "AnalyticalQuery",
    "CellSpec",
    "PlatformSpec",
    "ProtocolError",
    "parse_platform",
    "sweep_job_id",
]

#: Protocol schema tag, echoed by ``/healthz`` so clients can pin it.
SERVE_SCHEMA = "repro.serve/1"

#: Schema tag fingerprinted into sweep job ids (journal recovery keys).
JOB_SCHEMA = "repro.serve.job/1"

#: Supported platform spec types (the picklable factory specs of
#: :mod:`repro.experiments.parallel`).
PLATFORM_TYPES = ("uniform", "fixed", "heterogeneity", "scenario")

#: Supported analytical query kinds.
QUERY_KINDS = ("ratio", "optimal_beta", "agnostic_beta", "lower_bound")

#: The paper's two kernels.
KERNELS = ("outer", "matrix")

#: Any of the four picklable platform factory specs.
PlatformSpec = Union[
    UniformPlatformSpec, FixedPlatformSpec, HeterogeneityPlatformSpec, ScenarioPlatformSpec
]


class ProtocolError(ValueError):
    """A request body failed validation; maps to HTTP 400."""


def _require_mapping(raw: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(raw, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {type(raw).__name__}")
    return raw


def _get_int(raw: Mapping[str, Any], field: str, *, minimum: int, maximum: int) -> int:
    value = raw.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {field!r} must be an integer, got {value!r}")
    if not minimum <= value <= maximum:
        raise ProtocolError(
            f"field {field!r} must lie in [{minimum}, {maximum}], got {value}"
        )
    return value


def _get_number(raw: Mapping[str, Any], field: str, default: float) -> float:
    value = raw.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"field {field!r} must be a number, got {value!r}")
    return float(value)


def parse_platform(raw: Any, *, max_p: int = 1024) -> PlatformSpec:
    """Parse a platform description into its picklable factory spec.

    Accepted shapes (``type`` selects the spec class)::

        {"type": "uniform", "p": 8, "low": 10, "high": 100}
        {"type": "fixed", "speeds": [70.5, 10.0, 15.2]}
        {"type": "heterogeneity", "p": 8, "h": 50}
        {"type": "scenario", "name": "many_small", "p": 8}

    ``low``/``high`` default to the paper's ``[10, 100]`` draw.
    """
    raw = _require_mapping(raw, "platform")
    ptype = raw.get("type")
    if ptype not in PLATFORM_TYPES:
        raise ProtocolError(
            f"platform type must be one of {list(PLATFORM_TYPES)}, got {ptype!r}"
        )
    try:
        if ptype == "uniform":
            return UniformPlatformSpec(
                _get_int(raw, "p", minimum=1, maximum=max_p),
                _get_number(raw, "low", 10.0),
                _get_number(raw, "high", 100.0),
            )
        if ptype == "fixed":
            speeds = raw.get("speeds")
            if not isinstance(speeds, list) or not speeds:
                raise ProtocolError("fixed platform needs a non-empty 'speeds' list")
            if len(speeds) > max_p:
                raise ProtocolError(f"'speeds' exceeds the {max_p}-worker limit")
            return FixedPlatformSpec([float(s) for s in speeds])
        if ptype == "heterogeneity":
            return HeterogeneityPlatformSpec(
                _get_int(raw, "p", minimum=1, maximum=max_p),
                _get_number(raw, "h", 0.0),
            )
        name = raw.get("name")
        if not isinstance(name, str):
            raise ProtocolError(
                f"scenario platform needs a 'name' from {sorted(SCENARIO_NAMES)}"
            )
        return ScenarioPlatformSpec(name, _get_int(raw, "p", minimum=1, maximum=max_p))
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid platform: {exc}") from exc


class CellSpec:
    """One validated simulation-grid cell, canonicalized for the store.

    Wraps a :class:`~repro.experiments.runner.PlannedCell` (the batch
    runner's unit of work, which carries the cell's key and fingerprint)
    plus the service-level ``priority``.  The cache key is always built
    with ``metrics=False`` — the service never attaches per-repetition
    sinks, so every client asking for the same cell agrees on one
    fingerprint.
    """

    __slots__ = ("planned", "priority", "_key", "_fingerprint")

    #: Priority bounds: higher runs earlier within the simulation lane.
    MIN_PRIORITY = 0
    MAX_PRIORITY = 9

    def __init__(self, planned: PlannedCell, *, priority: int = 0) -> None:
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ProtocolError(f"priority must be an integer, got {priority!r}")
        if not self.MIN_PRIORITY <= priority <= self.MAX_PRIORITY:
            raise ProtocolError(
                f"priority must lie in [{self.MIN_PRIORITY}, {self.MAX_PRIORITY}], "
                f"got {priority}"
            )
        if planned.key is None or planned.fingerprint is None:  # pragma: no cover - specs tokenize
            raise ProtocolError("cell is not cacheable; refusing to serve it")
        self.planned = planned
        self.priority = priority
        self._key: Dict[str, Any] = planned.key
        self._fingerprint: str = planned.fingerprint

    @classmethod
    def parse(
        cls,
        raw: Any,
        *,
        max_n: int = 512,
        max_reps: int = 256,
        max_p: int = 1024,
    ) -> "CellSpec":
        """Validate one JSON cell description.

        Shape::

            {"strategy": "DynamicOuter", "n": 30, "reps": 5, "seed": 0,
             "platform": {"type": "uniform", "p": 8},
             "strategy_kwargs": {"beta": 0.4},     # optional
             "priority": 0}                        # optional, 0-9

        The ``max_*`` caps are the service's admission limits — a request
        over them is a 400, not a queued cell that exhausts the box.
        """
        raw = _require_mapping(raw, "cell")
        name = raw.get("strategy")
        known = strategy_names()
        if name not in known:
            raise ProtocolError(
                f"unknown strategy {name!r}; choose from {sorted(known)}"
            )
        n = _get_int(raw, "n", minimum=1, maximum=max_n)
        reps = _get_int(raw, "reps", minimum=1, maximum=max_reps)
        seed = _get_int({"seed": raw.get("seed", 0)}, "seed", minimum=0, maximum=2**63 - 1)
        kwargs = raw.get("strategy_kwargs", {})
        kwargs = dict(_require_mapping(kwargs, "strategy_kwargs"))
        if any(not isinstance(k, str) for k in kwargs):
            raise ProtocolError("strategy_kwargs keys must be strings")
        platform = parse_platform(raw.get("platform"), max_p=max_p)
        priority = raw.get("priority", 0)
        try:
            # Instantiate once now: StrategySpec defers kwargs validation to
            # factory time, and a bad kwarg must be a 400, not a queued cell
            # that errors in the engine.
            make_strategy(str(name), n, **kwargs)
            strategy = StrategySpec(str(name), n, **kwargs)
            planned = PlannedCell.of(strategy, platform, n, reps, seed=seed)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid cell: {exc}") from exc
        return cls(planned, priority=priority)

    def key(self) -> Dict[str, Any]:
        """The cell's canonical cache key (``repro.store.cell/1`` schema)."""
        return dict(self._key)

    def fingerprint(self) -> str:
        """sha256 fingerprint of the canonical key — the coalescing identity."""
        return self._fingerprint

    def describe(self) -> Dict[str, Any]:
        """JSON echo of the canonical cell (returned in responses)."""
        return {
            "fingerprint": self._fingerprint,
            "key": self.key(),
            "priority": self.priority,
        }


class AnalyticalQuery:
    """One validated closed-form query (the analytical fast path).

    These are pure functions of ``(kernel, n, speeds)`` from
    :mod:`repro.core.analysis` — no simulation, no queueing, no cache.
    """

    __slots__ = ("query", "kernel", "n", "speeds", "p", "beta")

    def __init__(
        self,
        query: str,
        kernel: str,
        n: int,
        *,
        speeds: Optional[List[float]] = None,
        p: Optional[int] = None,
        beta: Optional[float] = None,
    ) -> None:
        if query not in QUERY_KINDS:
            raise ProtocolError(f"query must be one of {list(QUERY_KINDS)}, got {query!r}")
        if kernel not in KERNELS:
            raise ProtocolError(f"kernel must be one of {list(KERNELS)}, got {kernel!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ProtocolError(f"field 'n' must be a positive integer, got {n!r}")
        self.query = query
        self.kernel = kernel
        self.n = n
        self.speeds = speeds
        self.p = p
        self.beta = beta

    @classmethod
    def parse(cls, raw: Any, *, max_p: int = 1024) -> "AnalyticalQuery":
        """Validate one JSON analytical query.

        Shape::

            {"query": "ratio", "kernel": "outer", "n": 100,
             "speeds": [70, 10, 15], "beta": 0.4}       # beta optional
            {"query": "agnostic_beta", "kernel": "outer", "n": 100, "p": 8}
        """
        raw = _require_mapping(raw, "analytical query")
        query = raw.get("query")
        kernel = raw.get("kernel")
        if not isinstance(query, str) or not isinstance(kernel, str):
            raise ProtocolError("fields 'query' and 'kernel' must be strings")
        n = _get_int(raw, "n", minimum=1, maximum=10**9)
        beta: Optional[float] = None
        if raw.get("beta") is not None:
            beta = _get_number(raw, "beta", 0.0)
            if not beta > 0.0:
                raise ProtocolError(f"field 'beta' must be positive, got {beta}")
        speeds: Optional[List[float]] = None
        p: Optional[int] = None
        if query == "agnostic_beta":
            p = _get_int(raw, "p", minimum=1, maximum=max_p)
        else:
            raw_speeds = raw.get("speeds")
            if not isinstance(raw_speeds, list) or not raw_speeds:
                raise ProtocolError(f"query {query!r} needs a non-empty 'speeds' list")
            if len(raw_speeds) > max_p:
                raise ProtocolError(f"'speeds' exceeds the {max_p}-worker limit")
            try:
                speeds = [float(s) for s in raw_speeds]
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid speeds: {exc}") from exc
        return cls(query, kernel, n, speeds=speeds, p=p, beta=beta)

    def _relative_speeds(self) -> np.ndarray:
        assert self.speeds is not None  # parse() guarantees it
        try:
            return Platform(np.asarray(self.speeds, dtype=np.float64)).relative_speeds
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid speeds: {exc}") from exc

    def evaluate(self) -> Dict[str, Any]:
        """Compute the query; returns the JSON response body.

        The response always echoes the resolved inputs (including which β
        was actually used for a ``ratio`` query), so cached or logged
        responses are self-describing.
        """
        out: Dict[str, Any] = {"query": self.query, "kernel": self.kernel, "n": self.n}
        if self.query == "agnostic_beta":
            assert self.p is not None  # parse() guarantees it
            out["p"] = self.p
            out["value"] = agnostic_beta(self.kernel, self.p, self.n)
            return out
        rel = self._relative_speeds()
        out["p"] = int(rel.shape[0])
        if self.query == "lower_bound":
            out["value"] = lower_bound(self.kernel, rel, self.n)
            return out
        optimal = (
            optimal_outer_beta(rel, self.n)
            if self.kernel == "outer"
            else optimal_matrix_beta(rel, self.n)
        )
        if self.query == "optimal_beta":
            out["value"] = float(optimal)
            return out
        beta = float(optimal) if self.beta is None else self.beta
        out["beta"] = beta
        ratio = (
            outer_total_ratio(beta, rel, self.n)
            if self.kernel == "outer"
            else matrix_total_ratio(beta, rel, self.n)
        )
        out["value"] = float(ratio)
        return out


def sweep_job_id(cells: List[CellSpec]) -> str:
    """Deterministic journal job id for one sweep's cell set.

    A fingerprint over the *sorted* cell fingerprints, so the id depends
    only on which cells the sweep covers — not their order, which service
    process accepted them, or when.  Any process holding the same journal
    can therefore answer ``GET /jobs/<id>`` for a sweep it never saw.
    """
    return fingerprint(
        {"schema": JOB_SCHEMA, "cells": sorted(c.fingerprint() for c in cells)}
    )
