"""Picklable cell descriptions and the batch entry point over the runner.

The figure generators describe every replicate cell with the spec classes
here — a strategy by registry name, a platform by its draw parameters —
rather than with closures.  Specs carry a ``cache_token()``, which makes
their cells cacheable in :mod:`repro.store`, and they pickle, which lets
a planned cell cross to another process: the ``--workers N`` and
``--workers-external`` drainers (:mod:`repro.experiments.external`)
compute cells they claim from a plan built elsewhere.

:func:`run_cells` is the callable batch entry point behind
``repro-serve``'s simulation lane: a list of :class:`CellRequest` in, a
list of :class:`CellResult` out, one cell at a time.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.strategies.base import Strategy
from repro.core.strategies.registry import make_strategy
from repro.experiments.runner import PlatformFactory, StrategyFactory
from repro.platform.platform import Platform
from repro.store.cache import ResultStore
from repro.store.cells import replicate_cell_key
from repro.platform.speeds import (
    SCENARIO_NAMES,
    SpeedModel,
    heterogeneity_speeds,
    make_scenario,
    uniform_speeds,
)
from repro.utils.rng import SeedLike
from repro.utils.stats import Summary
from repro.utils.validation import check_positive_int, check_speeds

__all__ = [
    "CellRequest",
    "CellResult",
    "FixedPlatformSpec",
    "HeterogeneityPlatformSpec",
    "ScenarioPlatformSpec",
    "StrategySpec",
    "UniformPlatformSpec",
    "resolve_workers",
    "run_cells",
]


# ---------------------------------------------------------------------------
# Picklable factory specs
# ---------------------------------------------------------------------------


class StrategySpec:
    """Picklable :data:`~repro.experiments.runner.StrategyFactory`.

    Calling the spec builds ``make_strategy(name, n, **kwargs)``; because it
    carries only the registry name and plain arguments, it round-trips
    through ``pickle`` and can therefore cross process boundaries on
    spawn-only platforms where closures cannot.
    """

    __slots__ = ("name", "n", "kwargs")

    def __init__(self, name: str, n: int, **kwargs: Any) -> None:
        self.name = str(name)
        self.n = check_positive_int("n", n)
        self.kwargs: Dict[str, Any] = dict(kwargs)

    def __call__(self) -> Strategy:
        return make_strategy(self.name, self.n, **self.kwargs)

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["strategy", self.name, self.n, dict(sorted(self.kwargs.items()))]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrategySpec):
            return NotImplemented
        return (self.name, self.n, self.kwargs) == (other.name, other.n, other.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = "".join(f", {k}={v!r}" for k, v in sorted(self.kwargs.items()))
        return f"StrategySpec({self.name!r}, {self.n}{extra})"


class UniformPlatformSpec:
    """Picklable platform factory: *p* speeds uniform in ``[low, high]``.

    The paper's default platform draw (Figures 1, 4, 5, 9, 10 use
    ``[10, 100]``).
    """

    __slots__ = ("p", "low", "high")

    def __init__(self, p: int, low: float = 10.0, high: float = 100.0) -> None:
        self.p = check_positive_int("p", p)
        self.low = float(low)
        self.high = float(high)

    def __call__(self, rng: np.random.Generator) -> Platform:
        return Platform(uniform_speeds(self.p, self.low, self.high, rng=rng))

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["uniform", self.p, self.low, self.high]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniformPlatformSpec):
            return NotImplemented
        return (self.p, self.low, self.high) == (other.p, other.low, other.high)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformPlatformSpec(p={self.p}, low={self.low}, high={self.high})"


class FixedPlatformSpec:
    """Picklable platform factory returning one fixed speed vector.

    Mirrors the β sweeps (Figures 2, 6, 11), which reuse a single platform
    draw across every repetition; only the simulation stream varies.
    """

    __slots__ = ("speeds",)

    def __init__(self, speeds: Sequence[float]) -> None:
        self.speeds: Tuple[float, ...] = tuple(float(s) for s in check_speeds(speeds))

    def __call__(self, rng: np.random.Generator) -> Platform:
        return Platform(np.asarray(self.speeds, dtype=np.float64))

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["fixed", list(self.speeds)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedPlatformSpec):
            return NotImplemented
        return self.speeds == other.speeds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedPlatformSpec(p={len(self.speeds)})"


class HeterogeneityPlatformSpec:
    """Picklable platform factory for the Figure-7 heterogeneity sweep."""

    __slots__ = ("p", "h")

    def __init__(self, p: int, h: float) -> None:
        self.p = check_positive_int("p", p)
        h = float(h)
        if not 0.0 <= h < 100.0:
            raise ValueError(f"heterogeneity h must lie in [0, 100), got {h}")
        self.h = h

    def __call__(self, rng: np.random.Generator) -> Platform:
        return Platform(heterogeneity_speeds(self.p, self.h, rng=rng))

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["heterogeneity", self.p, self.h]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeterogeneityPlatformSpec):
            return NotImplemented
        return (self.p, self.h) == (other.p, other.h)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeterogeneityPlatformSpec(p={self.p}, h={self.h})"


class ScenarioPlatformSpec:
    """Picklable platform factory for the named Figure-8 scenarios."""

    __slots__ = ("scenario", "p")

    def __init__(self, scenario: str, p: int) -> None:
        if scenario not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {scenario!r}; choose from {sorted(SCENARIO_NAMES)}"
            )
        self.scenario = scenario
        self.p = check_positive_int("p", p)

    def __call__(self, rng: np.random.Generator) -> Tuple[Platform, SpeedModel]:
        return make_scenario(self.scenario, self.p, rng=rng)

    def cache_token(self) -> List[Any]:
        """Canonical description for the result cache (:mod:`repro.store`)."""
        return ["scenario", self.scenario, self.p]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioPlatformSpec):
            return NotImplemented
        return (self.scenario, self.p) == (other.scenario, other.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScenarioPlatformSpec({self.scenario!r}, p={self.p})"


def resolve_workers(workers: int) -> int:
    """Resolve a ``workers`` option: ``0`` means one worker per CPU."""
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(f"workers must be an integer, got {type(workers).__name__}")
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = one per CPU), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


# ---------------------------------------------------------------------------
# Callable batch entry point (used by ``repro-serve`` lane workers)
# ---------------------------------------------------------------------------


class CellRequest:
    """One replicate cell, described as data, for :func:`run_cells`.

    The request carries exactly the inputs of a
    :func:`~repro.experiments.runner.average_normalized_comm` call —
    factories, problem size, repetition count and seed — so a batch of
    heterogeneous cells (different strategies, platforms and sizes) can be
    submitted through one entry point.  ``key()`` exposes the cell's cache
    key, which is what lets callers (the serve queue, sweep planners)
    deduplicate requests before computing anything.
    """

    __slots__ = ("strategy_factory", "platform_factory", "n", "reps", "seed")

    def __init__(
        self,
        strategy_factory: StrategyFactory,
        platform_factory: PlatformFactory,
        n: int,
        reps: int,
        *,
        seed: SeedLike = 0,
    ) -> None:
        self.strategy_factory = strategy_factory
        self.platform_factory = platform_factory
        self.n = check_positive_int("n", n)
        self.reps = check_positive_int("reps", reps)
        self.seed = seed

    def key(self, *, metrics: bool = False) -> Optional[Dict[str, Any]]:
        """The cell's cache key (``None`` when any input is uncacheable)."""
        return replicate_cell_key(
            strategy_factory=self.strategy_factory,
            platform_factory=self.platform_factory,
            n=self.n,
            reps=self.reps,
            seed=self.seed,
            metrics=metrics,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CellRequest({self.strategy_factory!r}, {self.platform_factory!r}, "
            f"n={self.n}, reps={self.reps}, seed={self.seed!r})"
        )


class CellResult:
    """Outcome of one :class:`CellRequest`: a summary or an error string.

    Batch callers need per-cell fault isolation — one malformed cell must
    not void its batch siblings' work — so failures are captured here
    instead of raised.  Exactly one of ``summary``/``error`` is set.
    """

    __slots__ = ("summary", "error")

    def __init__(self, summary: Optional[Summary], error: Optional[str] = None) -> None:
        if (summary is None) == (error is None):
            raise ValueError("exactly one of summary/error must be set")
        self.summary = summary
        self.error = error

    @property
    def ok(self) -> bool:
        """True when the cell computed (or loaded) successfully."""
        return self.summary is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CellResult(summary={self.summary!r}, error={self.error!r})"


def run_cells(
    requests: Sequence[CellRequest],
    *,
    cache: Optional[ResultStore] = None,
) -> List[CellResult]:
    """Run a batch of replicate cells through the replicate runner.

    The callable batch entry point behind ``repro-serve``'s simulation
    lane: each request goes through
    :func:`~repro.experiments.runner.average_normalized_comm` with the
    shared *cache* (hits load, misses compute and write back) and the
    results come back **in request order**.  A failing cell yields a
    :class:`CellResult` carrying the error message instead of aborting the
    batch — the caller decides whether a cell failure is fatal.

    The batch runs sequentially in the calling thread, so a thread-pool
    caller gets one OS thread per *batch*, not per cell.
    """
    from repro.experiments.runner import average_normalized_comm

    results: List[CellResult] = []
    for request in requests:
        try:
            summary = average_normalized_comm(
                request.strategy_factory,
                request.platform_factory,
                request.n,
                request.reps,
                seed=request.seed,
                cache=cache,
            )
        except Exception as exc:
            results.append(CellResult(None, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CellResult(summary))
    return results
