"""Wall-clock profiling hooks — the one module allowed to read the clock.

Everything else in :mod:`repro.obs` (and the experiment drivers that feed
it) works in *simulated* time; the A-TAINT check roots every function and
the import-time code of ``repro.obs`` and ``repro.experiments``, their CLIs
included, and bans ``time.time``/
``perf_counter`` calls anywhere they reach, this module excepted, so
wall-clock reads cannot leak into metrics.  Code
that legitimately measures host time — the bench harness, CLI progress
lines — imports :func:`wall_time` / :class:`StageProfiler` from here
instead.

:class:`StageProfiler` backs ``repro-bench --profile``: workloads wrap
their stages in :meth:`StageProfiler.stage` blocks and the harness records
the per-stage seconds into the BENCH json.  A disabled profiler
(``StageProfiler(enabled=False)``) skips the clock reads entirely, so the
hooks cost one attribute check when profiling is off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

__all__ = ["StageProfiler", "wall_time"]


def wall_time() -> float:
    """A monotonic wall-clock reading in seconds (arbitrary epoch)."""
    return time.perf_counter()


class StageProfiler:
    """Accumulates wall-time per named stage, in first-seen order.

    Re-entering a stage name adds to its accumulated seconds, so per-rep
    loops profile naturally::

        prof = StageProfiler()
        for seed in range(reps):
            with prof.stage("simulate"):
                run(seed)
        prof.to_dict()  # {"simulate": 1.234}
    """

    __slots__ = ("enabled", "_seconds", "_order")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._seconds: Dict[str, float] = {}
        self._order: List[str] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one stage (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        start = wall_time()
        try:
            yield
        finally:
            self.add(name, wall_time() - start)

    def add(self, name: str, seconds: float) -> None:
        """Credit *seconds* to *name* (creates the stage on first use)."""
        seconds = float(seconds)
        if seconds < 0.0:
            raise ValueError(f"stage seconds must be non-negative, got {seconds}")
        if name not in self._seconds:
            self._seconds[name] = 0.0
            self._order.append(name)
        self._seconds[name] += seconds

    def stages(self) -> List[Tuple[str, float]]:
        """``(name, seconds)`` pairs in first-seen order."""
        return [(name, self._seconds[name]) for name in self._order]

    def total(self) -> float:
        """Sum of all stage seconds."""
        return sum(self._seconds.values())

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready ``{stage: seconds}`` in first-seen order."""
        return {name: self._seconds[name] for name in self._order}

    def __len__(self) -> int:
        return len(self._order)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StageProfiler(enabled={self.enabled}, stages={self._order})"
