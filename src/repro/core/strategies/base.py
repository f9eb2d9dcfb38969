"""Strategy interface shared by all schedulers.

A strategy encapsulates the *master's* decision logic: given a requesting
worker, decide which tasks to allocate and which blocks to ship.  It owns
the task pool and the per-worker knowledge state; the simulation engine owns
time.  This split mirrors the paper's model where the master "is aware of
which blocks are replicated on the computing nodes and decides which new
blocks are sent, as well as which tasks are allocated".

Strategies are *reusable*: construct once, then :meth:`Strategy.reset` binds
them to a platform and RNG at the start of each run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Optional

import numpy as np

from repro.platform.platform import Platform
from repro.utils.validation import check_positive_int

__all__ = ["Assignment", "Strategy"]

# Bound once at import: resolving ``object.__setattr__`` inside
# ``Assignment.__init__`` costs two attribute lookups per instance, and one
# Assignment is built per simulated event.
_set_field = object.__setattr__


class Assignment:
    """The master's answer to one work request.

    ``blocks`` is the communication cost (data blocks shipped), ``tasks``
    the number of block tasks allocated.  ``phase`` distinguishes the two
    phases of the *2Phases strategies for tracing.  ``task_ids`` carries the
    allocated tasks' flat ids when the strategy was built with
    ``collect_ids=True``.

    Immutable and ``__slots__``-backed: one instance is created per
    master/worker interaction (~10^6 per large run), so the per-instance
    ``__dict__`` a plain dataclass would carry is measurable in both time
    and memory.
    """

    __slots__ = ("blocks", "tasks", "phase", "task_ids")

    blocks: int
    tasks: int
    phase: int
    task_ids: Optional[np.ndarray]

    def __init__(
        self,
        blocks: int,
        tasks: int,
        phase: int = 1,
        task_ids: Optional[np.ndarray] = None,
    ) -> None:
        # Inline comparisons, not check_* helpers: one Assignment is built
        # per master/worker interaction, and two extra function calls per
        # event are measurable at 10^6 events.
        if blocks < 0:
            raise ValueError(f"blocks must be >= 0, got {blocks}")
        if tasks < 0:
            raise ValueError(f"tasks must be >= 0, got {tasks}")
        if phase not in (1, 2):
            raise ValueError(f"phase must be 1 or 2, got {phase}")
        _set_field(self, "blocks", blocks)
        _set_field(self, "tasks", tasks)
        _set_field(self, "phase", phase)
        _set_field(self, "task_ids", task_ids)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Assignment is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Assignment is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        if (self.blocks, self.tasks, self.phase) != (other.blocks, other.tasks, other.phase):
            return False
        if self.task_ids is None or other.task_ids is None:
            return self.task_ids is None and other.task_ids is None
        return bool(np.array_equal(self.task_ids, other.task_ids))

    def __hash__(self) -> int:
        # ``task_ids`` is excluded (ndarrays are unhashable); equal
        # assignments still hash equal, which is all the contract needs.
        return hash((self.blocks, self.tasks, self.phase))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Assignment(blocks={self.blocks}, tasks={self.tasks}, "
            f"phase={self.phase}, task_ids={self.task_ids!r})"
        )


class Strategy(ABC):
    """Base class of all scheduling strategies.

    Class attributes
    ----------------
    name:
        The paper's name for the strategy (e.g. ``"DynamicOuter"``).
    kernel:
        ``"outer"`` or ``"matrix"`` — selects the task domain and the
        communication lower bound used for normalization.

    Parameters
    ----------
    n:
        Problem size in blocks per dimension (the paper's ``N / l``).
    collect_ids:
        Propagated to the task pool; when true, every
        :class:`Assignment` carries the flat ids of its tasks so the run can
        be replayed on real data by :mod:`repro.execution`.
    """

    name: ClassVar[str] = "abstract"
    kernel: ClassVar[str] = "abstract"

    def __init__(self, n: int, *, collect_ids: bool = False) -> None:
        self._n = check_positive_int("n", n)
        self._collect_ids = bool(collect_ids)
        self._platform: Optional[Platform] = None
        self._rng: Optional[np.random.Generator] = None

    # -- lifecycle ---------------------------------------------------------

    def reset(self, platform: Platform, rng: np.random.Generator) -> None:
        """Bind to *platform* and *rng* and rebuild all scheduling state."""
        self._platform = platform
        self._rng = rng
        self._setup()

    @abstractmethod
    def _setup(self) -> None:
        """Rebuild pools and per-worker state (platform/rng already bound)."""

    # -- scheduling --------------------------------------------------------

    @abstractmethod
    def assign(self, worker: int, now: float) -> Assignment:
        """Serve one work request from *worker* at simulation time *now*."""

    @property
    @abstractmethod
    def done(self) -> bool:
        """True when every task of the kernel has been allocated."""

    @property
    @abstractmethod
    def total_tasks(self) -> int:
        """Total number of block tasks of the kernel instance."""

    # -- fault recovery ----------------------------------------------------

    def release_tasks(self, task_ids: np.ndarray) -> None:
        """Return allocated-but-unfinished tasks to the allocatable set.

        Called by a fault-aware run (:mod:`repro.faults`) when an
        assignment is lost before completing: the tasks must become
        allocatable again so a later request re-executes them.  Every
        registered strategy implements this; custom strategies that never
        run under a fault ``schedule`` may ignore it.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support fault recovery")

    def forget_worker(self, worker: int) -> None:
        """Drop everything the master believes *worker* holds.

        Called when a worker crashes (its memory is gone): the master must
        re-ship any block the worker needs from now on.  Implementations
        reset the worker's knowledge/caches; they must not touch the task
        pool (that is :meth:`release_tasks`'s job).
        """
        raise NotImplementedError(f"{type(self).__name__} does not support fault recovery")

    def on_worker_lost(self, worker: int, task_ids: Optional[np.ndarray] = None) -> None:
        """Fault hook: *worker* crashed with *task_ids* in flight.

        The default composes :meth:`release_tasks` (the lost in-flight
        tasks go back to the pool) with :meth:`forget_worker` (the worker's
        cached blocks are gone) and is correct for every registered
        strategy.  Override to react to churn — e.g. to rebalance remaining
        work away from flaky workers — but keep the released tasks
        allocatable or the run will never complete.
        """
        if task_ids is not None and task_ids.size:
            self.release_tasks(task_ids)
        self.forget_worker(worker)

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Blocks per dimension."""
        return self._n

    @property
    def collect_ids(self) -> bool:
        return self._collect_ids

    @property
    def platform(self) -> Platform:
        if self._platform is None:
            raise RuntimeError(f"{type(self).__name__} used before reset()")
        return self._platform

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            raise RuntimeError(f"{type(self).__name__} used before reset()")
        return self._rng

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self._n})"
