"""Recovery policies: how the master reacts to faults.

A :class:`RecoveryPolicy` plugs into a fault-aware
:func:`repro.simulator.simulate` run (``policy=``) and decides three things:

* whether an issued assignment gets a heartbeat deadline
  (:meth:`~RecoveryPolicy.timeout_deadline`);
* bookkeeping when such a deadline fires
  (:meth:`~RecoveryPolicy.register_timeout`);
* whether an idle worker with no allocatable work should duplicate another
  worker's in-flight tail tasks instead of parking
  (:meth:`~RecoveryPolicy.tail_replicas`).

Releasing crashed workers' in-flight tasks back to the pool is *not* a
policy decision — the engine always does it (otherwise no run with a crash
could terminate); policies only add proactive behavior on top.  The
baseline :class:`ReassignLost` adds nothing, :class:`HeartbeatTimeout`
re-issues suspiciously late assignments, and :class:`ReplicateTail`
duplicates the expected tail of the computation to mask stragglers.
"""

from __future__ import annotations

import math
from typing import ClassVar, List, Optional, Sequence

import numpy as np

from repro.core.analysis.beta import agnostic_beta
from repro.core.strategies.base import Strategy
from repro.platform.platform import Platform
from repro.utils.validation import check_positive

__all__ = ["RecoveryPolicy", "ReassignLost", "HeartbeatTimeout", "ReplicateTail"]


class RecoveryPolicy:
    """Base policy: react to crashes only (reassignment, no proactive work).

    Subclasses override the hooks they care about; every hook has a correct
    no-op default, so a policy can be as small as one method.  Policies are
    reusable across runs: :meth:`reset` rebuilds all per-run state.
    """

    name: ClassVar[str] = "abstract"

    #: Whether the policy needs per-task completion tracking.  When true,
    #: :func:`repro.simulator.simulate` requires the strategy to be
    #: built with ``collect_ids=True`` even for an empty fault schedule.
    needs_task_ids: ClassVar[bool] = False

    def reset(self, strategy: Strategy, platform: Platform) -> None:
        """Bind to the run's strategy/platform; rebuild per-run state."""

    def timeout_deadline(
        self, worker: int, now: float, expected_duration: float
    ) -> Optional[float]:
        """Heartbeat deadline for an assignment issued at *now*, or ``None``.

        *expected_duration* is the master's estimate (nominal compute time
        at the worker's known speed, before any hidden slowdown).  Returning
        a deadline makes the engine release the assignment's tasks back to
        the pool if the worker has not finished by then.
        """
        return None

    def register_timeout(self, worker: int) -> None:
        """Called when a deadline fired and the assignment was released."""

    def tail_replicas(
        self,
        worker: int,
        now: float,
        inflight: Sequence[Optional[np.ndarray]],
        completed: np.ndarray,
        n_completed: int,
    ) -> Optional[np.ndarray]:
        """Task ids for *worker* to duplicate, or ``None`` to park it.

        Called only when the pool has allocated everything but completions
        are still outstanding.  *inflight* maps each worker to its in-flight
        task ids (``None`` when idle), *completed* is the first-completion
        bitmap over flat task ids.
        """
        return None


class ReassignLost(RecoveryPolicy):
    """The baseline: crashed workers' tasks go back to the pool, nothing more.

    Reallocation is automatically data-aware for the Dynamic* strategies:
    released tasks re-enter the same pool the strategy selects from, so the
    master hands them to whichever requester already holds the most relevant
    blocks — no policy-side placement logic is needed.
    """

    name = "ReassignLost"


class HeartbeatTimeout(RecoveryPolicy):
    """Declare an assignment lost after ``k``× its expected duration.

    When a deadline fires, the in-flight tasks are released for
    re-execution elsewhere while the (possibly just slow) worker keeps
    computing — a straggler that eventually finishes produces duplicate
    completions, which the engine counts but ignores for correctness.
    Each timeout on a worker multiplies its next deadline by *backoff*
    (exponential backoff), so a persistently slow worker is given
    progressively more slack instead of being re-issued in a tight loop.

    ``k`` must exceed 1: with ``k <= 1`` every on-time assignment would be
    declared lost, and a fault-free run would no longer match the fault-free
    engine.
    """

    name = "HeartbeatTimeout"
    needs_task_ids = True

    def __init__(self, k: float = 3.0, backoff: float = 2.0) -> None:
        self.k = check_positive("k", k)
        if self.k <= 1.0:
            raise ValueError(f"timeout multiplier k must be > 1, got {k}")
        self.backoff = check_positive("backoff", backoff)
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        self._attempts: List[int] = []

    def reset(self, strategy: Strategy, platform: Platform) -> None:
        self._attempts = [0] * platform.p

    def timeout_deadline(
        self, worker: int, now: float, expected_duration: float
    ) -> Optional[float]:
        if expected_duration <= 0.0:
            return None
        slack = self.k * self.backoff ** self._attempts[worker]
        return now + slack * expected_duration

    def register_timeout(self, worker: int) -> None:
        self._attempts[worker] += 1


class ReplicateTail(RecoveryPolicy):
    """Duplicate the computation's tail to mask stragglers.

    Section 3.5's analysis shows that after the dynamic phase has allocated
    most tasks, roughly ``exp(-beta) * total`` tasks remain — the tail whose
    stragglers dominate the makespan on an unreliable platform.  This policy
    lets an idle worker duplicate another worker's in-flight tasks once the
    number of uncompleted tasks drops to that threshold; whichever copy
    finishes first counts, the other becomes a duplicate completion.

    With ``beta=None`` the threshold uses the speed-agnostic
    :func:`repro.core.analysis.beta.agnostic_beta` for the strategy's kernel
    — the same "only p and n are needed" property as DynamicOuter2Phases.
    Each task is duplicated at most once, and every duplicated task costs
    the kernel's full per-task block count (2 for the outer product, 3 for
    matmul) — an upper bound, since the replica target may cache some
    blocks already.
    """

    name = "ReplicateTail"
    needs_task_ids = True

    def __init__(self, beta: Optional[float] = None) -> None:
        self._beta = None if beta is None else check_positive("beta", beta)
        self._threshold = 0
        self._total = 0
        self._duplicated: Optional[np.ndarray] = None

    def reset(self, strategy: Strategy, platform: Platform) -> None:
        beta = self._beta
        if beta is None:
            beta = agnostic_beta(strategy.kernel, platform.p, strategy.n)
        self._total = strategy.total_tasks
        # The expected tail size; at least 1 so the policy is never inert.
        self._threshold = max(1, round(math.exp(-beta) * self._total))
        self._duplicated = np.zeros(self._total, dtype=bool)

    @property
    def threshold(self) -> int:
        """Uncompleted-task count at or below which replication starts."""
        return self._threshold

    def tail_replicas(
        self,
        worker: int,
        now: float,
        inflight: Sequence[Optional[np.ndarray]],
        completed: np.ndarray,
        n_completed: int,
    ) -> Optional[np.ndarray]:
        duplicated = self._duplicated
        if duplicated is None:
            raise RuntimeError("ReplicateTail used before reset()")
        if self._total - n_completed > self._threshold:
            return None
        best: Optional[np.ndarray] = None
        for other, ids in enumerate(inflight):
            if other == worker or ids is None or ids.size == 0:
                continue
            candidates = ids[~completed[ids] & ~duplicated[ids]]
            if candidates.size and (best is None or candidates.size > best.size):
                best = candidates
        if best is None:
            return None
        duplicated[best] = True
        return best.copy()
