"""The two-dimensional task domain of the block outer product.

The outer product of two vectors of ``n`` blocks defines ``n * n``
independent block tasks ``T[i, j] = a_i b_j^t``.  :class:`OuterTaskPool`
tracks which tasks are processed and implements the vectorized bulk-marking
primitive behind DynamicOuter: when a worker learns a new row ``i`` and
column ``j``, every unprocessed task on the cross
``({i} x (J u {j})) u (I x {j})`` is allocated to it at once (Algorithm 1 of
the paper).

The total marking work over a whole simulation is O(n^2) plus the size of
the index-set slices scanned, which telescopes to O(n^2) as well — this is
what makes the n = 1000 sweeps of Figure 5 cheap in pure NumPy.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.taskpool._arrays import single_index_array, sorted_distinct
from repro.utils.validation import check_positive_int

__all__ = ["OuterTaskPool"]


class OuterTaskPool:
    """Processed/unprocessed state of the ``n x n`` outer-product tasks.

    Task ``(i, j)`` is identified by the flat id ``i * n + j`` wherever ids
    are exchanged (phase-2 sampling, execution replay).

    Parameters
    ----------
    n:
        Number of blocks per input vector (the paper's ``N / l``).
    collect_ids:
        When true, every marking call also returns the flat ids of the tasks
        it newly processed — used by the execution-replay engine to validate
        schedules numerically.  Off by default to keep simulations lean.
    """

    __slots__ = ("_n", "_processed", "_remaining", "collect_ids")

    def __init__(self, n: int, *, collect_ids: bool = False) -> None:
        self._n = check_positive_int("n", n)
        self._processed = np.zeros((self._n, self._n), dtype=bool)
        self._remaining = self._n * self._n
        self.collect_ids = bool(collect_ids)

    # -- queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def total(self) -> int:
        """Total number of block tasks, ``n * n``."""
        return self._n * self._n

    @property
    def remaining(self) -> int:
        """Number of still-unprocessed tasks."""
        return self._remaining

    @property
    def done(self) -> bool:
        return self._remaining == 0

    def is_processed(self, i: int, j: int) -> bool:
        return bool(self._processed[i, j])

    def processed_view(self) -> np.ndarray:
        """Read-only view of the processed bitmap (no copy)."""
        view = self._processed.view()
        view.flags.writeable = False
        return view

    def unprocessed_ids(self) -> np.ndarray:
        """Flat ids of all unprocessed tasks (fresh array).

        Used once, at the phase switch of DynamicOuter2Phases, to seed the
        phase-2 uniform sampler.
        """
        return np.flatnonzero(~self._processed.ravel())

    # -- mutation --------------------------------------------------------

    def mark_task(self, i: int, j: int) -> bool:
        """Mark a single task processed; returns ``True`` if it was new."""
        if self._processed[i, j]:
            return False
        self._processed[i, j] = True
        self._remaining -= 1
        return True

    def mark_cross(
        self,
        i: Optional[int],
        j: Optional[int],
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> Tuple[int, Optional[np.ndarray]]:
        """Mark the DynamicOuter cross for new row *i* and new column *j*.

        *rows* / *cols* are the worker's **previously** known index sets
        (``I`` and ``J`` in Algorithm 1, i.e. excluding *i* and *j*).  Either
        of *i*, *j* may be ``None`` when that dimension is already exhausted
        for the worker; the corresponding arm of the cross is skipped.

        Precondition (enforced): *i* must not appear in *rows* nor *j* in
        *cols* — duplicated indices inside one fancy-indexed arm would break
        the count.  The Dynamic* strategies guarantee this by construction.

        Returns ``(count, ids)`` where *count* is the number of newly
        processed tasks and *ids* their flat ids (or ``None`` unless
        ``collect_ids``).

        This is the validating public entry point; the Dynamic* strategies,
        which guarantee the precondition by construction (new indices come
        from the *unknown* sampler), go through :meth:`_mark_cross` — the
        two ``np.any`` scans are measurable at one marking per event.
        """
        if i is not None and np.any(rows == i):
            raise ValueError(f"new index i={i} already in known rows")
        if j is not None and np.any(cols == j):
            raise ValueError(f"new index j={j} already in known cols")
        return self._mark_cross(i, j, rows, cols)

    def _mark_cross(
        self,
        i: Optional[int],
        j: Optional[int],
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> Tuple[int, Optional[np.ndarray]]:
        """Hot-path marking: the :meth:`mark_cross` precondition must hold."""
        n = self._n
        proc = self._processed
        count = 0
        ids: Optional[List[np.ndarray]] = [] if self.collect_ids else None

        if i is not None and j is not None and not proc[i, j]:
            proc[i, j] = True
            count += 1
            if ids is not None:
                ids.append(single_index_array(i * n + j))

        if i is not None and cols.size:
            hit = cols[~proc[i, cols]]
            if hit.size:
                proc[i, hit] = True
                count += hit.size
                if ids is not None:
                    ids.append(i * n + hit.astype(np.int64))

        if j is not None and rows.size:
            hit = rows[~proc[rows, j]]
            if hit.size:
                proc[hit, j] = True
                count += hit.size
                if ids is not None:
                    ids.append(hit.astype(np.int64) * n + j)

        self._remaining -= count
        if ids is None:
            return count, None
        return count, (np.concatenate(ids) if ids else np.empty(0, dtype=np.int64))

    def mark_all(self) -> Tuple[int, Optional[np.ndarray]]:
        """Mark every remaining task processed (worker knows everything).

        Degenerate tail case: once a worker owns both full input vectors it
        can be allocated the whole remainder in one request.
        """
        ids = self.unprocessed_ids() if self.collect_ids else None
        count = self._remaining
        self._processed[:] = True
        self._remaining = 0
        return count, ids

    def release_tasks(self, flat_ids: np.ndarray) -> int:
        """Return allocated-but-unfinished tasks to the unprocessed set.

        Fault recovery: when a worker is lost mid-assignment, its in-flight
        tasks (identified by flat id ``i * n + j``) go back to the pool so a
        later allocation can re-execute them.  Already-unprocessed ids are
        skipped, so the call is idempotent.  Returns the number of tasks
        actually released.
        """
        flat = sorted_distinct(np.asarray(flat_ids, dtype=np.int64))
        if flat.size == 0:
            return 0
        if flat[0] < 0 or flat[-1] >= self._n * self._n:
            raise ValueError(f"task ids must lie in [0, {self._n * self._n})")
        i, j = np.divmod(flat, self._n)
        held = self._processed[i, j]
        count = int(np.count_nonzero(held))
        if count:
            self._processed[i[held], j[held]] = False
            self._remaining += count
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OuterTaskPool(n={self._n}, remaining={self._remaining}/{self.total})"
