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

from typing import Optional, Tuple

import numpy as np

from repro.taskpool._arrays import sorted_distinct
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

    __slots__ = ("_n", "_flat", "_processed", "_remaining", "collect_ids")

    def __init__(self, n: int, *, collect_ids: bool = False) -> None:
        self._n = check_positive_int("n", n)
        # One bitmap, two views: flat ids index ``_flat``, (i, j) pairs
        # index ``_processed``.
        self._flat = np.zeros(self._n * self._n, dtype=bool)
        self._processed = self._flat.reshape(self._n, self._n)
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
        return np.flatnonzero(~self._flat)

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
        """Hot-path marking: the :meth:`mark_cross` precondition must hold.

        The cross is laid out as flat ids — the centre ``i * n + j``, the
        row arm ``i * n + J`` in *cols* order, the column arm ``I * n + j``
        in *rows* order — so one gather and one scatter mark it.  Under the
        precondition the three parts are disjoint, and the unprocessed ids
        come out in that order (phase 2 of the two-phase strategy re-adds
        released ids in it).
        """
        n = self._n
        n_row = cols.size if i is not None else 0
        n_col = rows.size if j is not None else 0
        at = int(i is not None and j is not None)
        cross = np.empty(at + n_row + n_col, dtype=np.int64)
        if i is not None:
            base = i * n
            if j is not None:
                cross[0] = base + j
            if n_row:
                np.add(cols, base, out=cross[at : at + n_row])
        if j is not None and n_col:
            arm = cross[at + n_row :]
            np.multiply(rows, n, out=arm)
            arm += j
        flat = self._flat
        fresh = cross[~flat[cross]]
        count = fresh.size
        if count:
            flat[fresh] = True
            self._remaining -= count
        return count, (fresh if self.collect_ids else None)

    def mark_all(self) -> Tuple[int, Optional[np.ndarray]]:
        """Mark every remaining task processed (worker knows everything).

        Degenerate tail case: once a worker owns both full input vectors it
        can be allocated the whole remainder in one request.
        """
        ids = self.unprocessed_ids() if self.collect_ids else None
        count = self._remaining
        self._flat[:] = True
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
        ids = sorted_distinct(np.asarray(flat_ids, dtype=np.int64))
        if ids.size == 0:
            return 0
        if ids[0] < 0 or ids[-1] >= self._n * self._n:
            raise ValueError(f"task ids must lie in [0, {self._n * self._n})")
        held = ids[self._flat[ids]]
        count = held.size
        if count:
            self._flat[held] = False
            self._remaining += count
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OuterTaskPool(n={self._n}, remaining={self._remaining}/{self.total})"
