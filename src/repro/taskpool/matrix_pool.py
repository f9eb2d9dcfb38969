"""The three-dimensional task domain of blocked matrix multiplication.

``C = A B`` with ``n x n`` blocks defines ``n^3`` independent block tasks
``T[i, j, k] : C[i, j] += A[i, k] B[k, j]``.  :class:`MatrixTaskPool` tracks
processing state and implements the vectorized *shell* marking behind
DynamicMatrix (Algorithm 3 of the paper): when a worker's index sets grow
from ``(I, J, K)`` to ``(I u {i}, J u {j}, K u {k})`` it is allocated every
unprocessed task of the grown cube having ``i' = i`` or ``j' = j`` or
``k' = k``.

That shell decomposes into three *disjoint* slabs (so nothing is counted
twice)::

    S1 = {i} x (J u {j}) x (K u {k})        (all tasks with i' = i)
    S2 =  I  x    {j}    x (K u {k})        (i' != i, j' = j)
    S3 =  I  x     J     x    {k}           (i' != i, j' != j, k' = k)

each of which is a fancy-indexed sub-block of the processed bitmap.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.taskpool._arrays import single_index_array, sorted_distinct
from repro.utils.validation import check_positive_int

__all__ = ["MatrixTaskPool"]


class MatrixTaskPool:
    """Processed/unprocessed state of the ``n^3`` matmul block tasks.

    Task ``(i, j, k)`` has flat id ``(i * n + j) * n + k``.

    Parameters mirror :class:`~repro.taskpool.outer_pool.OuterTaskPool`.
    """

    __slots__ = ("_n", "_processed", "_remaining", "collect_ids")

    def __init__(self, n: int, *, collect_ids: bool = False) -> None:
        self._n = check_positive_int("n", n)
        self._processed = np.zeros((self._n,) * 3, dtype=bool)
        self._remaining = self._n**3
        self.collect_ids = bool(collect_ids)

    # -- queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def total(self) -> int:
        """Total number of block tasks, ``n^3``."""
        return self._n**3

    @property
    def remaining(self) -> int:
        return self._remaining

    @property
    def done(self) -> bool:
        return self._remaining == 0

    def is_processed(self, i: int, j: int, k: int) -> bool:
        return bool(self._processed[i, j, k])

    def processed_view(self) -> np.ndarray:
        view = self._processed.view()
        view.flags.writeable = False
        return view

    def unprocessed_ids(self) -> np.ndarray:
        """Flat ids of all unprocessed tasks (fresh array)."""
        return np.flatnonzero(~self._processed.ravel())

    # -- mutation --------------------------------------------------------

    def mark_task(self, i: int, j: int, k: int) -> bool:
        """Mark one task processed; returns ``True`` if it was new."""
        if self._processed[i, j, k]:
            return False
        self._processed[i, j, k] = True
        self._remaining -= 1
        return True

    def _mark_slab(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        deps: np.ndarray,
        ids: Optional[List[np.ndarray]],
    ) -> int:
        """Mark every unprocessed task in ``rows x cols x deps``; return count."""
        if rows.size == 0 or cols.size == 0 or deps.size == 0:
            return 0
        # Hand-built open mesh: equivalent to ``np.ix_(rows, cols, deps)``
        # but without its per-call dtype introspection, which dominates at
        # one shell (three slabs) per simulated event.
        grid = (rows[:, None, None], cols[:, None], deps)
        sub = self._processed[grid]
        fresh = ~sub
        count = int(np.count_nonzero(fresh))
        if count == 0:
            return 0
        self._processed[grid] = True
        if ids is not None:
            n = self._n
            ri, ci, di = np.nonzero(fresh)
            flat = (rows[ri].astype(np.int64) * n + cols[ci]) * n + deps[di]
            ids.append(flat)
        return count

    def mark_shell(
        self,
        i: Optional[int],
        j: Optional[int],
        k: Optional[int],
        rows: np.ndarray,
        cols: np.ndarray,
        deps: np.ndarray,
    ) -> Tuple[int, Optional[np.ndarray]]:
        """Mark the DynamicMatrix growth shell.

        *rows*, *cols*, *deps* are the worker's previously known sets
        ``I, J, K`` (excluding the new indices).  Any of *i*, *j*, *k* may be
        ``None`` when that dimension is exhausted; the shell degrades
        gracefully (only slabs involving actually-new indices are scanned).

        Precondition (enforced): a new index must not already belong to its
        known set, and known sets must not contain duplicates — otherwise the
        fancy-indexed slabs would contain repeated cells and the count would
        be wrong.  The Dynamic* strategies guarantee this by construction.

        Returns ``(count, ids)`` as in
        :meth:`~repro.taskpool.outer_pool.OuterTaskPool.mark_cross`.

        This is the validating public entry point; DynamicMatrix, which
        guarantees the precondition by construction, goes through
        :meth:`_mark_shell` to skip the three ``np.any`` scans per event.
        """
        if i is not None and np.any(rows == i):
            raise ValueError(f"new index i={i} already in known rows")
        if j is not None and np.any(cols == j):
            raise ValueError(f"new index j={j} already in known cols")
        if k is not None and np.any(deps == k):
            raise ValueError(f"new index k={k} already in known deps")
        return self._mark_shell(i, j, k, rows, cols, deps)

    def _mark_shell(
        self,
        i: Optional[int],
        j: Optional[int],
        k: Optional[int],
        rows: np.ndarray,
        cols: np.ndarray,
        deps: np.ndarray,
    ) -> Tuple[int, Optional[np.ndarray]]:
        """Hot-path marking: the :meth:`mark_shell` precondition must hold."""
        ids: Optional[List[np.ndarray]] = [] if self.collect_ids else None
        grown_j = np.concatenate((cols, single_index_array(j))) if j is not None else cols
        grown_k = np.concatenate((deps, single_index_array(k))) if k is not None else deps

        count = 0
        if i is not None:
            count += self._mark_slab(single_index_array(i), grown_j, grown_k, ids)
        if j is not None:
            count += self._mark_slab(
                np.asarray(rows, dtype=np.int64), single_index_array(j), grown_k, ids
            )
        if k is not None:
            count += self._mark_slab(
                np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
                single_index_array(k),
                ids,
            )

        self._remaining -= count
        if ids is None:
            return count, None
        return count, (np.concatenate(ids) if ids else np.empty(0, dtype=np.int64))

    def mark_all(self) -> Tuple[int, Optional[np.ndarray]]:
        """Mark every remaining task processed (worker knows everything)."""
        ids = self.unprocessed_ids() if self.collect_ids else None
        count = self._remaining
        self._processed[:] = True
        self._remaining = 0
        return count, ids

    def release_tasks(self, flat_ids: np.ndarray) -> int:
        """Return allocated-but-unfinished tasks to the unprocessed set.

        Mirrors :meth:`~repro.taskpool.outer_pool.OuterTaskPool.release_tasks`
        for the 3-D domain: ids are ``(i * n + j) * n + k``, duplicate and
        already-unprocessed ids are skipped, and the number of tasks actually
        released is returned.
        """
        flat = sorted_distinct(np.asarray(flat_ids, dtype=np.int64))
        if flat.size == 0:
            return 0
        if flat[0] < 0 or flat[-1] >= self._n**3:
            raise ValueError(f"task ids must lie in [0, {self._n**3})")
        ij, k = np.divmod(flat, self._n)
        i, j = np.divmod(ij, self._n)
        held = self._processed[i, j, k]
        count = int(np.count_nonzero(held))
        if count:
            self._processed[i[held], j[held], k[held]] = False
            self._remaining += count
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatrixTaskPool(n={self._n}, remaining={self._remaining}/{self.total})"
