"""Small shared array helpers for the task-pool bulk-marking primitives.

Both :class:`~repro.taskpool.outer_pool.OuterTaskPool` and
:class:`~repro.taskpool.matrix_pool.MatrixTaskPool` repeatedly need a
one-element ``int64`` array to feed a single new index into their
fancy-indexed marking slabs; keeping the constructor here avoids each pool
re-defining a local lambda for it.  Both pools and
:class:`~repro.taskpool.sample_set.SampleSet` deduplicate ids through
:func:`sorted_distinct`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["single_index_array", "sorted_distinct"]


def single_index_array(value: int) -> np.ndarray:
    """A one-element ``int64`` array holding *value* (for fancy indexing)."""
    return np.array([value], dtype=np.int64)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for integer ids, without importing ``numpy.ma``.

    A plain ``np.unique`` call tests its input with ``np.ma.is_masked``,
    which imports ``numpy.ma`` (~13 ms) in the first process that gets
    there; sorting and dropping repeats gives the same array.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
