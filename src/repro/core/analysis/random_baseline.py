"""Closed-form expected volume of the cached Random* baselines.

The paper plots RandomOuter / RandomMatrix only empirically.  Their
expected communication has a clean coupon-collector form, which this
module provides (and the test suite validates against simulation):

Worker ``k`` processes ``T_k ≈ rs_k n^d`` uniformly random tasks.  For the
outer product, each task draws a uniformly random row index, so the chance
that a given ``a`` block is *never* needed is ``(1 - 1/n)^{T_k}``; the
worker therefore ends up holding ``n (1 - (1 - 1/n)^{T_k})`` blocks of
each input vector::

    V_outer = sum_k 2 n (1 - (1 - 1/n)^{rs_k n^2})

For matmul, each task needs one block of each of A, B, C drawn uniformly
from the ``n^2`` blocks of that operand::

    V_matrix = sum_k 3 n^2 (1 - (1 - 1/n^2)^{rs_k n^3})

Two regimes follow directly: when tasks-per-worker ≪ blocks the volume is
~``d`` blocks per task (full replication — the MapReduce bound), and when
tasks-per-worker ≫ blocks it saturates at the full-input capacity
``d n^{d-1}`` per worker, which is why the Figure 1/4 Random curves bend
over at large p.

These treat each task's blocks as independent draws.  A worker's tasks
are in fact distinct: under static speeds its count ``T_k`` is fixed by
the platform and its task set is a uniform ``T_k``-subset of the ``n^d``
tasks, so a block that ``n`` of those tasks need is missed with
probability ``C(n^d - n, T_k) / C(n^d, T_k)``.  :func:`exact_random_outer_volume`
and :func:`exact_random_matrix_volume` take the per-worker counts and
return that exact expectation (THEORY.md §3 says where the two differ).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.core.analysis.lower_bounds import _check_rel
from repro.utils.validation import check_positive_int

__all__ = [
    "expected_random_outer_volume",
    "expected_random_matrix_volume",
    "exact_random_outer_volume",
    "exact_random_matrix_volume",
]


def expected_random_outer_volume(rel_speeds: npt.ArrayLike, n: int) -> float:
    """Expected RandomOuter communication volume in blocks."""
    rel = _check_rel(rel_speeds)
    n = check_positive_int("n", n)
    tasks = rel * n * n
    return float(np.sum(2.0 * n * (1.0 - (1.0 - 1.0 / n) ** tasks)))


def expected_random_matrix_volume(rel_speeds: npt.ArrayLike, n: int) -> float:
    """Expected RandomMatrix communication volume in blocks."""
    rel = _check_rel(rel_speeds)
    n = check_positive_int("n", n)
    tasks = rel * float(n) ** 3
    blocks_per_operand = float(n) * n
    return float(np.sum(3.0 * blocks_per_operand * (1.0 - (1.0 - 1.0 / blocks_per_operand) ** tasks)))


def exact_random_outer_volume(tasks_per_worker: npt.ArrayLike, n: int) -> float:
    """Exact expected RandomOuter volume, given each worker's task count.

    ``sum_k 2 n (1 - C(n^2 - n, T_k) / C(n^2, T_k))``: each ``a`` row (and
    ``b`` column) is needed by ``n`` of the ``n^2`` tasks.
    """
    n = check_positive_int("n", n)
    return _exact_volume(tasks_per_worker, n * n, n, 2 * n)


def exact_random_matrix_volume(tasks_per_worker: npt.ArrayLike, n: int) -> float:
    """Exact expected RandomMatrix volume, given each worker's task count.

    ``sum_k 3 n^2 (1 - C(n^3 - n, T_k) / C(n^3, T_k))``: each block of A,
    B and C is needed by ``n`` of the ``n^3`` tasks.
    """
    n = check_positive_int("n", n)
    return _exact_volume(tasks_per_worker, n**3, n, 3 * n * n)


def _exact_volume(tasks_per_worker: npt.ArrayLike, total: int, share: int, blocks: int) -> float:
    """``sum_k blocks (1 - C(total - share, T_k) / C(total, T_k))``.

    The miss probability equals ``C(total - T_k, share) / C(total, share)``
    (the *share* tasks that need a block all fall outside the worker's
    subset), a product of *share* factors.
    """
    counts = np.asarray(tasks_per_worker)
    if counts.ndim != 1 or counts.size == 0 or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError("tasks_per_worker must be a non-empty 1-D array of integers")
    if (counts < 0).any() or (counts > total).any():
        raise ValueError(f"every task count must lie in [0, {total}]")
    j = np.arange(share, dtype=np.float64)
    missed = np.prod((total - counts[:, None] - j) / (total - j), axis=1)
    return float(np.sum(blocks * (1.0 - missed)))
