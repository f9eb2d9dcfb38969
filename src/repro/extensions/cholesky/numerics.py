"""Numerical replay of a scheduled Cholesky factorization.

Executes the simulated schedule's tasks in assignment order (a valid
topological order of the DAG) on a real SPD matrix, and compares the
resulting factor with the reference: ``L L^T = A`` and ``L`` equal (up to
floating point) to ``numpy.linalg.cholesky(A)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any

import numpy as np

from repro.extensions.cholesky.dag import TaskType
from repro.extensions.cholesky.scheduler import CholeskyResult, simulate_cholesky
from repro.platform.platform import Platform
from repro.utils.rng import SeedLike, as_generator

__all__ = ["CholeskyReplay", "replay_cholesky", "random_spd"]


@dataclass(frozen=True)
class CholeskyReplay:
    """Outcome of one numerical Cholesky replay."""

    factor: np.ndarray
    simulation: CholeskyResult
    max_abs_error: float  # || L L^T - A ||_max
    max_factor_error: float  # || L - chol(A) ||_max


def random_spd(size: int, *, rng: SeedLike = None) -> np.ndarray:
    """A well-conditioned random SPD matrix of the given size."""
    m = as_generator(rng).normal(size=(size, size))
    return m @ m.T + size * np.eye(size)


def replay_cholesky(
    a: np.ndarray,
    n: int,
    platform: Platform,
    scheduler: Any = None,
    *,
    rng: SeedLike = None,
) -> CholeskyReplay:
    """Factorize *a* (SPD, size divisible into ``n`` tiles) via a simulated
    schedule and verify the result numerically."""
    # Imported here, not at module level: the LU and Cholesky replays are
    # the package's only scipy users, and a module-level import would load
    # scipy in every process that imports the package.
    from scipy import linalg as sla

    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    if a.shape[0] % n != 0:
        raise ValueError(f"size {a.shape[0]} not divisible into {n} tiles")
    l = a.shape[0] // n

    result = simulate_cholesky(n, platform, scheduler, rng=rng)

    work = a.copy()

    def tile(i: int, j: int) -> np.ndarray:
        return work[i * l : (i + 1) * l, j * l : (j + 1) * l]

    from repro.extensions.cholesky.dag import CholeskyDag

    dag = CholeskyDag(n)

    for _start, _worker, tid in result.schedule:
        task = dag.tasks[tid]
        if task.kind is TaskType.POTRF:
            tile(task.k, task.k)[:] = np.linalg.cholesky(tile(task.k, task.k))
        elif task.kind is TaskType.TRSM:
            # L[i,k] = A[i,k] @ inv(L[k,k])^T  <=>  solve L[k,k] X^T = A^T.
            lkk = tile(task.k, task.k)
            aik = tile(task.i, task.k)
            aik[:] = sla.solve_triangular(lkk, aik.T, lower=True).T
        elif task.kind is TaskType.SYRK:
            lik = tile(task.i, task.k)
            tile(task.i, task.i)[:] -= lik @ lik.T
        else:  # GEMM
            lik = tile(task.i, task.k)
            ljk = tile(task.j, task.k)
            tile(task.i, task.j)[:] -= lik @ ljk.T

    factor = np.tril(work)
    max_abs_error = float(np.max(np.abs(factor @ factor.T - a)))
    max_factor_error = float(np.max(np.abs(factor - np.linalg.cholesky(a))))
    return CholeskyReplay(
        factor=factor,
        simulation=result,
        max_abs_error=max_abs_error,
        max_factor_error=max_factor_error,
    )
