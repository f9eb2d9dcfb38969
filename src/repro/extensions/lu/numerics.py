"""Numerical replay of a scheduled tiled LU factorization.

Executes the schedule in assignment order on a diagonally dominant matrix
and verifies ``L U = A`` with unit-diagonal ``L``.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any, Tuple

import numpy as np

from repro.extensions.lu.dag import LuDag, LuTaskType
from repro.extensions.lu.scheduler import LuResult, simulate_lu
from repro.platform.platform import Platform
from repro.utils.rng import SeedLike, as_generator

__all__ = ["LuReplay", "replay_lu", "random_dd"]


@dataclass(frozen=True)
class LuReplay:
    """Outcome of one numerical LU replay."""

    l_factor: np.ndarray
    u_factor: np.ndarray
    simulation: LuResult
    max_abs_error: float  # || L U - A ||_max / || A ||_max


def random_dd(size: int, *, rng: SeedLike = None) -> np.ndarray:
    """A random diagonally dominant matrix (safe for pivot-free LU)."""
    generator = as_generator(rng)
    m = generator.normal(size=(size, size))
    return m + size * np.eye(size)


def replay_lu(
    a: np.ndarray,
    n: int,
    platform: Platform,
    scheduler: Any = None,
    *,
    rng: SeedLike = None,
) -> LuReplay:
    """Factorize *a* via a simulated tiled-LU schedule and verify it."""
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

    result = simulate_lu(n, platform, scheduler, rng=rng)
    dag = LuDag(n)
    work = a.copy()

    def tile(i: int, j: int) -> np.ndarray:
        return work[i * l : (i + 1) * l, j * l : (j + 1) * l]

    for _start, _worker, tid in result.schedule:
        task = dag.tasks[tid]
        if task.kind is LuTaskType.GETRF:
            # In-place pivot-free Doolittle LU of the diagonal tile; safe
            # because elimination preserves diagonal dominance.
            t = tile(task.k, task.k)
            lo, up = _doolittle(t)
            t[:] = np.tril(lo, -1) + up
        elif task.kind is LuTaskType.TRSM_U:
            lkk = np.tril(tile(task.k, task.k), -1) + np.eye(l)
            tile(task.k, task.j)[:] = sla.solve_triangular(lkk, tile(task.k, task.j), lower=True, unit_diagonal=True)
        elif task.kind is LuTaskType.TRSM_L:
            ukk = np.triu(tile(task.k, task.k))
            # L[i,k] = A[i,k] inv(U[k,k])  <=>  U^T x^T = A^T.
            tile(task.i, task.k)[:] = sla.solve_triangular(ukk.T, tile(task.i, task.k).T, lower=True).T
        else:  # GEMM
            tile(task.i, task.j)[:] -= tile(task.i, task.k) @ tile(task.k, task.j)

    l_factor = np.tril(work, -1) + np.eye(n * l)
    u_factor = np.triu(work)
    scale = float(np.max(np.abs(a))) or 1.0
    err = float(np.max(np.abs(l_factor @ u_factor - a))) / scale
    return LuReplay(l_factor=l_factor, u_factor=u_factor, simulation=result, max_abs_error=err)


def _doolittle(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pivot-free Doolittle LU of a small tile (fallback path)."""
    m = t.shape[0]
    lo = np.eye(m)
    up = t.copy()
    for c in range(m - 1):
        if up[c, c] == 0:
            raise np.linalg.LinAlgError("zero pivot in pivot-free LU")
        factors = up[c + 1 :, c] / up[c, c]
        lo[c + 1 :, c] = factors
        up[c + 1 :] -= np.outer(factors, up[c])
    return lo, np.triu(up)
