"""Closed-form communication prediction for DynamicMatrix2Phases.

Section 4.2 of the paper, with the same two-variant scheme as
:mod:`repro.core.analysis.outer`:

* ``"exact"`` — phase 1 ships ``3 n^2 x_k^2`` blocks to worker ``k`` (one
  ``x_k n`` x ``x_k n`` rectangle of each of ``A``, ``B``, ``C``) with
  ``x_k = (beta rs_k - beta^2/2 rs_k^2)^(1/3)``; phase 2 costs
  ``3 (1 - x_k^2)`` blocks per task in expectation (each of the three needed
  blocks is already held with probability ``x_k^2``) over the
  ``e^{-beta} n^3`` remaining tasks.

* ``"first_order"`` — the truncated expansion, with the scan's coefficient
  and normalization slips repaired (DESIGN.md):
  ``V1/LB = beta^{2/3} - beta^{5/3} sum rs^{5/3} / (3 sum rs^{2/3})`` and
  ``V2/LB = e^{-beta} n (1 - beta^{2/3} sum rs^{5/3}) / sum rs^{2/3}``.

All ratios are relative to ``LB = 3 n^2 sum_k rs_k^(2/3)``.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.core.analysis._brent import _polish_grid_minimum
from repro.core.analysis.lower_bounds import _check_rel, matrix_lower_bound
from repro.core.analysis.ode import switch_fraction
from repro.utils.validation import check_positive_int

__all__ = [
    "matrix_phase1_ratio",
    "matrix_phase2_ratio",
    "matrix_total_ratio",
    "optimal_matrix_beta",
]

_VARIANTS = ("exact", "first_order")


def _check_variant(variant: str) -> str:
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    return variant


def matrix_phase1_ratio(beta: float, rel_speeds: npt.ArrayLike, variant: str = "exact") -> float:
    """Phase-1 volume over the lower bound: ``sum_k x_k^2 / sum_k rs_k^{2/3}``."""
    _check_variant(variant)
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    rel = _check_rel(rel_speeds)
    denom = np.sum(rel ** (2.0 / 3.0))
    if variant == "exact":
        x = switch_fraction(beta, rel, d=3)
        return float(np.sum(x**2) / denom)
    s53 = np.sum(rel ** (5.0 / 3.0))
    return float(beta ** (2.0 / 3.0) - beta ** (5.0 / 3.0) * s53 / (3.0 * denom))


def matrix_phase2_ratio(beta: float, rel_speeds: npt.ArrayLike, n: int, variant: str = "exact") -> float:
    """Phase-2 volume over the lower bound.

    ``e^{-beta} n^3`` tasks remain; worker ``k`` processes an ``rs_k`` share
    at an expected ``3 (1 - x_k^2)`` blocks per task.
    """
    _check_variant(variant)
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    rel = _check_rel(rel_speeds)
    n = check_positive_int("n", n)
    remaining = np.exp(-beta) * n**3
    lb = matrix_lower_bound(rel, n)
    if variant == "exact":
        x = switch_fraction(beta, rel, d=3)
        volume = remaining * np.sum(rel * 3.0 * (1.0 - x**2))
        return float(volume / lb)
    s53 = np.sum(rel ** (5.0 / 3.0))
    s23 = np.sum(rel ** (2.0 / 3.0))
    return float(np.exp(-beta) * n * (1.0 - beta ** (2.0 / 3.0) * s53) / s23)


def matrix_total_ratio(beta: float, rel_speeds: npt.ArrayLike, n: int, variant: str = "exact") -> float:
    """Total predicted communication over the lower bound (Section 4.2)."""
    return matrix_phase1_ratio(beta, rel_speeds, variant) + matrix_phase2_ratio(beta, rel_speeds, n, variant)


def _total_ratio_grid(betas: np.ndarray, rel: np.ndarray, n: int, variant: str) -> np.ndarray:
    """Vectorized :func:`matrix_total_ratio` over an array of betas.

    Inputs are pre-validated by :func:`optimal_matrix_beta`.  Mirrors the
    scalar ratio functions operation for operation (betas broadcast along a
    leading axis) so the grid scan stays bit-identical; see the outer-product
    counterpart :func:`repro.core.analysis.outer._total_ratio_grid`.
    """
    denom = np.sum(rel ** (2.0 / 3.0))
    if variant == "exact":
        b = betas[:, np.newaxis]
        x = np.clip(b * rel - 0.5 * b**2 * rel**2, 0.0, 1.0) ** (1.0 / 3)
        phase1 = np.sum(x**2, axis=1) / denom
        lb = 3.0 * n * n * denom
        remaining = np.exp(-betas) * n**3
        phase2 = remaining * np.sum(rel * 3.0 * (1.0 - x**2), axis=1) / lb
        return np.asarray(phase1 + phase2)
    s53 = np.sum(rel ** (5.0 / 3.0))
    phase1 = betas ** (2.0 / 3.0) - betas ** (5.0 / 3.0) * s53 / (3.0 * denom)
    phase2 = np.exp(-betas) * n * (1.0 - betas ** (2.0 / 3.0) * s53) / denom
    return np.asarray(phase1 + phase2)


def optimal_matrix_beta(
    rel_speeds: npt.ArrayLike,
    n: int,
    variant: str = "exact",
    *,
    beta_range: tuple[float, float] = (1e-3, 15.0),
) -> float:
    """β minimizing the Section-4.2 total ratio (grid scan + Brent polish).

    As for the outer product, the search is capped at ``1 / max(rs_k)``,
    the validity boundary of the Lemma-3-style expansion.
    """
    _check_variant(variant)
    rel = _check_rel(rel_speeds)
    n = check_positive_int("n", n)
    lo, hi = float(beta_range[0]), float(beta_range[1])
    if not 0 <= lo < hi:
        raise ValueError(f"invalid beta_range {beta_range}")
    hi = min(hi, 1.0 / float(np.max(rel)))
    if hi <= lo:
        return hi

    grid = np.linspace(lo, hi, 200)
    values = _total_ratio_grid(grid, rel, n, variant)
    return _polish_grid_minimum(lambda b: matrix_total_ratio(b, rel, n, variant), grid, values)
