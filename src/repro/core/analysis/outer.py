"""Closed-form communication prediction for DynamicOuter2Phases.

Lemma 4 (phase 1), Lemma 5 (phase 2) and Theorem 6 (total), plus the 1-D
minimization that yields the optimal switch parameter β.

Two variants of every formula are exposed:

* ``"exact"`` (default) — evaluates the phase volumes without first-order
  truncation: phase 1 ships ``2 n x_k`` blocks to worker ``k`` with
  ``x_k = sqrt(beta rs_k - beta^2/2 rs_k^2)``; phase 2 costs
  ``2 / (1 + x_k)`` blocks per task on worker ``k``, which processes an
  ``rs_k`` share of the ``e^{-beta} n^2`` remaining tasks.  This is the
  variant plotted as "Analysis" in the figures — it is what actually
  overlays the simulation.

* ``"first_order"`` — the paper's truncated expansions (with the sign/unit
  typos of the scan repaired; see DESIGN.md):
  ``V1/LB = sqrt(beta) - beta^{3/2} sum rs^{3/2} / (4 sum rs^{1/2})`` and
  ``V2/LB = e^{-beta} n (1 - sqrt(beta) sum rs^{3/2}) / sum rs^{1/2}``.

All ratios are relative to ``LB = 2 n sum_k sqrt(rs_k)``.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.core.analysis._brent import _polish_grid_minimum
from repro.core.analysis.lower_bounds import _check_rel, outer_lower_bound
from repro.core.analysis.ode import switch_fraction
from repro.utils.validation import check_positive_int

__all__ = [
    "outer_phase1_ratio",
    "outer_phase2_ratio",
    "outer_total_ratio",
    "optimal_outer_beta",
]

_VARIANTS = ("exact", "first_order")


def _check_variant(variant: str) -> str:
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    return variant


def outer_phase1_ratio(beta: float, rel_speeds: npt.ArrayLike, variant: str = "exact") -> float:
    """Lemma 4: phase-1 communication volume over the lower bound.

    Worker ``k`` ends phase 1 knowing ``x_k n`` blocks of each vector, so
    phase 1 ships ``2 n x_k`` blocks to it; the ratio is
    ``sum_k x_k / sum_k sqrt(rs_k)``.
    """
    _check_variant(variant)
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    rel = _check_rel(rel_speeds)
    denom = np.sum(np.sqrt(rel))
    if variant == "exact":
        x = switch_fraction(beta, rel, d=2)
        return float(np.sum(x) / denom)
    s32 = np.sum(rel**1.5)
    return float(np.sqrt(beta) - beta**1.5 * s32 / (4.0 * denom))


def outer_phase2_ratio(beta: float, rel_speeds: npt.ArrayLike, n: int, variant: str = "exact") -> float:
    """Lemma 5: phase-2 communication volume over the lower bound.

    ``e^{-beta} n^2`` tasks remain; worker ``k`` processes an ``rs_k`` share
    and pays ``2 / (1 + x_k)`` blocks per task in expectation (one block
    with probability ``2 x_k / (1 + x_k)``, two with ``(1 - x_k)/(1 + x_k)``).
    """
    _check_variant(variant)
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    rel = _check_rel(rel_speeds)
    n = check_positive_int("n", n)
    remaining = np.exp(-beta) * n * n
    lb = outer_lower_bound(rel, n)
    if variant == "exact":
        x = switch_fraction(beta, rel, d=2)
        volume = remaining * np.sum(rel * 2.0 / (1.0 + x))
        return float(volume / lb)
    s32 = np.sum(rel**1.5)
    s12 = np.sum(np.sqrt(rel))
    return float(np.exp(-beta) * n * (1.0 - np.sqrt(beta) * s32) / s12)


def outer_total_ratio(beta: float, rel_speeds: npt.ArrayLike, n: int, variant: str = "exact") -> float:
    """Theorem 6: total predicted communication over the lower bound."""
    return outer_phase1_ratio(beta, rel_speeds, variant) + outer_phase2_ratio(beta, rel_speeds, n, variant)


def _total_ratio_grid(betas: np.ndarray, rel: np.ndarray, n: int, variant: str) -> np.ndarray:
    """Vectorized :func:`outer_total_ratio` over an array of betas.

    Inputs are pre-validated by :func:`optimal_outer_beta`.  The arithmetic
    mirrors the scalar ratio functions operation for operation (betas
    broadcast along a leading axis), so the grid scan returns bit-identical
    values while costing a handful of array operations instead of hundreds
    of per-beta Python calls — the scan dominated ``reset()`` time of the
    auto-tuned two-phase strategies.
    """
    denom = np.sum(np.sqrt(rel))
    if variant == "exact":
        b = betas[:, np.newaxis]
        x = np.clip(b * rel - 0.5 * b**2 * rel**2, 0.0, 1.0) ** (1.0 / 2)
        phase1 = np.sum(x, axis=1) / denom
        lb = 2.0 * n * denom
        remaining = np.exp(-betas) * n * n
        phase2 = remaining * np.sum(rel * 2.0 / (1.0 + x), axis=1) / lb
        return np.asarray(phase1 + phase2)
    s32 = np.sum(rel**1.5)
    phase1 = np.sqrt(betas) - betas**1.5 * s32 / (4.0 * denom)
    phase2 = np.exp(-betas) * n * (1.0 - np.sqrt(betas) * s32) / denom
    return np.asarray(phase1 + phase2)


def optimal_outer_beta(
    rel_speeds: npt.ArrayLike,
    n: int,
    variant: str = "exact",
    *,
    beta_range: tuple[float, float] = (1e-3, 15.0),
) -> float:
    """β minimizing the Theorem-6 total ratio.

    A coarse grid scan locates the basin, then bounded Brent polishing
    refines it — the objective is smooth but can be very flat (Figure 6's
    valley spans roughly 3 <= β <= 6), so pure local search from a bad
    start is unreliable.

    The search is additionally capped at ``1 / max(rs_k)``: beyond that the
    Lemma-3 expansion ``x_k^2 = beta rs_k - beta^2/2 rs_k^2`` stops being
    monotone in β and the model loses meaning (relevant only for very small
    p, where the paper notes the analysis degrades anyway).
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
    return _polish_grid_minimum(lambda b: outer_total_ratio(b, rel, n, variant), grid, values)
