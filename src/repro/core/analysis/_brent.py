"""Bounded Brent minimization for the β polish, without scipy.

:func:`_bounded_brent` is an operation-for-operation port of scipy's
``optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded")``
(``scipy.optimize._optimize._minimize_scalar_bounded``: Brent's parabolic
interpolation with golden-section fallback on a closed interval) at its
defaults, ``xatol=1e-5`` and at most 500 objective evaluations.  Every
floating-point operation runs in scipy's order on the same IEEE doubles,
so the returned ``x`` equals scipy's bit for bit
(``tests/analysis/test_brent.py`` pins it against scipy itself).  Keeping
scipy out of :mod:`repro.core.analysis` keeps it off the import path of
every entry point.
"""

from __future__ import annotations

import math
from typing import Callable, List

import numpy as np

__all__: List[str] = []

_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_XATOL = 1e-5
_MAXFUN = 500


def _bounded_brent(func: Callable[[float], float], lo: float, hi: float) -> float:
    """The minimizer scipy's bounded method returns for *func* on ``[lo, hi]``.

    Variable names follow scipy's: ``xf``/``fx`` is the best point so far,
    ``nfc`` and ``fulc`` the two before it, ``e`` and ``rat`` the last two
    steps.  ``np.sign(d) + (d == 0)`` is written ``-1.0 if d < 0.0 else
    1.0``, the same value for every non-NaN ``d``.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAXFUN:
            break
    return xf


def _polish_grid_minimum(func: Callable[[float], float], grid: np.ndarray, values: np.ndarray) -> float:
    """Brent-polish the minimum of a grid scan between its two neighbours.

    *values* are *func* over *grid*; the polish runs on the bracket of grid
    points either side of the smallest value (clamped at the grid's ends).
    """
    best = int(np.argmin(values))
    left = float(grid[max(best - 1, 0)])
    right = float(grid[min(best + 1, grid.size - 1)])
    if left == right:  # pragma: no cover - degenerate single-point range
        return float(grid[best])
    return _bounded_brent(func, left, right)
