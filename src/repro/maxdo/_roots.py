"""Brent's root bracketing, transcribed from scipy's ``brentq.c``.

The cost-model calibration needs one scalar root per library; importing
``scipy.optimize`` for it cost every process that builds a
:class:`~repro.maxdo.cost_model.CostModel` ~0.4 s of start-up.  This is
the same algorithm statement for statement (same tolerances, same
operation order), so it returns the identical double —
``tests/test_cost_model_properties.py`` pins it ``==`` against
``scipy.optimize.brentq``, which stays the test-time oracle.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["brentq"]

#: scipy's defaults: absolute tolerance, relative tolerance (4 eps), cap.
XTOL = 2e-12
RTOL = 8.881784197001252e-16
MAXITER = 100


def brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """Root of ``f`` in ``[a, b]``; ``f(a)`` and ``f(b)`` must differ in sign."""
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (XTOL + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
