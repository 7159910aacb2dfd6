"""Bracketed root finding for strictly monotone scalar functions.

All solver problems in this package (fugacity at fixed N and T, transition
temperature at fixed N) are strictly monotone on (0, inf), so a doubling
bracket expansion followed by Brent's method is both robust and
deterministic.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy.optimize import brentq

from .errors import ConvergenceError

_MAX_DOUBLINGS = 60


def solve_monotone_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a continuous, strictly monotone f on an expandable bracket.

    The hint [lo, hi] (0 < lo < hi) is widened geometrically, lo halving and
    hi doubling, until f changes sign; more than ``_MAX_DOUBLINGS``
    expansions raises ConvergenceError.  Brent iteration then runs to
    relative tolerance 1e-12 or 200 iterations, whichever comes first.
    Deterministic for identical inputs.
    """
    if not (0.0 < lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConvergenceError(f"bad bracket hint [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    expansions = 0
    while flo * fhi > 0.0:
        if expansions >= _MAX_DOUBLINGS:
            raise ConvergenceError(
                f"no sign change in [{lo}, {hi}] after {_MAX_DOUBLINGS} doublings"
            )
        lo *= 0.5
        hi *= 2.0
        flo = f(lo)
        fhi = f(hi)
        if not (math.isfinite(flo) and math.isfinite(fhi)):
            raise ConvergenceError("function not finite on expanded bracket")
        expansions += 1
    return float(brentq(f, lo, hi, xtol=1e-300, rtol=1e-12, maxiter=200, disp=False))
