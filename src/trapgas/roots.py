"""Root finding for strictly monotone scalar functions on (0, inf).

All solver problems in this package (fugacity at fixed N and T, transition
temperature at fixed N) are strictly monotone on (0, inf).  The solvers use
:func:`solve_log_newton`, a safeguarded Newton iteration in u = ln x (the
``rtsafe`` scheme of Press et al., *Numerical Recipes*, section 9.4) that
needs the slope beside each value.  :func:`solve_monotone_root` needs values
alone: a doubling bracket expansion followed by Brent's method, the
iteration of Brent (1973), *Algorithms for Minimization Without
Derivatives*, ch. 4, step for step as in scipy's ``brentq``, so it returns
the same floats.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceError

_MAX_DOUBLINGS = 60
#: Brent stops once the bracket is below XTOL + RTOL |x|; Brent and Newton
#: raise ConvergenceError after MAX_ITER steps.
_XTOL = 1e-300
_RTOL = 1e-12
_MAX_ITER = 200
#: Newton stops one evaluation after a step in ln x shorter than this, or
#: at once where |f| is below _F_FLOOR but the slope too flat for such a step.
_STEP_TOL = 1e-9
_F_FLOOR = 1e-15
#: Longest Newton step in ln x: a factor of 4 in x.
_MAX_STEP = math.log(4.0)


def solve_monotone_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a continuous, strictly monotone f on an expandable bracket.

    The hint [lo, hi] (0 < lo < hi) is widened geometrically, lo halving and
    hi doubling, until f changes sign; more than ``_MAX_DOUBLINGS``
    expansions, or a non-finite f at either end, raises ConvergenceError.
    Brent iteration then runs to relative tolerance 1e-12; a non-finite f
    inside the bracket, or no convergence in 200 iterations, raises
    ConvergenceError.  Deterministic; the root is a point at which f was evaluated.
    """
    if not (0.0 < lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConvergenceError(f"bad bracket hint [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    expansions = 0
    while True:
        if not (math.isfinite(flo) and math.isfinite(fhi)):
            raise ConvergenceError(f"function not finite on bracket [{lo}, {hi}]")
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi < 0.0:
            break
        if expansions >= _MAX_DOUBLINGS:
            raise ConvergenceError(
                f"no sign change in [{lo}, {hi}] after {_MAX_DOUBLINGS} doublings"
            )
        lo *= 0.5
        hi *= 2.0
        flo = f(lo)
        fhi = f(hi)
        expansions += 1
    return _brent(f, lo, hi, flo, fhi)


def _brent(f, xpre, xcur, fpre, fcur) -> float:
    """Brent's method on [xpre, xcur], given f(xpre) = fpre and f(xcur) = fcur.

    fpre and fcur are nonzero and of opposite sign.  xcur is the best
    estimate, xblk the other end of the bracket and xpre the previous
    estimate; each step interpolates (secant or inverse quadratic) when that
    shrinks the bracket fast enough, and bisects otherwise.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if (fpre < 0.0) != (fcur < 0.0):  # a zero fcur returns below either way
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if not math.isfinite(fcur):
            raise ConvergenceError(f"function not finite at x={xcur} inside the bracket")
    raise ConvergenceError(f"Brent iteration did not converge in {_MAX_ITER} steps")


def solve_log_newton(f, x: float) -> float:
    """Root of a strictly decreasing f on (0, inf), by Newton's method in u = ln x.

    f(x) returns f and its derivative with respect to ln x; x > 0 is the
    start.  A Newton step is cut to a factor of 4 in x.  Once points on
    both sides of the root have been evaluated, a step that would leave the
    nearest two is replaced by bisection in u between them.  x moves
    multiplicatively, x e^{du}, so it keeps full relative precision at any
    magnitude.  A step with |du| < 1e-9 is taken, f is evaluated
    once more there and that point returned; a point with |f| < 1e-15
    whose step is longer is returned as it is, since f carries rounding
    errors of that order and can guide x no further.  A non-finite value
    or slope, a slope that is not negative, or no convergence in 200 steps
    raises ConvergenceError.
    """
    x_pos = x_neg = None  # nearest evaluated points with f > 0 and f < 0
    converged = False
    for _ in range(_MAX_ITER):
        fx, slope = f(x)
        if not (math.isfinite(fx) and math.isfinite(slope) and slope < 0.0):
            raise ConvergenceError(f"value {fx} or slope {slope} not usable at x={x}")
        if fx == 0.0 or converged:
            return x
        if fx > 0.0:
            x_pos = x
        else:
            x_neg = x
        step = -fx / slope
        if abs(step) < _STEP_TOL:
            converged = True
        elif abs(fx) < _F_FLOOR:
            return x
        else:
            step = max(-_MAX_STEP, min(step, _MAX_STEP))
            bracketed = x_pos is not None and x_neg is not None
            if bracketed and not x_pos < x * math.exp(step) < x_neg:
                x = x_pos * math.sqrt(x_neg / x_pos)
                continue
        x *= math.exp(step)
    raise ConvergenceError(f"Newton iteration did not converge in {_MAX_ITER} steps")
