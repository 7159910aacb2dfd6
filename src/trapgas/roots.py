"""Newton's method in ln x for strictly decreasing functions, and its two drivers.

All solver problems in this package (fugacity at fixed N and T, transition
temperature at fixed N) are strictly monotone on (0, inf).  ``_newton`` is
a safeguarded Newton iteration in u = ln x (the ``rtsafe`` scheme of Press
et al., *Numerical Recipes*, section 9.4) that needs the slope beside each
value.  Each solve is written once, in :mod:`trapgas.core`, as a generator
coroutine around it: it yields the points to evaluate and returns its
result.  :func:`solve` runs one such coroutine on a scalar kernel, and
:func:`solve_lockstep` runs several in lockstep on a batched kernel, one
call per step, so a batched solve takes the single solve's steps.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

#: Newton raises ConvergenceError after MAX_ITER steps.
_MAX_ITER = 200
#: Newton stops one evaluation after a step in ln x shorter than this, or
#: at once where |f| is below _F_FLOOR but the slope too flat for such a step.
_STEP_TOL = 1e-9
_F_FLOOR = 1e-15
#: Longest Newton step in ln x: a factor of 4 in x.
_MAX_STEP = math.log(4.0)


def solve(problem, f):
    """Run one solve coroutine on a scalar kernel, and return its result.

    ``problem`` is a generator that yields each point it needs evaluated,
    is sent ``f(point)`` there, and returns its result (it may return
    before its first yield).  Errors raised by ``f`` or ``problem`` pass
    through.
    """
    try:
        point = next(problem)
        while True:
            point = problem.send(f(point))
    except StopIteration as done:
        return done.value


def solve_lockstep(problems, f) -> list:
    """Run several solve coroutines in lockstep, one kernel call per step.

    Each problem is run as :func:`solve` runs it, so each result is the one
    :func:`solve` gives.  ``f(active, points)`` evaluates the unfinished
    problems (their indices, ascending, and their current points) at once
    and returns their values in that order.  The first error raised by
    ``f`` or any problem passes through.
    """
    results = [None] * len(problems)
    active, values = range(len(problems)), [None] * len(problems)  # send(None) starts each
    while active:
        unfinished, points = [], []
        for i, value in zip(active, values):
            try:
                points.append(problems[i].send(value))
                unfinished.append(i)
            except StopIteration as done:
                results[i] = done.value
        active = unfinished
        if active:
            values = f(active, points)
    return results


def _newton(x: float):
    """Root of a strictly decreasing f on (0, inf), by Newton's method in u = ln x.

    A generator: it yields each point to evaluate, starting at x > 0, is
    sent (f, slope) there, the slope taken with respect to ln x, and
    returns the root.  A Newton step is cut to a factor of 4 in x.  Once
    points on both sides of the root have been evaluated, a step that
    would leave the nearest two is replaced by bisection in u between them.
    x moves multiplicatively, x e^{du}, so it keeps full relative precision
    at any magnitude.  A step with |du| < 1e-9 is taken, f is evaluated
    once more there and that point returned; a point with |f| < 1e-15
    whose step is longer is returned as it is, since f carries rounding
    errors of that order and can guide x no further.  f = -inf marks a
    point past the root whose f underflowed (a population rounded to 0):
    it becomes the f < 0 end of the bracket, and the next point bisects in
    u towards the nearest point with f > 0.  Any other non-finite value or
    slope, a slope that is not negative, an underflow with no point of
    f > 0 evaluated, or no convergence in 200 steps raises
    ConvergenceError.  The root is always the last point evaluated.
    """
    x_pos = x_neg = None  # nearest evaluated points with f > 0 and f < 0
    converged = False
    for _ in range(_MAX_ITER):
        fx, slope = yield x
        if fx == -math.inf and x_pos is not None and not converged:
            x_neg = x
            x = x_pos * math.sqrt(x_neg / x_pos)
            continue
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
