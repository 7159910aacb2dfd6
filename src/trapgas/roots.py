"""The solvers' one Newton coroutine and the one driver that runs solves.

Every solve in this package (fugacity at fixed N and T, transition
temperature at fixed N) seeks where a strictly decreasing value on
(0, inf) equals an atom number.  ``_newton`` is a safeguarded Newton
iteration in u = ln x on ln(value / atoms) (the ``rtsafe`` scheme of Press
et al., *Numerical Recipes*, section 9.4).  :func:`solve_lockstep` runs
solve coroutines built around it (:mod:`trapgas.core`), one kernel call
per step for all unfinished ones of a block of at most ``_BLOCK``; a
single solve is a list of one.
"""

from __future__ import annotations

import math
from itertools import islice

from .errors import ConvergenceError
from .models import occupation

#: Newton raises ConvergenceError after MAX_ITER steps.
_MAX_ITER = 200
#: Newton stops one evaluation after a step in ln x shorter than this, or
#: at once where |f| is below _F_FLOOR but the slope too flat for such a step.
_STEP_TOL = 1e-9
_F_FLOOR = 1e-15
#: Longest Newton step in ln x: a factor of 4 in x.
_MAX_STEP = math.log(4.0)
#: Problems per lockstep run.  It bounds a batch's memory at any size (an EX
#: step holds a (problems x 43) table) and keeps every figure's batch, at
#: most 200 states, in one run.
_BLOCK = 2048


def solve_lockstep(problems, f) -> list:
    """Run solve coroutines in lockstep, one kernel call per step, and return their results.

    Each problem is a generator that yields each point it needs evaluated,
    is sent the kernel's value there, and returns its result (it may
    return before its first yield).  ``f(active, points)`` evaluates the
    unfinished problems (their indices in ``problems``, ascending, and
    their current points) at once and returns their values in that order.
    ``problems`` is any iterable: it is run in blocks of ``_BLOCK``, each
    block's problems made only when the one before has finished, so no
    kernel call sees more than ``_BLOCK`` problems.  A problem's points and
    result do not depend on the others.  The first error raised by ``f`` or
    a problem of the first block that has one passes through.
    """
    results, problems = [], iter(problems)
    while block := list(islice(problems, _BLOCK)):
        offset = len(results)
        results += [None] * len(block)
        active = range(offset, len(results))
        values = iter([None] * len(block))  # send(None) starts each
        while active:
            unfinished, points = [], []
            for i in active:  # next() on an iterator costs less than a zip per step
                value = next(values)
                try:
                    points.append(block[i - offset].send(value))
                except StopIteration as done:
                    results[i] = done.value
                else:
                    unfinished.append(i)
            active = unfinished
            if active:
                values = iter(f(active, points))
    return results


def _newton(x: float, atoms: float, ground: bool = False):
    """Root of a strictly decreasing value(x) = atoms, by Newton's method in u = ln x.

    A generator: it yields each point to evaluate, from x > 0, is sent
    the value and its x-slope there, and returns the root, always the last
    point evaluated, and its value.  It steps on f = ln(value / atoms),
    whose slope in ln x is x slope / value, each step cut to a factor of 4
    in x and, once points on both sides of the root are known, replaced by
    bisection in u where it would leave the nearest two.  x moves as
    x e^{du}, keeping full relative precision at any magnitude.  After a
    step with |du| < 1e-9 it evaluates once more and returns that point; a
    point with |f| < 1e-15 (rounding noise) and a longer step is returned.
    A value that underflowed to 0 lies past the root: the next point
    bisects in u towards the nearest one with f > 0.  With a ground state
    (``ground``), the x-slope -N0 (N0 + 1) of N0 = 1/(e^x - 1) overflows
    from N0 of about 1.3e154 on; there, and only there, the slope in ln x
    is the ground term's alone, -(x N0) (N0 + 1) / value, leaving out the
    excited cloud's part, below 1e-150 of it.  Any other non-finite f or
    slope, a slope that is not negative, an underflow with no point of
    f > 0 known, or no convergence in 200 steps raises ConvergenceError.
    """
    x_pos = x_neg = None  # nearest evaluated points with f > 0 and f < 0
    converged = False
    for _ in range(_MAX_ITER):
        value, slope = yield x
        if value == 0.0:
            if x_pos is not None and not converged:
                x_neg = x
                x = x_pos * math.sqrt(x_neg / x_pos)
                continue
            fx = -math.inf
        else:
            fx = math.log(value / atoms)
            if ground and slope == -math.inf and (n0 := occupation(x)) * (n0 + 1.0) == math.inf:
                slope = -(x * n0) * ((n0 + 1.0) / value)
            else:
                slope = x * slope / value
        if not (abs(fx) < math.inf and -math.inf < slope < 0.0):  # nan fails too
            raise ConvergenceError(f"value {fx} or slope {slope} not usable at x={x}")
        if fx == 0.0 or converged:
            return x, value
        if fx > 0.0:
            x_pos = x
        else:
            x_neg = x
        step = -fx / slope
        if abs(step) < _STEP_TOL:
            converged = True
        elif abs(fx) < _F_FLOOR:
            return x, value
        else:
            step = _MAX_STEP if step > _MAX_STEP else -_MAX_STEP if step < -_MAX_STEP else step
            bracketed = x_pos is not None and x_neg is not None
            if bracketed and not x_pos < x * math.exp(step) < x_neg:
                x = x_pos * math.sqrt(x_neg / x_pos)
                continue
        x *= math.exp(step)
    raise ConvergenceError(f"Newton iteration did not converge in {_MAX_ITER} steps")
