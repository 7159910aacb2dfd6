"""The solvers' roots against 40-digit mpmath roots, and the Newton
coroutine in ``roots`` on test values, run by its driver, with its typed errors."""

import math

import mpmath as mp
import pytest

import trapgas as tg
from trapgas import roots
from trapgas.errors import ConvergenceError
from trapgas.models import ModelKind as M

import oracles


def _mp_population(model, x, tau):
    """EX or SC atom number and its x-derivative at the working precision."""
    if model == M.EX:
        return oracles.mp_level_sum(x, tau)[:2]
    z = mp.exp(-x)
    n0 = 1 / mp.expm1(x)
    slope = -mp.polylog(2, z) / tau**3 + 1.5 * mp.log(1 - z) / tau**2 - n0 * (1 + n0)
    return oracles.mp_population_sc(model.value, x, tau), slope


def _mp_capacity(model, tau):
    """Saturated excited population and its tau-derivative at the working precision."""
    if model == M.EX:
        value, _, slope = oracles.mp_level_sum(0, tau, first_level=1)
        return value, slope
    value = mp.zeta(3) / tau**3 + 1.5 * mp.zeta(2) / tau**2
    return value, -3 * mp.zeta(3) / tau**4 - 3 * mp.zeta(2) / tau**3


def _mp_root(f, start):
    """Newton's method at 40 digits from a float start near the root of f.

    It stops after a step below 1e-15 relative, which leaves an error of
    order that step squared.
    """
    with mp.workdps(40):
        x = mp.mpf(start)
        while True:
            value, slope = f(x)
            step = value / slope
            x -= step
            if abs(step) < 1e-15 * x:
                return x


# The solvers' roots are held to 2e-15 of 40-digit mpmath roots.
@pytest.mark.parametrize("model", [M.EX, M.SC])
@pytest.mark.parametrize("t_ratio", [0.7, 1.0, 1.5])
def test_matches_mpmath_on_fugacity_residual(model, t_ratio):
    atoms = 1e4
    tau = tg.transition_temperature(model, atoms).tau / t_ratio
    x = tg.solve_fugacity(model, atoms, tau).x

    def residual(v):
        value, slope = _mp_population(model, v, mp.mpf(tau))
        return value - atoms, slope

    assert abs(x / _mp_root(residual, x) - 1) <= 2e-15


@pytest.mark.parametrize("model", [M.EX, M.SC0])
@pytest.mark.parametrize("atoms", [1e3, 1e8])
def test_matches_mpmath_on_transition_residual(model, atoms):
    tau = tg.transition_temperature(model, atoms).tau

    def residual(v):
        value, slope = _mp_capacity(model, v)
        return value - atoms, slope

    assert abs(tau / _mp_root(residual, tau) - 1) <= 2e-15


def _solve(problem, f):
    """Run one problem with ``roots.solve_lockstep`` on the scalar kernel ``f``."""
    return roots.solve_lockstep([problem], lambda active, points: [f(points[0])])[0]


def _log_newton_cases():
    """Decreasing values of x, with their x-slopes, the atom number they meet and its root."""
    r = 3.7
    yield (lambda x: (r / x, -r / x**2)), 1.0, r
    yield (lambda x: (1.0 + (r / x) ** 3, -3.0 * (r / x) ** 3 / x)), 2.0, r
    # Flat far from the root, where Newton steps overshoot.
    value = lambda x: math.exp(math.atan(r - x))
    yield (lambda x: (value(x), -value(x) / (1.0 + (r - x) ** 2))), 1.0, r


@pytest.mark.parametrize("start", [1e-6, 0.5, 1.0, 2.0, 1e6])
def test_log_newton_finds_the_root(start):
    for f, atoms, root in _log_newton_cases():
        x, value = _solve(roots._newton(start * root, atoms), f)
        assert x == pytest.approx(root, rel=4e-16)
        assert value == f(x)[0]


def test_log_newton_stops_where_f_is_rounding_noise():
    # |f| < 1e-15 with a slope so flat that Newton would step a factor of
    # 10: the point is as good as f can tell, and is returned at once.
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 + 3e-16, -1e-20 / x

    assert _solve(roots._newton(2.0, 1.0), f) == (2.0, 1.0 + 3e-16)
    assert calls == [2.0]


def test_log_newton_non_finite_value_raises_convergence_error():
    def f(x):
        return (math.nan if x > 2.0 else 3.0 / x), -3.0 / x**2

    with pytest.raises(ConvergenceError, match="not usable"):
        _solve(roots._newton(1.0, 1.0), f)


def test_log_newton_bisects_back_from_an_underflowed_point():
    # The slope is so flat that Newton steps to 4x and then to 16x the
    # start, past the root 3.7, where the value underflows to 0; bisection
    # from there lands on the root.
    calls = []

    def f(x):
        calls.append(x)
        return (3.7 / x if x < 5.0 else 0.0), -0.1 * 3.7 / x**2

    x, _ = _solve(roots._newton(3.7 / 8.0, 1.0), f)
    assert x == pytest.approx(3.7, rel=1e-15)
    assert max(calls) > 5.0


def test_log_newton_underflow_without_a_positive_point_raises():
    with pytest.raises(ConvergenceError, match="not usable"):
        _solve(roots._newton(1.0, 1.0), lambda x: (0.0, -1.0))


def test_log_newton_iteration_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError, match="did not converge"):
        _solve(roots._newton(1e-3, 1.0), lambda x: ((2.0 / x) ** 3, -3.0 * (2.0 / x) ** 3 / x))


def test_lockstep_newton_finds_each_single_root():
    # Every problem starts from its own point and steps by the single
    # solve's rule, so the roots are the single solves' floats; problems
    # finish after different numbers of steps.
    problems = [
        (f, atoms, start * root)
        for f, atoms, root in _log_newton_cases()
        for start in (1e-6, 1.0, 1e6)
    ]
    seen = []

    def evaluate(active, points):
        seen.append(len(active))
        return [problems[i][0](x) for i, x in zip(active, points)]

    found = roots.solve_lockstep([roots._newton(x, atoms) for _, atoms, x in problems], evaluate)
    assert found == [_solve(roots._newton(x, atoms), f) for f, atoms, x in problems]
    assert seen[0] == len(problems) and seen[-1] < len(problems)


def test_lockstep_newton_raises_a_problem_error():
    good = lambda x: (3.7 / x, -3.7 / x**2)
    bad = lambda x: (math.nan, -1.0)
    with pytest.raises(ConvergenceError, match="not usable"):
        roots.solve_lockstep(
            [roots._newton(1.0, 1.0), roots._newton(1.0, 1.0)],
            lambda active, points: [(good, bad)[i](x) for i, x in zip(active, points)],
        )


def _finished(result):
    """A coroutine that returns ``result`` before its first yield."""
    return result
    yield


def test_problem_that_returns_before_its_first_yield():
    # Alone, such a problem never calls the kernel; in a batch, it is never
    # among the active problems, and the others find their single roots.
    calls = []

    def evaluate(active, points):
        calls.append(list(active))
        return [f(x) for x in points]

    f = lambda x: (3.7 / x, -3.7 / x**2)
    assert roots.solve_lockstep([_finished("done")], evaluate) == ["done"]
    assert calls == []
    problems = [
        roots._newton(1.0, 1.0), _finished("done"), roots._newton(10.0, 1.0), _finished(None)
    ]
    found = roots.solve_lockstep(problems, evaluate)
    single = [_solve(roots._newton(x, 1.0), f) for x in (1.0, 10.0)]
    assert found == [single[0], "done", single[1], None]
    assert calls[0] == [0, 2] and all(set(active) <= {0, 2} for active in calls)
    assert roots.solve_lockstep([_finished(1), _finished(2)], evaluate) == [1, 2]
    assert roots.solve_lockstep([], evaluate) == []


def test_lockstep_passes_a_kernel_error_through():
    def evaluate(active, points):
        raise ZeroDivisionError("kernel")

    with pytest.raises(ZeroDivisionError, match="kernel"):
        roots.solve_lockstep([roots._newton(1.0, 1.0)], evaluate)
