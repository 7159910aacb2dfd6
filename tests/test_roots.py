"""Brent's method in ``roots`` against scipy's ``brentq``, and its typed errors."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import trapgas as tg
from trapgas import roots
from trapgas.errors import ConvergenceError
from trapgas.models import ModelKind as M


def _reference(f, lo, hi):
    return brentq(f, lo, hi, xtol=1e-300, rtol=1e-12, maxiter=200)


def _monotone_functions(seed, count):
    """Strictly monotone functions with a sign change on a random bracket."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        root, a, p = rng.uniform(0.1, 50.0), rng.uniform(0.01, 5.0), rng.uniform(0.3, 4.0)
        f = (
            lambda x, r=root: x - r,
            lambda x, r=root, p=p: x**p - r**p,
            lambda x, r=root: math.log(x / r),
            lambda x, r=root, a=a: math.tanh(a * (x - r)),
            lambda x, r=root, a=a: math.exp(a) - math.exp(a * x / r),
        )[i % 5]
        yield f, root * rng.uniform(0.01, 0.99), root * rng.uniform(1.01, 100.0)


@pytest.mark.parametrize("seed", range(4))
def test_matches_brentq_on_monotone_functions(seed):
    for f, lo, hi in _monotone_functions(seed, 100):
        assert roots.solve_monotone_root(f, lo, hi) == _reference(f, lo, hi)


@pytest.mark.parametrize("model", [M.EX, M.SC])
@pytest.mark.parametrize("t_ratio", [0.7, 1.0, 1.5])
def test_matches_brentq_on_fugacity_residual(model, t_ratio):
    atoms = 1e4
    tau = tg.transition_temperature(model, atoms).tau / t_ratio

    def residual(x):
        return tg.population_total(model, x, tau) - atoms

    x = tg.solve_fugacity(model, atoms, tau).x
    assert x == _reference(residual, 1e-12, 60.0)


@pytest.mark.parametrize("model", [M.EX, M.SC0])
@pytest.mark.parametrize("atoms", [1e3, 1e8])
def test_matches_brentq_on_transition_residual(model, atoms):
    tau_c = (tg.zeta_const(3.0) / atoms) ** (1.0 / 3.0)

    def residual(tau):
        return tg.saturated_population(model, tau) - atoms

    tau = tg.transition_temperature(model, atoms).tau
    assert tau == _reference(residual, tau_c / 4.0, tau_c * 4.0)


def test_reuses_bracket_end_values():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.3

    roots.solve_monotone_root(f, 1.0, 2.0)
    assert calls[:2] == [1.0, 2.0]
    assert 1.0 not in calls[2:] and 2.0 not in calls[2:]


def test_nan_inside_bracket_raises_convergence_error():
    # Finite at both ends, NaN where the first secant step lands (x = 1.5).
    def f(x):
        return math.nan if 1.2 < x < 1.8 else x - 1.5

    with pytest.raises(ConvergenceError, match="not finite"):
        roots.solve_monotone_root(f, 1.0, 2.0)


def test_iteration_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(roots, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError, match="did not converge"):
        roots.solve_monotone_root(lambda x: x**3 - 2.0, 1.0, 2.0)
