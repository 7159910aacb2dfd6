"""Calls at the edges of the admissible domain finish within a time ceiling.

Each call returns a value or raises one of the package's typed errors
within CEILING_S.  The ceiling is generous: each call below took well
under 0.1 s on a 2-core VM, so only a runaway sum or solve can pass it.
"""

import math
import time

import numpy as np
import pytest

import trapgas as tg
from trapgas import exact, observables
from trapgas.errors import ConvergenceError, DomainError, QuadratureError, TruncationError
from trapgas.models import ModelKind as M

CEILING_S = 2.0
TYPED = (DomainError, ConvergenceError, TruncationError, QuadratureError)


def elapsed(call) -> float:
    """Seconds one call takes, to its value or its typed error."""
    start = time.perf_counter()
    try:
        call()
    except TYPED:
        pass
    return time.perf_counter() - start


@pytest.mark.parametrize("atoms", [2.0, 1e3, 1e12])
@pytest.mark.parametrize("model", [M.EX, M.SC, M.SC0, M.SCINF])
def test_fugacity_solves_from_deep_condensate_to_far_above(model, atoms):
    for temperature in np.geomspace(1e-3, 1e6, 10).tolist():
        spent = elapsed(lambda: tg.solve_fugacity(model, atoms, 1.0 / temperature))
        assert spent < CEILING_S, (model, atoms, temperature)


def test_observables_of_a_large_hot_cloud():
    # N = 1e12 at T = 1e6, about a hundred times its T*.
    state = tg.solve_fugacity(M.EX, 1e12, 1e-6)
    grid = np.linspace(0.0, 8.0 * math.sqrt(state.temperature), 201)
    calls = [lambda d=d: observables.profile(state, grid, d) for d in (0, 1, 2)]
    calls += [lambda: observables.dip_height(state)]
    calls += [lambda p=p: observables.density_moment(state, p) for p in (2, 3)]
    for call in calls:
        assert elapsed(call) < CEILING_S


def test_excited_density_near_saturation_of_a_hot_cloud():
    grid = np.linspace(0.0, 4.0, 801)
    assert elapsed(lambda: exact.excited_density_x(1e-13, 1e-4, grid)) < CEILING_S
