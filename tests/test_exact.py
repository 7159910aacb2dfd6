import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from trapgas import exact
from trapgas.errors import DomainError, TruncationError

import oracles

PI32 = math.pi**1.5
SRC = Path(__file__).resolve().parent.parent / "src"


class TestLSumControl:
    def test_defaults(self):
        control = exact.LSumControl()
        assert control.rel_tol == 1e-14
        assert control.max_terms == 10_000_000

    def test_validation(self):
        with pytest.raises(DomainError):
            exact.LSumControl(rel_tol=1e-5)
        with pytest.raises(DomainError):
            exact.LSumControl(rel_tol=0.0)
        with pytest.raises(DomainError):
            exact.LSumControl(max_terms=10)


class TestPopulation:
    def test_small_z_single_term(self):
        z, tau = 1e-9, 0.7
        expected = z / (-math.expm1(-tau)) ** 3
        assert exact.population_ex(z, tau) == pytest.approx(expected, rel=1e-8)

    def test_reference_value(self):
        assert exact.population_ex(0.5, 1.0) == pytest.approx(
            oracles.POP_EX_HALF_TAU1, rel=1e-13
        )

    @pytest.mark.parametrize("z", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_against_level_sum(self, z, tau):
        levels = exact.level_populations_ex(z, tau, 400)
        assert exact.population_ex(z, tau) == pytest.approx(
            sum(p for _, _, p in levels), rel=1e-8
        )

    def test_against_reference_sum(self):
        for z, tau in [(0.2, 0.3), (0.8, 0.15), (0.99, 0.6)]:
            assert exact.population_ex(z, tau) == pytest.approx(
                oracles.mp_population_ex(z, tau), rel=1e-12
            )

    def test_truncation_error(self):
        control = exact.LSumControl(max_terms=1000)
        with pytest.raises(TruncationError):
            exact.excited_population_x(0.0, 1e-4, control)

    def test_saturated_capacity_at_9337(self):
        cap = exact.excited_population_x(0.0, 1.0 / 93.37)
        assert cap == pytest.approx(oracles.CAP_EX_AT_9337, rel=1e-12)


class TestDensity:
    def test_decays_to_zero(self):
        assert float(exact.density_ex(0.5, 1.0, 40.0)) < 1e-200

    def test_reference_values(self):
        assert float(exact.density_ex(0.5, 1.0, 0.0)) == pytest.approx(
            oracles.RHO_EX_HALF_TAU1_R0, rel=1e-13
        )
        assert float(exact.density_ex(0.5, 1.0, 1.0)) == pytest.approx(
            oracles.RHO_EX_HALF_TAU1_R1, rel=1e-13
        )
        assert float(exact.density_ex(0.9, 0.5, 2.0)) == pytest.approx(
            oracles.RHO_EX_09_TAU05_R2, rel=1e-13
        )

    def test_grid_matches_scalars(self):
        grid = np.array([0.0, 0.5, 1.0, 2.0])
        vector = exact.density_ex(0.7, 0.4, grid)
        for r, value in zip(grid, vector):
            assert value == pytest.approx(float(exact.density_ex(0.7, 0.4, r)), rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(
        z=st.floats(min_value=0.05, max_value=0.95),
        tau=st.floats(min_value=0.05, max_value=2.0),
    )
    def test_strictly_decreasing_in_radius(self, z, tau):
        grid = np.linspace(0.0, 6.0, 30)
        rho = exact.density_ex(z, tau, grid)
        assert np.all(np.diff(rho) < 0.0)

    @pytest.mark.parametrize("z", [0.5, 0.9])
    @pytest.mark.parametrize("tau", [0.2, 1.0])
    def test_normalization_identity(self, z, tau):
        # (1 - e^{-2 tau l}) tanh(tau l / 2) = (1 - e^{-tau l})^2 makes the
        # spatial integral reproduce the atom number term by term.
        r_max = 8.0 / math.sqrt(tau) + 8.0
        value, _ = integrate.quad(
            lambda r: 4.0 * math.pi * r * r * float(exact.density_ex(z, tau, r)),
            0.0,
            r_max,
            limit=300,
        )
        assert value == pytest.approx(exact.population_ex(z, tau), rel=1e-8)

    def test_semiclassical_limit(self):
        # tau^3 N(z, tau) -> g3(z) with first correction (3 tau / 2) g2(z)
        from trapgas import bose

        z = 0.5
        for tau in (0.05, 0.02):
            scaled = tau**3 * exact.population_ex(z, tau)
            correction = scaled - bose.bose_g(3.0, z)
            assert correction == pytest.approx(1.5 * tau * bose.bose_g(2.0, z), rel=0.05)


class TestColumns:
    def test_full_integration_gives_atom_number(self):
        for z, tau in [(0.5, 1.0), (0.9, 0.3)]:
            n = exact.column_density_ex(z, tau, 3, 0.0)
            assert n == pytest.approx(exact.population_ex(z, tau), rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_one_dim_matches_quadrature_of_density(self, s):
        z, tau = 0.6, 0.5
        direct = exact.column_density_ex(z, tau, 1, s)

        def rho(u):
            return float(exact.density_ex(z, tau, math.hypot(s, u)))

        value, _ = integrate.quad(rho, -30.0, 30.0, limit=300)
        assert direct == pytest.approx(value, rel=1e-7)

    @pytest.mark.parametrize("w", [0.0, 1.0])
    def test_column_consistency_1d_to_2d(self, w):
        z, tau = 0.6, 0.5
        direct = exact.column_density_ex(z, tau, 2, w)

        def col1(v):
            return float(exact.column_density_ex(z, tau, 1, math.hypot(w, v)))

        value, _ = integrate.quad(col1, -30.0, 30.0, limit=300)
        assert direct == pytest.approx(value, rel=1e-7)

    def test_bad_dims(self):
        with pytest.raises(DomainError):
            exact.column_density_ex(0.5, 1.0, 0, 0.0)
        with pytest.raises(DomainError):
            exact.column_density_ex(0.5, 1.0, 4, 0.0)


class TestMemory:
    # An unchunked l-block on this grid would need 4096 x 1e5 float64
    # (3.3 GB) per temporary; the child's address space is capped well
    # below that and its peak resident set must stay near the import cost.
    ADDRESS_LIMIT = 1 << 30
    MAXRSS_CEILING_KB = 160 * 1024
    CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
import numpy as np
from trapgas import core, exact
from trapgas.models import ModelKind
units = core.transition_temperature(ModelKind.EX, 1e3)
state = core.solve_fugacity(ModelKind.EX, 1e3, units)
grid = np.linspace(0.0, 15.0, 100_000)
rho = exact.excited_density_x(state.x, state.tau, grid)
col = exact.excited_column_x(state.x, state.tau, 1, grid)
assert np.all(np.isfinite(rho)) and np.all(np.isfinite(col))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

    def test_large_grid_density_and_column_stay_bounded(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD.format(limit=self.ADDRESS_LIMIT)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert int(proc.stdout.split()[-1]) < self.MAXRSS_CEILING_KB


class TestLevels:
    def test_ground_level(self):
        n, g, pop = exact.level_populations_ex(0.5, 2.0, 0)[0]
        assert (n, g) == (0, 1)
        assert pop == pytest.approx(1.0, rel=1e-14)  # z/(1-z) at z = 0.5

    def test_first_level_formula(self):
        levels = exact.level_populations_ex(0.5, 2.0, 1)
        n, g, pop = levels[1]
        occ = 0.5 * math.exp(-2.0) / (1.0 - 0.5 * math.exp(-2.0))
        assert (n, g) == (1, 3)
        assert pop == pytest.approx(3.0 * occ, rel=1e-14)

    def test_degeneracies_triangular(self):
        levels = exact.level_populations_ex(0.3, 1.0, 6)
        assert [g for _, g, _ in levels] == [1, 3, 6, 10, 15, 21, 28]


class TestEigenfunctionOracle:
    def test_pure_ground_limit(self):
        # z -> 0 with tau large enough that thermal occupation of n >= 1
        # is negligible: only z |psi_0|^2 survives
        z, tau = 1e-8, 25.0
        for r in (0.0, 1.0):
            expected = z * math.exp(-r * r) / PI32
            assert exact.eigenfunction_oracle(z, tau, r) == pytest.approx(
                expected, rel=1e-6
            )

    @pytest.mark.parametrize("z", [0.5, 0.9])
    @pytest.mark.parametrize("tau", [0.5, 1.0])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_matches_closed_form(self, z, tau, r):
        oracle = exact.eigenfunction_oracle(z, tau, r)
        assert float(exact.density_ex(z, tau, r)) == pytest.approx(oracle, rel=1e-8)

    def test_window_enforced(self):
        with pytest.raises(DomainError):
            exact.eigenfunction_oracle(0.5, 0.05, 1.0)
        with pytest.raises(DomainError):
            exact.eigenfunction_oracle(0.99, 1.0, 1.0)
        with pytest.raises(DomainError):
            exact.eigenfunction_oracle(0.5, 1.0, 1.0, n_max=500)
