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

from trapgas import core, exact, observables
from trapgas.errors import DomainError, TruncationError
from trapgas.models import ModelKind

import oracles

PI32 = math.pi**1.5
SRC = Path(__file__).resolve().parent.parent / "src"


class TestTruncationConstants:
    def test_defaults(self):
        assert exact.REL_TOL == 1e-14
        assert exact.MAX_TERMS == 10_000_000


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

    def test_truncation_error(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_TERMS", 1000)
        with pytest.raises(TruncationError):
            exact.excited_population_x(0.0, 1e-4)

    def test_nan_fugacity_raises_domain_error(self):
        # NaN fails every ordered comparison; it must not reach the sum.
        with pytest.raises(DomainError):
            exact.excited_population_x(math.nan, 0.1)
        with pytest.raises(DomainError):
            core.population_total(ModelKind.EX, math.nan, 0.1)

    def test_saturated_capacity_at_9337(self):
        cap = exact.excited_population_x(0.0, 1.0 / 93.37)
        assert cap == pytest.approx(oracles.CAP_EX_AT_9337, rel=1e-12)

    @pytest.mark.parametrize("atoms", [2, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("ratio", [0.5, 1.01, 3.0])
    def test_against_fsum(self, atoms, ratio):
        t_star = core.transition_temperature(ModelKind.EX, atoms).temperature
        tau = 1.0 / (ratio * t_star)
        for x in (0.0, 1e-6, 0.05, 10.0):
            ref = oracles.fsum_population(x, tau)
            assert exact.excited_population_x(x, tau) == pytest.approx(ref, rel=5e-15)

    @pytest.mark.parametrize("x", [5e-324, 1e-300])
    def test_tiny_x_is_saturated(self, x):
        # e^{-lx} rounds to 1 for every l summed: the x = 0 sum, no overflow.
        tau = 1.0 / 93.37
        assert exact.excited_population_x(x, tau) == exact.excited_population_x(0.0, tau)
        grid = np.array([0.0, 1.0, 40.0])
        np.testing.assert_array_equal(
            exact.excited_density_x(x, tau, grid), exact.excited_density_x(0.0, tau, grid)
        )

    @pytest.mark.parametrize("tau", [0.01, 1.0, 800.0])
    def test_huge_x_underflows_to_zero(self, tau):
        assert exact.excited_population_x(800.0, tau) == 0.0
        grid = np.array([0.0, 1.0, 40.0])
        np.testing.assert_array_equal(exact.excited_density_x(800.0, tau, grid), 0.0)

    @pytest.mark.parametrize(
        "x,tau,tail", [(0.0, 1e-4, True), (0.1, 1e-3, False)], ids=["tail", "no-tail"]
    )
    def test_head_beyond_max_terms_raises_truncation_error(self, monkeypatch, x, tau, tail):
        # Both rules for the head length: l_tail = 23026 rows with the q-series
        # tail, and the 346 rows that leave out at most REL_TOL without it.
        head, with_tail = exact._head_length(x, tau)
        assert with_tail == tail and head > 100
        monkeypatch.setattr(exact, "MAX_TERMS", 100)
        with pytest.raises(TruncationError):
            exact.excited_population_x(x, tau)
        with pytest.raises(TruncationError):
            exact.excited_density_x(x, tau, [0.0, 1.0])


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


def ex_state(atoms, t_ratio):
    t_star = core.transition_temperature(ModelKind.EX, atoms).temperature
    units = core.ReducedUnits.from_temperature(t_ratio * t_star)
    return core.solve_fugacity(ModelKind.EX, atoms, units)


class TestGaussKernel:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_non_finite_coordinate_raises_domain_error(self, bad, d):
        with pytest.raises(DomainError):
            exact._excited_gauss_sum(0.01, 0.1, d, [0.0, bad])

    def test_nan_fugacity_raises_domain_error(self):
        with pytest.raises(DomainError):
            exact.excited_density_x(math.nan, 0.1, 0.0)

    def test_tail_beyond_max_terms_raises_truncation_error(self, monkeypatch):
        # At N = 1e10 near T* the tail starts near l = 4700 > MAX_TERMS.
        state = ex_state(1e10, 0.995)
        monkeypatch.setattr(exact, "MAX_TERMS", 1000)
        grid = np.linspace(0.0, 4.0, 5)
        with pytest.raises(TruncationError):
            exact.excited_density_x(state.x, state.tau, grid)
        with pytest.raises(TruncationError):
            exact.excited_column_x(state.x, state.tau, 1, 0.0)

    def test_tail_remainder_above_rel_tol_raises_truncation_error(self, monkeypatch):
        # The 60-power series leaves about 1e-30 of the sum out; 1e-300 asks
        # for more than it can give.
        monkeypatch.setattr(exact, "REL_TOL", 1e-300)
        with pytest.raises(TruncationError):
            exact.excited_density_x(1e-3, 0.1, 0.0)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_q_series_tail_against_mpmath(self, d):
        # The closed form of the terms l > l_end (q = e^{-tau l} below 0.1),
        # against their direct sum at 30 digits; tau is large enough for the
        # direct sum to be short.
        x, tau, l_end = 1e-3, 0.1, 24
        s = np.array([0.0, 1.0, 2.5, 4.0])
        tail = exact._q_series_tail(x, tau, d, l_end, s**2, np.zeros(s.size))
        ref = oracles.mp_gauss_tail(x, tau, d, l_end, s, dps=30)
        np.testing.assert_allclose(tail, ref, rtol=1e-14, atol=0.0)


#: States of the differential test: N from 1e2 to 1e12, T/T* from 0.5 to 1.5,
#: and cold clouds (tau 0.9 to 2.6), whose sums are one to three head rows
#: and the q-series tail, with its remainder bound tested out to s = 40.
BRUTE_STATES = [
    (atoms, ratio)
    for atoms in (1e2, 1e4, 1e6, 1e8, 1e10, 1e12)
    for ratio in (0.5, 0.99, 1.01, 1.5)
] + [(2, 0.5), (10, 0.5), (1e2, 0.3)]


class TestAgainstBruteSum:
    """The kernel against the blocked brute sum it replaced (``oracles``)."""

    @pytest.mark.parametrize("atoms,ratio", BRUTE_STATES)
    def test_densities_and_columns(self, atoms, ratio):
        state = ex_state(atoms, ratio)
        far = max(3.0 * math.sqrt(2.0 * state.temperature), 40.0)
        grid = np.concatenate([np.linspace(0.0, 4.0, 21), np.linspace(4.5, far, 8)])
        for d in (0, 1, 2, 3):
            got = exact._excited_gauss_sum(state.x, state.tau, d, grid)
            ref = oracles.brute_gauss_sum(state.x, state.tau, d, grid)
            # atol: far-out cold-cloud columns fall into the subnormal range.
            np.testing.assert_allclose(got, ref, rtol=5e-14, atol=1e-300)

    @pytest.mark.parametrize(
        "atoms,ratio", [(1e4, 0.9), (1e6, 0.99), (1e8, 0.99), (1e10, 0.996)]
    )
    def test_dip_height(self, atoms, ratio):
        # dip_height's two-stage search, run on the brute sum.  The dip is a
        # difference, so it is held to the peak excited density, not to itself.
        state = ex_state(atoms, ratio)

        def brute(r):
            return oracles.brute_gauss_sum(state.x, state.tau, 0, r)

        grid = np.linspace(0.0, 4.0, 801)
        excited = brute(grid)
        i = int(np.argmax(excited))
        fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 101)
        ref = max(float(np.max(brute(fine))) - float(excited[0]), 0.0)
        assert ref > 0.0
        got = observables.dip_height(state)
        assert abs(got - ref) <= 1e-13 * float(np.max(excited))


class TestMemory:
    # An unchunked l-block on this grid would need 4096 x 1e5 float64
    # (3.3 GB) per temporary; the child's address space is capped well
    # below that and its peak resident set must stay near the import cost.
    # The traced peak of the kernel calls alone is about 9 MB (a few arrays
    # the size of the grid); an unchunked (61 x grid) tail table reads 24 MB.
    ADDRESS_LIMIT = 1 << 30
    MAXRSS_CEILING_KB = 160 * 1024
    TRACED_CEILING_BYTES = 16 << 20
    CHILD = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
import numpy as np
from trapgas import core, exact
from trapgas.models import ModelKind
units = core.transition_temperature(ModelKind.EX, {atoms})
units = core.ReducedUnits.from_temperature({t_ratio} * units.temperature)
state = core.solve_fugacity(ModelKind.EX, {atoms}, units)
grid = np.linspace(0.0, 15.0, 100_000)
tracemalloc.start()
for d in {dims}:
    if d:
        out = exact.excited_column_x(state.x, state.tau, d, grid)
    else:
        out = exact.excited_density_x(state.x, state.tau, grid)
    assert np.all(np.isfinite(out))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(tracemalloc.get_traced_memory()[1])
"""

    def _check_child(self, atoms, t_ratio, dims):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        child = self.CHILD.format(
            limit=self.ADDRESS_LIMIT, atoms=atoms, t_ratio=t_ratio, dims=dims
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        maxrss_kb, traced_peak = (int(v) for v in proc.stdout.split()[-2:])
        assert maxrss_kb < self.MAXRSS_CEILING_KB
        assert traced_peak < self.TRACED_CEILING_BYTES

    def test_large_grid_density_and_column_stay_bounded(self):
        self._check_child(1e3, 1.0, (0, 1))

    def test_tail_active_state_stays_bounded(self):
        # N = 1e10 just below T*: the l-sum ends in the q-series tail, whose
        # (terms x grid) power table must stay chunked like the l-blocks.
        self._check_child(1e10, 0.99, (0,))


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

    def test_nan_radius_raises_domain_error(self):
        with pytest.raises(DomainError):
            exact.eigenfunction_oracle(0.5, 0.3, math.nan)
