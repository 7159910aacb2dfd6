import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from trapgas import bose, core, exact, observables, semiclassical
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
        for x in (0.0, 1e-12, 1e-6, 0.05, 10.0):
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

    def test_tau_with_overflowing_cube_raises_domain_error(self):
        # One rule for every kernel (models.check_tau): a tau whose cube
        # overflows is refused before any l- or level sum.  Just below it
        # the excited cloud is frozen out, with no overflow warning.
        for call in (
            lambda tau: exact.excited_population_x(0.0, tau),
            lambda tau: exact.population_slope_ex_x(1.0, tau),
            lambda tau: exact.excited_density_x(0.0, tau, 0.0),
        ):
            with pytest.raises(DomainError, match="overflows"):
                call(1e307)
        tau = 5.6e102
        assert exact.excited_population_x(0.0, tau) == 0.0
        n0 = exact.ground_population(1.0)
        assert exact.population_slope_ex_x(1.0, tau) == (n0, -n0 * (n0 + 1.0))
        assert exact.excited_density_x(0.0, tau, 0.0) == 0.0

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
            exact.excited_density_x(x, tau, [0.0, 1.0])

    def test_head_near_ten_million_rows_in_flat_memory(self):
        # tau = 2.33e-7 (N ~ 1e20) needs a 9.9e6-row head; summed in slabs it
        # peaks at a few MB instead of several arrays of that length.  So do
        # three states that share that head, and 13 states of N = 1e12 near
        # T* (about 21,500 rows each) at the origin.
        tau = 2.33e-7
        near = ex_state(1e12, 0.995)
        tracemalloc.start()
        try:
            n_sat = exact.excited_population_x(0.0, tau)
            rho_0 = exact.excited_density_x(0.0, tau, 0.0)
            shared = exact._excited_gauss_sums([0.0, 1e-7, 1e-6], [tau] * 3, (0,), 0.0)
            copies = exact._columns([near.x] * 13, [near.tau] * 13, (0, 1, 2), 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert shared[0, 0, 0] == rho_0
        assert exact._head_length(near.x, near.tau)[0] > 20_000
        assert copies[:, :, 0].tolist() == [
            [exact.column_density_ex_x(near.x, near.tau, d, 0.0)] * 13 if d else
            [exact.density_ex_x(near.x, near.tau, 0.0)] * 13 for d in (0, 1, 2)
        ]
        assert n_sat == pytest.approx(
            semiclassical.saturated_population_sc(ModelKind.SC0, tau), rel=1e-9
        )
        scinf = bose.zeta_const(1.5) / (2.0 * math.pi * tau) ** 1.5
        assert rho_0 == pytest.approx(scinf, rel=1e-2)

    @pytest.mark.parametrize("x", [0.0, 1e-6, 1e-3])
    def test_slabs_match_one_pass(self, monkeypatch, x):
        # tau = 1e-3: heads of 2,303 rows (l_tail) or fewer; slabs of 1,000
        tau = 1e-3
        grid = np.linspace(0.0, 40.0, 7)
        n_one = exact.excited_population_x(x, tau)
        rho_one = exact.excited_density_x(x, tau, grid)
        col_one = exact.excited_column_x(x, tau, 2, grid)
        monkeypatch.setattr(exact, "_CHUNK_ELEMENTS", 1000)
        assert exact.excited_population_x(x, tau) == pytest.approx(n_one, rel=1e-14)
        np.testing.assert_allclose(exact.excited_density_x(x, tau, grid), rho_one, rtol=1e-14)
        np.testing.assert_allclose(exact.excited_column_x(x, tau, 2, grid), col_one, rtol=1e-14)


class TestSlopes:
    @pytest.mark.parametrize(
        "x, tau, tail",
        [(1e-4, 0.05, True), (0.5, 0.05, True), (2.0, 0.05, False),
         (18.0, 12.0, True), (1e-3, 20.0, True)],
    )
    def test_population_slope_against_mpmath(self, x, tau, tail):
        # (18, 12) is the state N = 1e-8 at tau = 12: its tail's 1/(e^a - 1)
        # must not overflow.
        assert exact._head_length(x, tau)[1] == tail
        value, slope = exact.population_slope_ex_x(x, tau)
        assert value == exact.population_ex_x(x, tau)
        ref = oracles.mp_derivative(lambda v: oracles.mp_level_sum(v, tau)[0], x)
        assert slope == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("tau", [0.01, 0.05, 0.5, 12.0, 20.0])
    def test_saturated_slope_against_mpmath(self, tau):
        value, slope = exact.saturated_slope_ex(tau)
        assert value == exact.excited_population_x(0.0, tau)
        ref = oracles.mp_derivative(lambda t: oracles.mp_level_sum(0, t, 1)[0], tau)
        assert slope == pytest.approx(ref, rel=1e-10)

    def test_saturated_slope_beyond_old_term_cap(self):
        # tau = 1e-8 (N ~ 1e24): an l-sum head would need 2.3e8 terms.  The level
        # sum's rest is closed-form, and its leading terms are the SC0 capacity
        # zeta(3)/tau^3 + 1.5 zeta(2)/tau^2; the next is O(1/tau), 1e-16 of it.
        tau = 1e-8
        value, slope = exact.saturated_slope_ex(tau)
        z3, z2 = bose.zeta_const(3.0), bose.zeta_const(2.0)
        assert value == pytest.approx(z3 / tau**3 + 1.5 * z2 / tau**2, rel=1e-13)
        assert slope == pytest.approx(-3.0 * z3 / tau**4 - 3.0 * z2 / tau**3, rel=1e-13)


    @pytest.mark.parametrize("wrt", ["x", "tau"])
    def test_batched_kernel_equals_scalar(self, wrt):
        # The batched solves need the scalar kernel's floats state by state:
        # states near and far from saturation, with y0 = x + 40 tau on both
        # sides of X_SWITCH, frozen ones whose Euler-Maclaurin rest
        # underflows to 0, and batches of one and two states.
        rng = np.random.default_rng(23)
        x = np.concatenate([10.0 ** rng.uniform(-9.0, 2.5, 60), [0.0, 0.0, 800.0, 3.0]])
        tau = np.concatenate([10.0 ** rng.uniform(-4.5, 1.5, 60), [1e-4, 50.0, 1e-3, 1e40]])
        for lo, hi in [(0, x.size), (0, 1), (61, 63)]:
            total, slope = exact._excited_populations(x[lo:hi], tau[lo:hi], wrt)
            scalar = [exact._excited_population(a, b, wrt) for a, b in zip(x[lo:hi], tau[lo:hi])]
            assert total.tolist() == [t for t, _ in scalar]
            assert slope.tolist() == [float(s) for _, s in scalar]


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

    @pytest.mark.parametrize(
        "column",
        [
            lambda s: exact.excited_column_x(0.1, 0.1, 3, s),
            lambda s: exact.column_density_ex_x(0.1, 0.1, 3, s),
            lambda s: exact.column_density_ex(math.exp(-0.1), 0.1, 3, s),
        ],
        ids=["excited_column_x", "column_density_ex_x", "column_density_ex"],
    )
    def test_full_integration_admits_only_s_zero(self, column):
        # d = 3 leaves no coordinate: s = 1 used to return 1194.36, not the
        # excited atom number 1271.90 of s = 0.
        for s in (1.0, [0.0, 1.0], math.nan):
            with pytest.raises(DomainError):
                column(s)
        assert exact.excited_column_x(0.1, 0.1, 3, [0.0]) == pytest.approx(
            [exact.excited_population_x(0.1, 0.1)], rel=1e-12
        )


def ex_state(atoms, t_ratio):
    t_star = core.transition_temperature(ModelKind.EX, atoms).temperature
    units = core.ReducedUnits.from_temperature(t_ratio * t_star)
    return core.solve_fugacity(ModelKind.EX, atoms, units)


class TestGaussKernel:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_non_finite_coordinate_raises_domain_error(self, bad, d):
        with pytest.raises(DomainError):
            exact._excited_gauss_sum(0.01, 0.1, d, [0.0, bad])

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_total_checks_coordinates_before_the_ground_term(self, d):
        # The ground-state Gaussian used to square 1e200 first: RuntimeWarning.
        with pytest.raises(DomainError):
            if d:
                exact.column_density_ex_x(0.01, 0.1, d, [0.0, 1e200])
            else:
                exact.density_ex_x(0.01, 0.1, [0.0, 1e200])

    @pytest.mark.parametrize(
        "profile",
        [
            lambda s: semiclassical.density_sc_x("sc", 1.0, 10.0, s),
            lambda s: semiclassical.column_density_sc_x("sc0", 1.0, 10.0, 1, s),
            lambda s: exact.excited_density_x(1.0, 10.0, s),
            lambda s: exact.excited_column_x(1.0, 10.0, 1, s),
            lambda s: exact.excited_column_x(1.0, 10.0, 2, s),
        ],
        ids=["sc-density", "sc0-column-d1", "ex-density", "ex-column-d1", "ex-column-d2"],
    )
    def test_coordinate_whose_tau_s2_overflows_reads_zero(self, profile):
        # s^2 = 1e308 is finite, so admitted, but tau s^2 and 2 s^2 are not:
        # the profile there is 0.0, with no RuntimeWarning (an error here).
        values = profile([0.0, 1e154])
        assert values[0] > 0.0 and values[1] == 0.0

    @pytest.mark.parametrize(
        "profile",
        [
            lambda s: semiclassical.density_sc_x("sc", 1e-3, 0.1, s),
            lambda s: semiclassical.column_density_sc_x("sc0", 1e-3, 0.1, 1, s),
            lambda s: exact.density_ex_x(1e-3, 0.1, s),
            lambda s: exact.column_density_ex_x(1e-3, 0.1, 1, s),
            lambda s: exact.excited_density_x(1e-3, 0.1, s),
            lambda s: exact.excited_column_x(1e-3, 0.1, 2, s),
        ],
        ids=["sc-density", "sc0-column-d1", "ex-density", "ex-column-d1", "ex-excited",
             "ex-excited-column-d2"],
    )
    def test_empty_and_two_dimensional_grids_keep_their_shape(self, profile):
        # As the semi-classical twins do: an empty grid gives an empty array,
        # and a 2-D grid the flat grid's values in its own shape.
        assert profile([]).shape == (0,)
        assert profile([[0.0, 1.0]]).tolist() == [profile([0.0, 1.0]).tolist()]
        square = profile([[0.0, 1.0], [2.0, 3.0]])
        assert square.shape == (2, 2)
        assert square.ravel().tolist() == profile([0.0, 1.0, 2.0, 3.0]).tolist()

    @pytest.mark.parametrize("chunk", [None, 3_000], ids=["budget", "small-chunks"])
    def test_values_are_pointwise(self, chunk, monkeypatch):
        # A value depends on its own state and coordinate only: a grid, its
        # one-point calls and any sub-grid agree bit for bit, on grids of 1
        # to 2,000 points cut into chunks (the small budget cuts every grid).
        # Heads of 1 to 792 rows, with the q-series tail and without it.
        if chunk is not None:
            monkeypatch.setattr(exact, "_CHUNK_ELEMENTS", chunk)
        rng = np.random.default_rng(11)
        states = [(s.x, s.tau) for s in (ex_state(1e3, 1.005), ex_state(1e6, 0.99),
                                         ex_state(1e8, 1.02))]
        states += [(0.0, 0.01), (2.0, 0.3), (1e-3, 2.5)]
        for (x, tau), n in zip(states, [1, 2000, 400, 37, 2000, 2]):
            grid = np.sort(rng.uniform(0.0, 6.0 / math.sqrt(tau), n))
            for d in (0, 1, 2):
                full = exact._excited_gauss_sum(x, tau, d, grid).tolist()
                for i in rng.choice(n, min(n, 4), replace=False).tolist():
                    assert exact._excited_gauss_sum(x, tau, d, float(grid[i])) == full[i]
                lo = int(rng.integers(0, n))
                hi = int(rng.integers(lo + 1, n + 1))
                assert exact._excited_gauss_sum(x, tau, d, grid[lo:hi]).tolist() == full[lo:hi]
                picks = np.sort(rng.choice(n, min(n, 50), replace=False))
                got = exact._excited_gauss_sum(x, tau, d, grid[picks]).tolist()
                assert got == [full[i] for i in picks.tolist()]

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("first_unsafe", ["start", "middle", "end"])
    def test_exp_split_keeps_pointwise_values(self, order, first_unsafe, monkeypatch):
        # _head_sums takes plain exp on the leading grid points where no head
        # term can underflow, s^2 max(a_l) < -_EXP_UNDERFLOW, and the masked
        # exp past them.  Grids straddle that edge, in chunks of `width`
        # points whose first unsafe point (ascending) lies at a chunk's start,
        # middle or end; one state (one slab) and states of four tau (a chunk
        # of several slabs, whose largest a is not the last row's).
        rng = np.random.default_rng(3)
        width, chunks = 8, 5
        at = {"start": 2 * width, "middle": 2 * width + width // 2, "end": 3 * width - 1}
        for states in ([(1e-6, 0.01)], [(1e-6, 0.01), (1e-3, 0.05), (0.5, 0.3), (1e-9, 2.5)]):
            heads = [exact._head_length(x, t)[0] for x, t in states]
            a_max = max(math.tanh(0.5 * t * head) for (_, t), head in zip(states, heads))
            edge = math.sqrt(-exact._EXP_UNDERFLOW / a_max)
            j = at[first_unsafe]
            grid = edge * np.concatenate([np.linspace(0.0, 0.999, j),
                                          np.linspace(1.001, 1.5, width * chunks - j)])
            assert grid[j - 1] < edge < grid[j]
            if order == "descending":
                grid = grid[::-1].copy()
            elif order == "shuffled":
                grid = rng.permutation(grid)
            monkeypatch.setattr(exact, "_CHUNK_ELEMENTS", sum(heads) * width)
            xs, taus = zip(*states)
            got = exact._excited_gauss_sums(xs, taus, (0, 1, 2), grid)
            for k, d in enumerate((0, 1, 2)):
                for i, (x, t) in enumerate(states):
                    assert got[k, i].tolist() == [
                        exact._excited_gauss_sum(x, t, d, s) for s in grid.tolist()
                    ]

    def test_exp_on_a_prefix_keeps_exp_bits(self):
        # The split takes exp on contiguous slices of the head buffer: a
        # prefix of whole grid points and the rest.  On each, exp gives the
        # bits it gives on the whole buffer (strided input may round otherwise).
        rng = np.random.default_rng(7)
        for rows in (1, 7, 231):
            a = np.tanh(0.5 * rng.uniform(0.01, 2.0) * np.arange(1.0, rows + 1.0))
            s = np.sort(rng.uniform(0.0, 40.0, 301))
            buf = (-(s * s)[:, None] * a).reshape(-1)
            whole = np.exp(buf).view(np.int64)
            for point in (0, 1, 13, 150, 300, 301):
                b = buf.copy()
                prefix, rest = b[: point * rows], b[point * rows:]
                np.exp(prefix, out=prefix)
                np.exp(rest, out=rest, where=rest > exact._EXP_UNDERFLOW)
                np.maximum(rest, 0.0, out=rest)
                assert np.array_equal(b.view(np.int64), whole)

    def test_underflow_skip_keeps_exp_bits(self):
        # _head_sums takes exp only above _EXP_UNDERFLOW and writes +0.0
        # elsewhere.  That keeps every float because exp is +0.0 below the
        # edge and the masked loop gives the plain loop's bits where it runs.
        edge = exact._EXP_UNDERFLOW
        below = np.append(np.linspace(-1e4, edge, 200_001), -np.inf)
        assert not np.exp(below).view(np.int64).any()
        rng = np.random.default_rng(5)
        t = np.concatenate([
            rng.uniform(-800.0, 0.0, 600_000),
            rng.uniform(edge - 0.5, edge + 0.5, 200_000),  # mixed runs at the edge
            rng.uniform(-745.13, -708.4, 200_000),  # subnormal results
        ])
        # Mixed order, then descending rows as in a head buffer; both
        # contiguous, as the buffers are (strided, exp may round otherwise).
        for args in (t, -np.sort(-t).reshape(1000, -1)):
            b = args.copy()
            np.exp(b, out=b, where=b > edge)
            np.maximum(b, 0.0, out=b)
            assert np.array_equal(b.view(np.int64), np.exp(args).view(np.int64))

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
        totals = np.zeros((1, 1, s.size))
        exact._tail_sums([(x, tau, l_end)], slice(None), (d,), -(s**2), np.exp(-(s**2)), totals)
        tail = totals[0, 0]
        ref = oracles.mp_gauss_tail(x, tau, d, l_end, s, dps=30)
        np.testing.assert_allclose(tail, ref, rtol=1e-14, atol=0.0)


class TestSharedTauSums:
    """``_excited_gauss_sums`` gives ``_excited_gauss_sum``'s floats, state by state."""

    # At tau = 0.01 a head near saturation stops at l_tail = 231 and the
    # tail adds the rest; from x = 0.2 on the head is shorter (170, 67, 11
    # and 1 rows) and has no tail.  Four x share the tailed head.
    TAU = 0.01
    XS = [0.0, 0.5, 1e-6, 3.0, 1e-3, 0.5, 0.2, 1e-12, 40.0]
    # States (x, tau) at three tau on one grid, in six groups of one tau and
    # head: at 0.01, 231 rows and the tail (three states) or 67 rows (two);
    # at 0.05, 47 rows and the tail (two) or 17; at 0.3, 8 rows and the
    # tail or 7.
    MIXED = [(1e-6, 0.01), (0.3, 0.05), (1e-3, 0.01), (1e-6, 0.05), (0.5, 0.01),
             (2.0, 0.05), (5.0, 0.3), (1e-9, 0.01), (0.5, 0.01), (1e-3, 0.3)]

    @staticmethod
    def assert_single_sums(xs, taus, dims, grid):
        got = exact._excited_gauss_sums(xs, taus, dims, grid)
        assert got.shape == (len(dims), len(xs), len(grid))
        for d, rows in zip(dims, got.tolist()):
            assert rows == [
                exact._excited_gauss_sum(x, t, d, grid).tolist() for x, t in zip(xs, taus)
            ]

    @pytest.mark.parametrize("chunk", [None, 500])
    @pytest.mark.parametrize(
        "grid", [[0.0], [2.5], np.linspace(0.0, 20.0, 801)], ids=["origin", "point", "801"]
    )
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_mixed_heads_equal_single_sums(self, d, grid, chunk, monkeypatch):
        if chunk is not None:  # several grid chunks per slab
            monkeypatch.setattr(exact, "_CHUNK_ELEMENTS", chunk)
        heads = {exact._head_length(x, self.TAU) for x in self.XS}
        assert {tail for _, tail in heads} == {True, False} and len(heads) == 5
        self.assert_single_sums(self.XS, [self.TAU] * len(self.XS), (d,), grid)
        xs, taus = zip(*self.MIXED)
        rules = {(t, *exact._head_length(x, t)) for x, t in self.MIXED}
        assert len(rules) == 6 and {tail for *_, tail in rules} == {True, False}
        self.assert_single_sums(xs, taus, (d, *{0, 1, 2} - {d}), grid)

    @pytest.mark.parametrize("tau", [1e-4, 0.3, 2.5])
    def test_other_temperatures_equal_single_sums(self, tau):
        grid = np.linspace(0.0, 30.0, 57)
        xs = [1e-9, 0.7 * tau, 5.0 * tau, 1e-9, 12.0]
        self.assert_single_sums(xs, [tau] * len(xs), (0, 1, 2), grid)

    def test_origin_of_full_integration(self):
        got = exact._excited_gauss_sums(self.XS, [self.TAU] * len(self.XS), (3,), 0.0)
        assert got[0, :, 0].tolist() == [
            exact.excited_column_x(x, self.TAU, 3, 0.0) for x in self.XS
        ]

    def test_scalar_coordinate_gives_a_float(self):
        value = exact._excited_gauss_sum(1e-3, self.TAU, 0, 1.0)
        assert type(value) is float

    def test_bad_coordinate_raises_domain_error(self):
        with pytest.raises(DomainError, match="s >= 0"):
            exact._excited_gauss_sums(self.XS, [self.TAU] * len(self.XS), (0,), [0.0, math.nan])

    def test_missed_tail_bound_raises_truncation_error(self, monkeypatch):
        monkeypatch.setattr(exact, "REL_TOL", 1e-300)
        with pytest.raises(TruncationError, match="q-series tail"):
            exact._excited_gauss_sums([3.0, 1e-3], [self.TAU] * 2, (0,), [0.0, 1.0])

    def test_slab_sum_of_negative_zeros_is_positive_zero(self):
        # _head_sums writes a head's first slab sum where 0.0 + sum was added
        # before; the two differ only if numpy's sum could give -0.0.
        terms = np.full((3, 40), -0.0)
        for width in (1, 7, 8, 40):
            sums = np.add.reduce(terms[:, :width], 1)
            assert np.all(np.signbit(sums) == np.signbit(0.0 + sums))

    def test_compare_floats_script_reads_this_tree_as_its_own_parent(self, monkeypatch, capsys):
        # scripts/compare_floats.py with one state per stratum, against this
        # tree's own src: every part runs and reads 0 mismatches.
        path = SRC.parent / "scripts" / "compare_floats.py"
        spec = importlib.util.spec_from_file_location("compare_floats", path)
        script = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "PER_STRATUM", 1)
        try:
            assert script.main([str(SRC)]) == 0
        finally:
            for name in [m for m in sys.modules if m.split(".")[0] == "trapgas_parent"]:
                del sys.modules[name]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("30 states (seed 2005)")
        assert [line.split(":")[0] for line in lines[1:]] == [
            "scalar grids", "origins", "families", "observables", "far grids", "semiclassical",
            "solves", "populations", "figures", "sweep",
        ]
        assert all(", 0 mismatches, worst 0 ulp" in line for line in lines[1:])


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
    # The child reports its own VmHWM, which starts afresh at exec; ru_maxrss
    # would carry over the peak of the pytest process that forked it.
    ADDRESS_LIMIT = 1 << 30
    PEAK_RSS_CEILING_KB = 160 * 1024
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
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
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
        peak_rss_kb, traced_peak = (int(v) for v in proc.stdout.split()[-2:])
        assert peak_rss_kb < self.PEAK_RSS_CEILING_KB
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

    @pytest.mark.parametrize("n_max", [2.5, math.nan])
    def test_bad_level_count_raises_domain_error(self, n_max):
        # these used to raise TypeError
        with pytest.raises(DomainError):
            exact.level_populations_ex(0.5, 1.0, n_max)

    def test_level_count_above_ceiling_is_refused_before_the_loop(self, monkeypatch):
        monkeypatch.setattr(exact, "occupation", lambda x: pytest.fail("level summed"))
        with pytest.raises(DomainError, match="at most 1000000"):
            exact.level_populations_ex(0.5, 1.0, 10**6 + 1)
        with pytest.raises(DomainError):
            exact.level_populations_ex(0.5, 1.0, 10**100)


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

    def test_infinite_radius_raises_domain_error(self):
        # inf used to give nan; a huge finite r still gives the limit 0.0.
        with pytest.raises(DomainError, match="finite"):
            exact.eigenfunction_oracle(0.5, 1.0, math.inf)
        assert exact.eigenfunction_oracle(0.5, 1.0, 1e200) == 0.0

    @pytest.mark.parametrize("n_max", [-1, 2.5])
    def test_bad_level_count_raises_domain_error(self, n_max):
        # -1 used to raise IndexError, 2.5 TypeError
        with pytest.raises(DomainError):
            exact.eigenfunction_oracle(0.5, 1.0, 0.0, n_max=n_max)
