import math

import numpy as np
import pytest

import trapgas as tg
from trapgas import semiclassical as sc
from trapgas.errors import DomainError
from trapgas.models import ModelKind as M

import oracles


class TestVariant:
    def test_rejects_exact_tag(self):
        with pytest.raises(DomainError):
            sc.ScVariant(M.EX)

    def test_rejects_sub_unit_ratio(self):
        with pytest.raises(DomainError):
            sc.ScVariant(M.SC, aniso_ratio=0.9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_ratio(self, bad):
        with pytest.raises(DomainError):
            sc.ScVariant(M.SC, aniso_ratio=bad)


class TestPopulation:
    def test_scinf_saturation(self):
        tau = 0.07
        assert sc.population_sc(M.SCINF, 1.0, tau) == pytest.approx(
            tg.zeta_const(3.0) / tau**3, rel=1e-14
        )

    @pytest.mark.parametrize("z", [0.2, 0.9, 0.999])
    @pytest.mark.parametrize("tau", [0.01, 0.3])
    def test_sc_minus_sc0_is_ground_state(self, z, tau):
        diff = sc.population_sc(M.SC, z, tau) - sc.population_sc(M.SC0, z, tau)
        assert diff == pytest.approx(z / (1.0 - z), rel=1e-12)

    def test_anisotropy_scales_finite_size_term(self):
        z, tau, ratio = 0.5, 0.1, 1.7
        base = sc.population_sc(M.SC0, z, tau)
        scaled = sc.population_sc(sc.ScVariant(M.SC0, ratio), z, tau)
        extra = 1.5 * (ratio - 1.0) * tg.bose_g(2.0, z) / tau**2
        assert scaled - base == pytest.approx(extra, rel=1e-12)
        # SCINF has no finite-size term to scale
        assert sc.population_sc(sc.ScVariant(M.SCINF, ratio), z, tau) == (
            sc.population_sc(M.SCINF, z, tau)
        )

    def test_sc_threshold_solution_matches_first_order_x(self):
        atoms = 1e6
        units = tg.transition_temperature(M.SC, atoms)
        state = tg.solve_fugacity(M.SC, atoms, units)
        record = tg.high_n_asymptotics(atoms)
        assert sc.population_sc(M.SC, state.z, units.tau) == pytest.approx(
            atoms, rel=1e-10
        )
        assert state.x == pytest.approx(record.x_star_first_order, rel=0.05)
        assert record.x_star_first_order == pytest.approx(8.549e-4, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            sc.population_sc(M.SC0, 1.2, 0.1)
        with pytest.raises(DomainError):
            sc.population_sc(M.SC, 1.0, 0.1)  # SC needs z < 1

    @pytest.mark.parametrize("kind", [M.SC, M.SC0, M.SCINF])
    def test_nan_x_names_x(self, kind):
        with pytest.raises(DomainError, match="x >= 0"):
            sc.population_sc_x(kind, math.nan, 0.1)


class TestDensity:
    def test_scinf_threshold_peak(self):
        tau = tg.transition_temperature(M.SCINF, 1e6).tau
        lam3 = (2.0 * math.pi * tau) ** 1.5
        peak = sc.density_sc(M.SCINF, 1.0, tau, 0.0)
        assert peak * lam3 == pytest.approx(tg.zeta_const(1.5), rel=1e-12)

    def test_sc_is_sc0_plus_ground_gaussian(self):
        z, tau = 0.99, 0.05
        grid = np.linspace(0.0, 8.0, 50)
        total = sc.density_sc(M.SC, z, tau, grid)
        base = sc.density_sc(M.SC0, z, tau, grid)
        gauss = (z / (1.0 - z)) * np.exp(-(grid**2)) / math.pi**1.5
        assert np.allclose(total, base + gauss, rtol=1e-14, atol=0.0)

    def test_sc0_tends_to_scinf(self):
        z = 0.8
        for tau in (0.05, 0.01):
            grid = np.linspace(0.0, 3.0, 7)
            diff = sc.density_sc(M.SC0, z, tau, grid) - sc.density_sc(
                M.SCINF, z, tau, grid
            )
            lam3 = (2.0 * math.pi * tau) ** 1.5
            x_loc = -math.log(z) + 0.5 * tau * grid**2
            expected = 1.5 * tau * np.array(
                [tg.bose_g_small_x(0.5, xv) if xv < 0.1 else tg.bose_g(0.5, math.exp(-xv)) for xv in x_loc]
            ) / lam3
            assert np.allclose(diff, expected, rtol=1e-12)

    def test_decays_at_large_radius(self):
        # thermal envelope falls like exp(-tau r^2 / 2)
        assert sc.density_sc(M.SC, 0.5, 0.2, 60.0) < 1e-150
        assert sc.density_sc(M.SC, 0.5, 0.2, 90.0) < 1e-300

    def test_sc0_refuses_saturation(self):
        with pytest.raises(DomainError):
            sc.density_sc(M.SC0, 1.0, 0.1, 0.5)
        # SCINF stays finite at z = 1
        assert sc.density_sc(M.SCINF, 1.0, 0.1, 0.5) > 0.0


class TestCondensateFraction:
    def test_scinf_cube_law(self):
        t_c = tg.transition_temperature(M.SCINF, 1e4).temperature
        assert sc.condensate_fraction_sc(M.SCINF, 1e4, 0.5 * t_c) == pytest.approx(
            1.0 - 0.5**3, rel=1e-12
        )
        assert sc.condensate_fraction_sc(M.SCINF, 1e4, 1.1 * t_c) == 0.0

    def test_sc0_just_below_transition(self):
        atoms = 1e3
        t_star = tg.transition_temperature(M.SC0, atoms).temperature
        frac = sc.condensate_fraction_sc(M.SC0, atoms, 0.98 * t_star)
        assert 0.0 < frac < 0.2
        assert sc.condensate_fraction_sc(M.SC0, atoms, t_star * 1.0001) == 0.0

    def test_sc_nonzero_at_transition(self):
        atoms = 1e3
        t_star = tg.transition_temperature(M.SC, atoms).temperature
        frac = sc.condensate_fraction_sc(M.SC, atoms, t_star)
        state = tg.solve_fugacity(M.SC, atoms, 1.0 / t_star)
        assert frac == pytest.approx(1.0 / (math.expm1(state.x) * atoms), rel=1e-12)
        assert frac > 0.01

    def test_sc_continuous_through_transition(self):
        atoms = 1e4
        t_star = tg.transition_temperature(M.SC, atoms).temperature
        temps = np.linspace(0.9 * t_star, 1.1 * t_star, 21)
        fracs = [sc.condensate_fraction_sc(M.SC, atoms, t) for t in temps]
        steps = np.abs(np.diff(fracs))
        assert np.all(steps < 0.05)
        assert all(a >= b - 1e-12 for a, b in zip(fracs, fracs[1:]))


class TestHighN:
    def test_degeneracy_limit_constant(self):
        record = tg.high_n_asymptotics(1e6)
        expected = tg.zeta_const(1.5) + 2.0 * math.sqrt(2.0 * tg.zeta_const(2.0))
        assert record.degeneracy_limit == pytest.approx(expected, rel=1e-15)
        assert record.degeneracy_limit == pytest.approx(6.23997, abs=1e-5)

    def test_tau_c(self):
        record = tg.high_n_asymptotics(1e6)
        assert record.tau_c == pytest.approx(1.06327e-2, rel=1e-5)

    @pytest.mark.parametrize("atoms", [1e3, 1e6, 1e8])
    def test_second_order_below_first(self, atoms):
        record = tg.high_n_asymptotics(atoms)
        assert record.x_star_second_order < record.x_star_first_order


class TestGroundShareTrend:
    def test_share_increases_toward_limit(self):
        limit = 2.0 * math.sqrt(2.0 * tg.zeta_const(2.0)) / tg.DEGENERACY_LIMIT
        shares = []
        for atoms in (1e6, 1e8, 1e10):
            units = tg.transition_temperature(M.SC, atoms)
            state = tg.solve_fugacity(M.SC, atoms, units)
            shares.append(tg.peak_report(state).peak_fraction)
        print(f"SC threshold ground shares vs N: {shares} -> limit {limit:.5f}")
        assert shares[0] < shares[1] < shares[2] < limit

    @pytest.mark.xfail(
        strict=True,
        reason="the finite-size g_{1/2} term decays only like tau^(1/4); at "
        "N = 1e8 the SC ground share is 0.531, still 8.7% below the 0.5814 "
        "limit (5% is reached only around N ~ 1e12)",
    )
    def test_share_within_five_percent_at_1e8(self):
        limit = 2.0 * math.sqrt(2.0 * tg.zeta_const(2.0)) / tg.DEGENERACY_LIMIT
        units = tg.transition_temperature(M.SC, 1e8)
        state = tg.solve_fugacity(M.SC, 1e8, units)
        share = tg.peak_report(state).peak_fraction
        assert share == pytest.approx(limit, rel=0.05)


class TestColumns:
    S = [0.0, 1.0, 3.0, 6.0, 10.0]

    @pytest.mark.parametrize("kind", [M.SC, M.SC0, M.SCINF])
    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("ratio", [1.0, 1.4])
    def test_closed_form_matches_quadrature(self, kind, dims, ratio):
        # x + tau s^2 / 2 spans both sides of X_SWITCH on this grid
        variant = sc.ScVariant(kind, ratio)
        x, tau = 0.02, 0.05
        closed = sc.column_density_sc_x(variant, x, tau, dims, np.array(self.S))
        for s, value in zip(self.S, closed):
            ref = oracles.quad_column_sc(variant, x, tau, dims, s)
            assert value == pytest.approx(ref, rel=1e-8)

    def test_scinf_saturated_column_is_finite(self):
        value = sc.column_density_sc_x(M.SCINF, 0.0, 0.1, 1, 0.0)
        expected = (2.0 * math.pi / 0.1) ** 0.5 * tg.zeta_const(2.0) / (
            2.0 * math.pi * 0.1
        ) ** 1.5
        assert value == pytest.approx(expected, rel=1e-14)

    def test_bad_dims(self):
        with pytest.raises(DomainError):
            sc.column_density_sc_x(M.SC, 0.1, 0.1, 3, 0.0)

    @pytest.mark.parametrize("kind", [M.SC, M.SC0, M.SCINF])
    @pytest.mark.parametrize("dims", [0, 1, 2])
    def test_nan_arguments_are_named(self, kind, dims):
        with pytest.raises(DomainError, match="x >= 0"):
            sc.column_density_sc_x(kind, math.nan, 0.1, dims, 0.0)
        with pytest.raises(DomainError, match="radius"):
            sc.column_density_sc_x(kind, 0.1, 0.1, dims, [0.0, math.nan])
