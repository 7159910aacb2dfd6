import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapgas as tg
from trapgas.core import ReducedUnits, TrapSpec
from trapgas.errors import ConvergenceError, DomainError
from trapgas.models import ModelKind as M

import oracles

ALL_MODELS = (M.EX, M.SC, M.SC0, M.SCINF)


class TestTrapSpec:
    def test_isotropic_defaults(self):
        trap = TrapSpec()
        assert trap.aniso_ratio == 1.0
        assert trap.omega_bar == trap.omega_tilde == 1.0

    def test_equal_frequencies_reduce_exactly(self):
        trap = TrapSpec(frequencies=(1.3, 1.3, 1.3))
        assert trap.aniso_ratio == 1.0
        t_iso = tg.transition_temperature(M.SC, 1e4).tau
        t_tri = tg.transition_temperature(M.SC, 1e4, trap=trap).tau
        assert t_iso == t_tri

    def test_means(self):
        trap = TrapSpec(frequencies=(1.0, 1.0, 8.0))
        assert trap.omega_bar == pytest.approx(2.0, rel=1e-14)
        assert trap.omega_tilde == pytest.approx(10.0 / 3.0, rel=1e-14)
        assert trap.aniso_ratio >= 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            TrapSpec(frequencies=(math.nan, 1.0, 1.0))
        with pytest.raises(DomainError):
            TrapSpec(frequencies=(1.0, math.inf, 1.0))
        with pytest.raises(DomainError):
            TrapSpec(frequencies=(1.0, -2.0, 3.0))


class TestReducedUnits:
    def test_lambda_cubed_identity(self):
        units = ReducedUnits(0.37)
        assert units.lambda3 == (2.0 * math.pi * 0.37) ** 1.5
        assert units.temperature == pytest.approx(1.0 / 0.37, rel=1e-15)

    def test_from_temperature(self):
        assert ReducedUnits.from_temperature(4.0).tau == 0.25
        with pytest.raises(DomainError):
            ReducedUnits.from_temperature(-3.0)
        with pytest.raises(DomainError):
            ReducedUnits(0.0)


class TestMonotoneRoot:
    def test_linear(self):
        assert tg.solve_monotone_root(lambda x: x - 1.0, 0.5, 2.0) == pytest.approx(1.0)

    def test_cubic(self):
        root = tg.solve_monotone_root(lambda x: x**3 - 2.0, 1.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)

    def test_bracket_expansion(self):
        root = tg.solve_monotone_root(lambda x: x - 100.0, 1.0, 2.0)
        assert root == pytest.approx(100.0, rel=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(ConvergenceError):
            tg.solve_monotone_root(lambda x: 1.0 + x * 0.0, 1.0, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_bracket(self, bad):
        with pytest.raises(ConvergenceError):
            tg.solve_monotone_root(lambda x: bad, 1.0, 2.0)
        with pytest.raises(ConvergenceError):
            tg.solve_monotone_root(lambda x: bad if x > 1.5 else -1.0, 1.0, 2.0)

    def test_scinf_transition_residual(self):
        z3 = tg.zeta_const(3.0)
        tau = tg.solve_monotone_root(lambda t: z3 / t**3 - 1e3, 0.05, 0.2)
        assert tau == pytest.approx((z3 / 1e3) ** (1.0 / 3.0), rel=1e-12)
        assert tau == pytest.approx(0.106327, abs=1e-6)
        assert 1.0 / tau == pytest.approx(9.40499, abs=1e-5)


class TestTransitionTemperature:
    def test_scinf_closed_form(self):
        for atoms in (1e3, 1e6):
            tau = tg.transition_temperature(M.SCINF, atoms).tau
            assert tau == pytest.approx((tg.zeta_const(3.0) / atoms) ** (1 / 3), rel=1e-14)

    def test_exact_against_reference(self):
        assert tg.transition_temperature(M.EX, 1e3).temperature == pytest.approx(
            oracles.T_STAR_EX_1E3, rel=1e-9
        )
        assert tg.transition_temperature(M.EX, 1e6).temperature == pytest.approx(
            oracles.T_STAR_EX_1E6, rel=1e-9
        )

    def test_sc_equals_sc0_bitwise(self):
        for atoms in (500.0, 1e4, 1e6):
            assert (
                tg.transition_temperature(M.SC, atoms).tau
                == tg.transition_temperature(M.SC0, atoms).tau
            )

    @pytest.mark.parametrize("atoms", [1e2, 1e3, 1e6])
    def test_ordering(self, atoms):
        t_ex = tg.transition_temperature(M.EX, atoms).temperature
        t_sc = tg.transition_temperature(M.SC, atoms).temperature
        t_c = tg.transition_temperature(M.SCINF, atoms).temperature
        assert t_ex < t_c
        assert t_ex < t_sc

    def test_anisotropy_lowers_transition(self):
        base = tg.transition_temperature(M.SC, 1e4).temperature
        mild = tg.transition_temperature(
            M.SC, 1e4, trap=TrapSpec(frequencies=(1, 1, 2))
        ).temperature
        strong = tg.transition_temperature(
            M.SC, 1e4, trap=TrapSpec(frequencies=(1, 1, 8))
        ).temperature
        assert strong < mild < base

    def test_exact_rejects_anisotropy(self):
        with pytest.raises(DomainError):
            tg.transition_temperature(M.EX, 1e4, trap=TrapSpec(frequencies=(1, 1, 2)))
        with pytest.raises(DomainError):
            tg.transition_temperature(M.EX, 1.0)


class TestSolveFugacity:
    def test_round_trip_example(self):
        atoms = tg.population_ex(0.5, 1.0)
        state = tg.solve_fugacity(M.EX, atoms, 1.0)
        assert state.z == pytest.approx(0.5, rel=1e-10)

    def test_threshold_golden(self):
        state = tg.solve_fugacity(M.EX, 1e6, 1.0 / 93.37)
        assert state.x == pytest.approx(oracles.X_STAR_1E6_AT_9337, rel=1e-8)
        assert state.n0 == pytest.approx(1.0 / math.expm1(state.x), rel=1e-14)

    def test_scinf_boundary_is_condensed_flagged(self):
        units = tg.transition_temperature(M.SCINF, 1e6)
        state = tg.solve_fugacity(M.SCINF, 1e6, units)
        assert state.condensed
        assert state.z == 1.0
        assert abs(state.n0) < 1e-6

    def test_saturated_branch_assigns_condensate(self):
        units = tg.transition_temperature(M.SC0, 1e4)
        cold = ReducedUnits.from_temperature(0.8 * units.temperature)
        state = tg.solve_fugacity(M.SC0, 1e4, cold)
        assert state.condensed
        capacity = tg.saturated_population(M.SC0, cold)
        assert state.n0 == pytest.approx(1e4 - capacity, rel=1e-12)
        # matches the quoted condensate-fraction formula
        z2, z3 = tg.zeta_const(2.0), tg.zeta_const(3.0)
        ratio = (cold.temperature / units.temperature) ** 3
        ratio *= (z3 + 1.5 * cold.tau * z2) / (z3 + 1.5 * units.tau * z2)
        assert state.n0 / 1e4 == pytest.approx(1.0 - ratio, rel=1e-10)

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("atoms", [1e2, 1e3, 1e6])
    @pytest.mark.parametrize("t_over_tstar", [1.2, 1.0, 0.8])
    def test_population_round_trip(self, model, atoms, t_over_tstar):
        t_star = tg.transition_temperature(model, atoms).temperature
        units = ReducedUnits.from_temperature(t_over_tstar * t_star)
        state = tg.solve_fugacity(model, atoms, units)
        if state.condensed:
            assert not model.has_ground_state
            capacity = tg.saturated_population(model, units)
            assert capacity + state.n0 == pytest.approx(atoms, rel=1e-12)
        else:
            pop = tg.population_total(model, state.x, units)
            assert pop == pytest.approx(atoms, rel=1e-9)
        assert 0.0 < state.z <= 1.0
        assert state.n0 >= 0.0

    def test_fugacity_monotone_in_atoms(self):
        tau = 0.05
        zs = [tg.solve_fugacity(M.EX, n, tau).z for n in (1e2, 1e3, 1e4, 1e5)]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            tg.solve_fugacity(M.EX, -5.0, 1.0)
        with pytest.raises(DomainError):
            tg.solve_fugacity(M.EX, 1e3, -1.0)
        with pytest.raises(DomainError):
            tg.solve_fugacity(M.EX, 1e3, 1.0, trap=TrapSpec(frequencies=(1, 2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda r: tg.population_total(M.SC, 0.1, 0.1, aniso_ratio=r),
        lambda r: tg.solve_fugacity(M.SC, 1e4, 0.1, aniso_ratio=r),
        lambda r: tg.transition_temperature(M.SC, 1e4, aniso_ratio=r),
    ],
    ids=["population_total", "solve_fugacity", "transition_temperature"],
)
def test_non_finite_aniso_ratio_raises_domain_error(call, bad):
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize("ratio", [math.nan, 0.5, math.inf])
def test_scinf_transition_validates_aniso_ratio(ratio):
    # The SCINF closed form does not use the ratio, but it must still be valid.
    with pytest.raises(DomainError):
        tg.transition_temperature(M.SCINF, 1e4, aniso_ratio=ratio)


@settings(max_examples=25, deadline=None)
@given(
    atoms=st.floats(min_value=50.0, max_value=1e5),
    ratio=st.floats(min_value=0.7, max_value=1.4),
)
def test_round_trip_property(atoms, ratio):
    t_star = tg.transition_temperature(M.EX, atoms).temperature
    units = ReducedUnits.from_temperature(ratio * t_star)
    state = tg.solve_fugacity(M.EX, atoms, units)
    assert tg.population_total(M.EX, state.x, units) == pytest.approx(atoms, rel=1e-9)
