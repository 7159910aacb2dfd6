import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapgas as tg
from trapgas import bose, core, exact, models, semiclassical
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

    @pytest.mark.parametrize("frequencies", [5.0, (1.0, 2.0), ((1.0, 2.0, 3.0),), ((1, 2), 3, 4)])
    def test_frequencies_not_three_values_raise_domain_error(self, frequencies):
        # A scalar used to raise TypeError from len(), a ragged tuple numpy's ValueError.
        with pytest.raises(DomainError, match="three positive frequencies"):
            TrapSpec(frequencies=frequencies)


    def test_frequencies_are_stored_as_floats(self):
        # Text frequencies were checked but stored as text, and omega_tilde
        # then raised TypeError inside a solve.
        trap = TrapSpec(("1", "1", "2"))
        assert trap.frequencies == (1.0, 1.0, 2.0)
        assert all(type(f) is float for f in trap.frequencies)
        state = tg.solve_fugacity("sc", 1e3, 0.1, trap=trap)
        assert state == tg.solve_fugacity("sc", 1e3, 0.1, trap=TrapSpec((1.0, 1.0, 2.0)))

    def test_trap_argument_must_be_a_trap(self):
        with pytest.raises(DomainError, match="TrapSpec"):
            tg.solve_fugacity("sc", 1e3, 0.1, trap=(1.0, 1.0, 2.0))


class TestReducedUnits:
    def test_tau_is_stored_as_a_float(self):
        units = ReducedUnits("0.25")
        assert type(units.tau) is float and units.temperature == 4.0

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


class TestGasState:
    def test_fields_are_stored_converted(self):
        # A tag string used to reach peak_report as text: AttributeError.
        state = tg.GasState("ex", "1e3", np.float64(0.1), "0.01", 5, 0)
        assert state.model is M.EX and state.condensed is False
        numbers = (state.atoms, state.tau, state.x, state.n0, state.aniso_ratio)
        assert numbers == (1e3, 0.1, 0.01, 5.0, 1.0)
        assert all(type(v) is float for v in numbers)
        assert tg.peak_report(state) == tg.peak_report(tg.GasState(M.EX, 1e3, 0.1, 0.01, 5.0))

    @pytest.mark.parametrize("index", range(7))
    def test_a_field_that_does_not_convert_raises_domain_error(self, index):
        # GasState(EX, "a", ...) used to be stored and raise TypeError in
        # peak_report, and an array flag ValueError.
        fields = [M.EX, 1e3, 0.1, 0.01, 5.0, False, 1.0]
        fields[index] = np.array([1.0, 0.0]) if index == 5 else "a"
        with pytest.raises(DomainError):
            tg.GasState(*fields)


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

    @pytest.mark.parametrize("model", [M.EX, M.SC, M.SC0])
    def test_lands_on_unsaturated_side(self, model):
        # At tau* the excited states hold all N atoms above z = 1, so SC0 is
        # not yet condensed there.
        for atoms in np.logspace(2, 10, 81):
            units = tg.transition_temperature(model, atoms)
            assert tg.saturated_population(model, units) > atoms

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

    @pytest.mark.parametrize("atoms, t_over_tstar", [(1e12, 100.0), (1e10, 1000.0)])
    def test_hot_ex_states(self, atoms, t_over_tstar):
        # Far above T* the exact and semi-classical fugacities agree.
        tau = tg.transition_temperature(M.EX, atoms).tau / t_over_tstar
        state = tg.solve_fugacity(M.EX, atoms, tau)
        assert state.x == pytest.approx(tg.solve_fugacity(M.SC, atoms, tau).x, rel=1e-10)

    @pytest.mark.parametrize("atoms, tau", [(1e6, 1e-7), (1e3, 5e-8)])
    def test_very_hot_ex_states(self, atoms, tau):
        # Only states near the root are evaluated: at x = 1e-12 the heads
        # would need 2.3e7 and 4.6e7 rows (more than MAX_TERMS).
        state = tg.solve_fugacity(M.EX, atoms, tau)
        assert state.x == pytest.approx(tg.solve_fugacity(M.SC, atoms, tau).x, rel=1e-10)

    def test_fugacity_monotone_in_atoms(self):
        tau = 0.05
        zs = [tg.solve_fugacity(M.EX, n, tau).z for n in (1e2, 1e3, 1e4, 1e5)]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("tau", [1e-30, 1e-100, 1e-110])
    def test_absurd_temperatures_solve_or_raise_typed_errors(self, model, tau):
        # tau = 1e-110 has a cube below the normal floats and is refused.  At
        # 1e-100 the root x = 690 is representable, but Newton steps past it
        # to where the population underflows to 0.
        if tau == 1e-110:
            with pytest.raises(DomainError, match="underflows"):
                tg.solve_fugacity(model, 2.0, tau)
            return
        state = tg.solve_fugacity(model, 2.0, tau)
        pop = tg.population_total(model, state.x, tau)
        assert abs(pop - 2.0) <= 1e-10 * 2.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            tg.solve_fugacity(M.EX, -5.0, 1.0)
        with pytest.raises(DomainError):
            tg.solve_fugacity(M.EX, 1e3, -1.0)
        with pytest.raises(DomainError):
            tg.solve_fugacity(M.EX, 1e3, 1.0, trap=TrapSpec(frequencies=(1, 2, 3)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: tg.solve_fugacity("ex", "abc", 1.0),
        lambda: tg.solve_fugacity("ex", None, 1.0),
        lambda: tg.solve_fugacity("ex", 1e3, "hot"),
        lambda: tg.transition_temperature("ex", [1, 2]),
        lambda: TrapSpec(frequencies=("a", 1, 1)),
    ],
    ids=["text-atoms", "none-atoms", "text-tau", "list-atoms", "text-frequency"],
)
def test_non_numeric_argument_raises_domain_error(call):
    # float() of these raised its own ValueError or TypeError.
    with pytest.raises(DomainError, match="must be a number"):
        call()


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: tg.solve_fugacity("foo", 1e3, 0.1),
        lambda: tg.transition_temperature("foo", 1e3),
        lambda: tg.population_total("foo", 0.1, 0.1),
        lambda: tg.condensate_fraction_sc("foo", 1e3, 10.0),
        lambda: semiclassical.ScVariant("foo"),
    ],
    ids=["solve_fugacity", "transition_temperature", "population_total",
         "condensate_fraction_sc", "ScVariant"],
)
def test_unknown_model_tag_raises_domain_error(call):
    with pytest.raises(DomainError, match="unknown model tag 'foo'"):
        call()


@pytest.mark.parametrize("model", [M.EX, M.SC, M.SC0])
def test_transition_at_huge_atom_number_raises_domain_error(model):
    # Past N of about 7e230 the capacity's tau-slope overflows, although
    # tau* is representable; the solves refuse N > 1e200 up front.
    for solve in (tg.transition_temperature, lambda m, n: core._transition_many(m, [n])):
        with pytest.raises(DomainError, match="at most 1e\\+200 atoms"):
            solve(model, 1e300)
    assert tg.transition_temperature(model, 1e200).tau > 0.0


@pytest.mark.parametrize("atoms", [1e155, 1e200, 1e300, 1e308])
@pytest.mark.parametrize("model", [M.EX, M.SC])
def test_condensed_cloud_at_huge_atom_number_solves(model, atoms):
    # From N0 of about 1.3e154 on, the ground-state slope -N0 (N0 + 1)
    # overflows; the solves take the slope in ln x from the ground term,
    # and the scalar and batched paths agree.  At 1e308 the start's
    # denominator b + sqrt(b^2 + 4a) would overflow too.
    for tau in (10.0, 1e-3, 1e-60):
        state = tg.solve_fugacity(model, atoms, tau)
        assert core._solve_fugacity_many(model, [atoms], [tau]) == [state]
        assert not state.condensed
        if atoms * tau**3 > 10.0:  # far below T*, where N0 holds nearly every atom
            assert state.n0 == pytest.approx(atoms, rel=1e-12)
        pop = tg.population_total(model, state.x, tau)
        assert abs(pop - atoms) <= 1e-10 * atoms


def _newton_step(x, atoms, ground, value, slope):
    """The second point of ``roots._newton`` from x, sent (value, slope) at x."""
    newton = tg.roots._newton(x, atoms, ground)
    assert next(newton) == x
    return newton.send((value, slope))


def test_overflowing_ground_slope_is_the_ground_terms_alone():
    # Below the overflow the plain product is kept, so every state that
    # solved before keeps its floats.  Each step is -f / slope in ln x.
    x = 1e-200
    n0 = 1.0 / math.expm1(x)
    slope = -(x * n0) * ((n0 + 1.0) / 1.5e200)
    assert _newton_step(x, 1e200, True, 1.5e200, -math.inf) == x * math.exp(
        -math.log(1.5) / slope
    )
    slope = 1e-3 * -4e6 / 2e3
    assert _newton_step(1e-3, 1e3, True, 2e3, -4e6) == 1e-3 * math.exp(-math.log(2.0) / slope)
    with pytest.raises(ConvergenceError):
        _newton_step(0.5, 1.0, False, 1.0, -math.inf)
    with pytest.raises(ConvergenceError):
        _newton_step(1e-200, 1e200, False, 1.5e200, -math.inf)


def test_underflowed_value_lies_past_the_root():
    # A value of 0 reads as f = -inf: with a point of f > 0 evaluated, the
    # next point bisects in ln x towards it; with none, ConvergenceError.
    newton = tg.roots._newton(1.0, 1.0)
    assert next(newton) == 1.0
    x = newton.send((2.0, -2.0))  # f = ln 2, slope -1 in ln x: a step to 2
    assert x == math.exp(math.log(2.0))
    assert newton.send((0.0, -1.0)) == 1.0 * math.sqrt(x / 1.0)
    with pytest.raises(ConvergenceError, match="value -inf or slope -1.0 not usable"):
        _newton_step(1.0, 1.0, True, 0.0, -1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: semiclassical.population_sc_x(M.SC, 0.1, 0.1),
        lambda: semiclassical.population_slope_sc_x(M.SC0, 0.1, 0.1),
        lambda: exact.population_ex_x(0.1, 0.1),
        lambda: exact.population_slope_ex_x(0.1, 0.1),
        lambda: exact.excited_population_x(0.1, 0.1),
        lambda: exact.excited_density_x(0.1, 0.1, [0.0, 1.0]),
        lambda: exact.excited_column_x(0.1, 0.1, 2, 0.0),
    ],
)
def test_x_is_checked_once_per_call(call, monkeypatch):
    # The model layers test x once; the Bose functions check their own
    # argument, which is often x + tau n or x + tau s^2 / 2.
    checks = []

    def counted(x, positive=False):
        checks.append(x)
        return models.check_x(x, positive)

    for module in (exact, semiclassical):
        monkeypatch.setattr(module, "check_x", counted)
    call()
    assert checks == [0.1]


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact.ground_population(0.0),
        lambda: semiclassical.population_slope_sc_x(M.SC, math.nan, 0.1),
        lambda: bose.bose_g123_x(-1.0),
        lambda: bose.bose_g_small_x(1.5, 0.0),
    ],
)
def test_positive_x_rule_names_x(call):
    with pytest.raises(DomainError, match="need x > 0"):
        call()


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


@pytest.fixture
def evaluations(monkeypatch):
    """Counts the solvers' calls of the population kernels."""
    calls = []
    for module, name in [
        (exact, "population_slope_ex_x"),
        (exact, "saturated_slope_ex"),
        (semiclassical, "_population_slope_x"),
        (semiclassical, "saturated_slope_sc"),
    ]:
        kernel = getattr(module, name)

        def counted(*args, kernel=kernel):
            calls.append(kernel)
            return kernel(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("model", ALL_MODELS)
def test_evaluations_per_solve(model, evaluations):
    for atoms in np.logspace(2, 12, 6):
        evaluations.clear()
        t_star = tg.transition_temperature(model, atoms).temperature
        assert len(evaluations) <= 6
        for t_ratio in (0.3, 0.7, 0.95, 1.0, 1.05, 1.5, 3.0):
            evaluations.clear()
            tg.solve_fugacity(model, atoms, 1.0 / (t_ratio * t_star))
            assert len(evaluations) <= 10, (atoms, t_ratio)


@pytest.mark.parametrize("ratio", [1.0, 1.3, 2.0, 7.0])
def test_sc0_solves_at_and_just_above_its_transition(ratio, evaluations):
    # At tau* and a few ulp hotter the root x is about 1e-16, where the
    # population is flat to rounding: the solve must stop, not wander.
    for atoms in np.logspace(0.31, 12, 60):
        tau = tg.transition_temperature(M.SC0, atoms, aniso_ratio=ratio).tau
        for _ in range(8):
            evaluations.clear()
            state = tg.solve_fugacity(M.SC0, atoms, tau, aniso_ratio=ratio)
            assert not state.condensed and len(evaluations) <= 10, (atoms, tau)
            tau = math.nextafter(tau, 0.0)


# The batched solves behind the atom-number figures.  Their floats are the
# public scalar solves', bit for bit (so within 1e-14 relative): near T*
# the fugacity root of a large cloud moves by ~sqrt(N) ulp per ulp of its
# population, so anything less would not hold at N = 1e12.
_atom_lists = st.lists(
    st.floats(min_value=math.log10(2.0), max_value=12.0).map(lambda e: 10.0**e),
    min_size=1,
    max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(atoms=_atom_lists)
def test_batched_transition_matches_scalar(atoms):
    batched = {m: core._transition_many(m, atoms) for m in ALL_MODELS}
    assert np.array_equal(batched[M.SC0], batched[M.SC])
    for model, taus in batched.items():
        assert taus.tolist() == [tg.transition_temperature(model, a).tau for a in atoms]
        if model == M.SCINF:
            continue
        for a, tau in zip(atoms, taus.tolist()):
            capacity = tg.saturated_population(model, tau)
            assert a < capacity <= a * (1.0 + 1e-10), (model, a)


@settings(max_examples=30, deadline=None)
@given(
    atoms=_atom_lists,
    ratios=st.lists(st.floats(min_value=0.3, max_value=3.0), min_size=8, max_size=8),
)
def test_batched_fugacity_matches_scalar(atoms, ratios):
    for model in ALL_MODELS:
        taus = [
            tg.transition_temperature(model, a).tau / r for a, r in zip(atoms, ratios)
        ]
        states = core._solve_fugacity_many(model, atoms, taus)
        assert states == [tg.solve_fugacity(model, a, t) for a, t in zip(atoms, taus)]
        for state in states:
            if not state.condensed:
                pop = tg.population_total(model, state.x, state.tau)
                assert abs(pop - state.atoms) <= 1e-10 * state.atoms, (model, state)


@pytest.mark.parametrize("bad", [1.5, 0.0, -3.0, math.nan, math.inf])
def test_batched_transition_raises_the_scalar_error(bad):
    with pytest.raises(DomainError) as scalar:
        tg.transition_temperature(M.EX, bad)
    for model in ALL_MODELS:
        with pytest.raises(DomainError, match=re.escape(str(scalar.value))):
            core._transition_many(model, [1e3, bad, 1e4])


@pytest.mark.parametrize(
    "atoms, tau", [(0.0, 0.1), (math.nan, 0.1), (1e3, 0.0), (1e3, math.inf), (1e3, 1e200)]
)
def test_batched_fugacity_raises_the_scalar_error(atoms, tau):
    with pytest.raises(DomainError) as scalar:
        tg.solve_fugacity(M.EX, atoms, tau)
    for model in ALL_MODELS:
        with pytest.raises(DomainError, match=re.escape(str(scalar.value))):
            core._solve_fugacity_many(model, [1e3, atoms], [0.1, tau])


def _outcome(solve):
    """A solve's result, or its error's type and message."""
    try:
        return solve()
    except (DomainError, ConvergenceError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_batched_solves_at_the_edges_match_scalar(model):
    # Hot clouds whose populations underflow, frozen ones, a tau whose cube
    # nearly overflows, and T* where the tau-slope overflows to -inf: the
    # same states or the same typed errors, and no RuntimeWarning.
    for atoms, tau in [(2.0, 1e-100), (1e12, 1e-100), (2.0, 1e-30), (1e3, 300.0), (5.0, 5e102)]:
        batched = _outcome(lambda: core._solve_fugacity_many(model, [atoms], [tau])[0])
        assert batched == _outcome(lambda: tg.solve_fugacity(model, atoms, tau))
    for atoms in (1e200, 1e300, 1e308):
        batched = _outcome(lambda: core._transition_many(model, [atoms])[0])
        assert batched == _outcome(lambda: tg.transition_temperature(model, atoms).tau)


def _spy_driver(monkeypatch):
    """Record the points each solve hands its kernel through ``core``'s driver.

    Returns a list that fills as solves run: one list of points per problem
    of each call of :func:`trapgas.roots.solve_lockstep`, in order; a single
    solve is a call with one problem.
    """
    solves = []

    def lockstep(problems, f):
        problems = list(problems)
        points = [[] for _ in problems]
        solves.extend(points)

        def evaluate(active, xs):
            for i, x in zip(active, xs):
                points[i].append(x)
            return f(active, xs)

        return tg.roots.solve_lockstep(problems, evaluate)

    monkeypatch.setattr(core, "solve_lockstep", lockstep)
    return solves


#: A mixed batch: N from 3 to 1e10 and T/T* on both sides of T*.  At N = 3
#: and 5 the T* roots of EX, SC and SC0 round to the saturated side and are
#: nudged one ulp hotter.
_MIXED = [(a, r) for a in (3.0, 5.0, 1e3, 1e6, 1e10) for r in (0.5, 0.99, 1.01, 2.0)]


@pytest.mark.parametrize("model", ALL_MODELS)
def test_lockstep_solves_evaluate_the_single_solves_points(model, monkeypatch):
    atoms = [a for a, _ in _MIXED]
    taus = [tg.transition_temperature(model, a).tau / r for a, r in _MIXED]
    solves = _spy_driver(monkeypatch)
    states = core._solve_fugacity_many(model, atoms, taus)
    batched = solves[:]
    solves.clear()
    assert states == [tg.solve_fugacity(model, a, t) for a, t in zip(atoms, taus)]
    single = solves[:]
    assert batched == single and len(single) == len(_MIXED)
    assert all(points for points, state in zip(single, states) if not state.condensed)
    solves.clear()
    tau_star = core._transition_many(model, atoms).tolist()
    batched = solves[:]
    solves.clear()
    assert tau_star == [tg.transition_temperature(model, a).tau for a in atoms]
    single = solves[:]
    assert batched == single
    if model != M.SCINF:
        assert len(single) == len(_MIXED)
        assert any(p[-1] == math.nextafter(p[-2], 0.0) for p in single)


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("model", [M.EX, M.SC])
def test_blocked_solves_keep_every_state(model, block, monkeypatch):
    # The driver runs at most roots._BLOCK problems at a time, one block
    # after the other, so that a batch's memory is bounded at any size.
    atoms = np.logspace(1.0, 10.0, 20).tolist()
    scales = (1.0 / 1.5, 1.0 / 0.99, 1.0 / 1.01, 2.0)  # T/T* = 1.5, 0.99, 1.01, 0.5
    taus = [tg.transition_temperature(model, a).tau * scales[i % 4] for i, a in enumerate(atoms)]

    def solve():
        states = core._solve_fugacity_many(model, atoms, taus)
        return states, core._transition_many(model, atoms).tolist()

    unblocked = solve()
    calls = []

    def lockstep(problems, f):
        def evaluate(active, points):
            calls.append(list(active))
            return f(active, points)

        return tg.roots.solve_lockstep(problems, evaluate)

    monkeypatch.setattr(core, "solve_lockstep", lockstep)
    monkeypatch.setattr(tg.roots, "_BLOCK", block)
    assert repr(solve()) == repr(unblocked)  # the same floats, bit for bit
    assert all(len({i // block for i in active}) == 1 for active in calls)
    assert max(map(len, calls)) == block


def test_one_ex_problem_takes_the_scalar_kernels(monkeypatch):
    # A lone problem costs the batched body on one state more than the
    # scalar body; a batch of several calls the batched one.
    calls = []
    for name in ("_population_slopes", "_saturated_slopes"):
        kernel = getattr(exact, name)

        def counted(*args, name=name, kernel=kernel):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(exact, name, counted)
    tau = 1.0 / 1.01 * tg.transition_temperature(M.EX, 1e6).tau
    tg.solve_fugacity(M.EX, 1e6, tau)
    core._solve_fugacity_many(M.EX, [1e6], [tau])
    core._transition_many(M.EX, [1e6])
    assert calls == []
    core._solve_fugacity_many(M.EX, [1e3, 1e6], [0.1, tau])
    assert calls and set(calls) == {"_population_slopes"}
    calls.clear()
    core._transition_many(M.EX, [1e3, 1e6])
    assert calls and set(calls) == {"_saturated_slopes"}


@pytest.mark.parametrize("model", [M.SC0, M.SCINF])
def test_condensed_state_returns_before_its_first_point(model, monkeypatch):
    # Its solve returns before it yields: alone, and inside a lockstep batch
    # of unsaturated states, no kernel evaluates a point of it.
    atoms = [1e3, 1e4, 1e6]
    scales = (1.0 / 1.5, 2.0, 1.0 / 1.5)  # hot, cold (condensed), hot
    taus = [tg.transition_temperature(model, a).tau * k for a, k in zip(atoms, scales)]
    solves = _spy_driver(monkeypatch)
    state = tg.solve_fugacity(model, atoms[1], taus[1])
    assert state.condensed and solves == [[]]
    solves.clear()
    states = core._solve_fugacity_many(model, atoms, taus)
    batched = solves
    assert states[1] == state
    assert not states[0].condensed and not states[2].condensed
    assert batched[1] == [] and batched[0] and batched[2]


@pytest.mark.parametrize("model", ALL_MODELS)
def test_batch_with_bad_inputs_raises_the_first_before_any_solve(model, monkeypatch):
    calls = []
    monkeypatch.setattr(core, "solve_lockstep", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match=re.escape("got 0.0")):
        core._solve_fugacity_many(model, [1e3, 0.0, -1.0], [0.0, 0.1, 0.1])
    with pytest.raises(DomainError, match=re.escape("tau must be positive and finite, got 0.0")):
        core._solve_fugacity_many(model, [1e3, 1e3, 1e3], [0.1, 0.0, -1.0])
    with pytest.raises(DomainError, match=re.escape("need at least 2 atoms, got 1.5")):
        core._transition_many(model, [1e3, 1.5, 0.0])
    assert calls == []


def test_convergence_error_in_one_problem_of_a_batch_propagates(monkeypatch):
    # A kernel value of nan for the one cold state of each batch (tau < 0.005,
    # the largest N), and a residual bound no root meets.
    population_slopes, saturated_slopes = exact._population_slopes, exact._saturated_slopes

    def nan_when_cold(tau, value, slope):
        return np.where(tau < 0.005, np.nan, value), slope

    monkeypatch.setattr(
        exact, "_population_slopes", lambda x, tau: nan_when_cold(tau, *population_slopes(x, tau))
    )
    monkeypatch.setattr(
        exact, "_saturated_slopes", lambda tau: nan_when_cold(tau, *saturated_slopes(tau))
    )
    with pytest.raises(ConvergenceError, match="not usable"):
        core._solve_fugacity_many(M.EX, [1e3, 1e9, 1e5], [0.1, 0.001, 0.02])
    with pytest.raises(ConvergenceError, match="not usable"):
        core._transition_many(M.EX, [1e3, 1e9, 1e5])
    monkeypatch.setattr(core, "_FUGACITY_RESIDUAL", -1.0)
    with pytest.raises(ConvergenceError, match="left a residual"):
        core._solve_fugacity_many(M.SC, [1e3, 1e6], [0.1, 0.01])
