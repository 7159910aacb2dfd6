import math
import time

import numpy as np
import pytest
from scipy import integrate

import trapgas as tg
from trapgas import bose, exact, semiclassical
from trapgas import observables as obs
from trapgas.core import GasState, ReducedUnits
from trapgas.errors import DomainError, QuadratureError, TruncationError
from trapgas.integrate import quad
from trapgas.models import ModelKind as M

import oracles

PI32 = math.pi**1.5


def threshold_state(atoms, model=M.EX):
    units = tg.transition_temperature(model, atoms)
    return tg.solve_fugacity(model, atoms, units)


@pytest.fixture(scope="module")
def ex_1e4():
    return threshold_state(1e4)


@pytest.fixture(scope="module")
def ex_1e6():
    return threshold_state(1e6)


class TestProfile:
    def test_components_add_up(self, ex_1e4):
        grid = np.linspace(0.0, 12.0, 121)
        prof = tg.profile(ex_1e4, grid)
        recon = prof.ground + prof.first_excited + prof.other_excited
        assert np.allclose(recon, prof.total, rtol=1e-10, atol=0.0)
        peak = prof.total[0]
        for comp in (prof.ground, prof.first_excited, prof.other_excited):
            assert np.all(comp >= -1e-12 * peak)

    def test_first_excited_vanishes_at_origin(self, ex_1e4):
        prof = tg.profile(ex_1e4, np.linspace(0.0, 2.0, 5))
        assert prof.first_excited[0] == 0.0
        assert prof.first_excited[1] > 0.0

    @pytest.mark.parametrize("dims", [1, 2])
    def test_column_components_add_up(self, ex_1e4, dims):
        grid = np.linspace(0.0, 10.0, 41)
        prof = tg.profile(ex_1e4, grid, dims_integrated=dims)
        recon = prof.ground + prof.first_excited + prof.other_excited
        assert np.allclose(recon, prof.total, rtol=1e-10, atol=0.0)
        assert np.all(prof.other_excited >= 0.0)

    def test_first_excited_component_integrates_to_triple_level(self, ex_1e6):
        # the summed p-state shape carries the three degenerate states, so
        # the component integral is 3 N1 by construction, in every
        # projection mode
        occ1 = 1.0 / math.expm1(ex_1e6.x + ex_1e6.tau)
        grid = np.linspace(0.0, 10.0, 2001)
        weights = {
            0: 4.0 * math.pi * grid**2,  # radial 3D
            1: 2.0 * math.pi * grid,     # remaining plane
            2: 2.0,                      # remaining axis, both signs
        }
        for dims, w in weights.items():
            comp = obs.first_excited_level_density(ex_1e6, grid, dims)
            integral = np.trapezoid(w * comp, grid)
            assert integral == pytest.approx(9.0 * occ1, rel=1e-4)

    @pytest.mark.parametrize("s", [-1.0, math.inf, 1e200, math.nan, [0.0, -1.0]])
    def test_first_excited_refuses_bad_coordinates(self, ex_1e4, s):
        # -1 used to give the s = 1 value; inf and 1e200 nan, with RuntimeWarnings.
        with pytest.raises(DomainError, match="s >= 0"):
            obs.first_excited_level_density(ex_1e4, s)
        assert np.ndim(obs.first_excited_level_density(ex_1e4, 1.0)) == 0

    @pytest.mark.parametrize("dims", [0, 1, 2])
    def test_frozen_cloud_components_are_finite(self, dims):
        # tau = 800 puts x + tau past math.expm1's overflow at 709.78.
        state = tg.solve_fugacity(M.EX, 1e3, 800.0)
        prof = tg.profile(state, np.linspace(0.0, 10.0, 201), dims_integrated=dims)
        for comp in (prof.total, prof.ground, prof.first_excited, prof.other_excited):
            assert np.all(np.isfinite(comp)) and np.all(comp >= 0.0)

    def test_ground_column_shapes(self, ex_1e4):
        for dims in (0, 1, 2):
            prof = tg.profile(ex_1e4, np.array([0.0]), dims_integrated=dims)
            expected = ex_1e4.n0 * math.pi ** (0.5 * dims) / PI32
            assert prof.ground[0] == pytest.approx(expected, rel=1e-12)

    def test_semiclassical_profiles(self):
        state = threshold_state(1e4, M.SC)
        grid = np.linspace(0.0, 6.0, 13)
        prof = tg.profile(state, grid)
        assert np.all(prof.first_excited == 0.0)
        assert np.allclose(
            prof.ground + prof.other_excited, prof.total, rtol=1e-12, atol=0.0
        )

    def test_condensed_scinf_refused(self):
        t_c = tg.transition_temperature(M.SCINF, 1e5).temperature
        state = tg.solve_fugacity(M.SCINF, 1e5, ReducedUnits.from_temperature(0.8 * t_c))
        with pytest.raises(DomainError):
            tg.profile(state, np.linspace(0.0, 4.0, 5))

    def test_scinf_profile_is_monotone(self):
        # uncondensed semi-classical cloud: no central dip, ever
        t_c = tg.transition_temperature(M.SCINF, 1e5).temperature
        state = tg.solve_fugacity(M.SCINF, 1e5, ReducedUnits.from_temperature(1.05 * t_c))
        grid = np.linspace(0.0, 8.0, 200)
        rho = obs.total_density(state, grid)
        assert np.all(np.diff(rho) < 0.0)

    def test_grid_validation(self, ex_1e4):
        with pytest.raises(DomainError):
            tg.profile(ex_1e4, np.array([0.0, -1.0]))
        with pytest.raises(DomainError):
            tg.profile(ex_1e4, np.array([0.0, 1.0]), dims_integrated=3)

    @pytest.mark.parametrize("model", [M.EX, M.SC])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_fails_fast(self, model, bad):
        state = tg.solve_fugacity(model, 1e3, ReducedUnits(0.1))
        for dims in (0, 1, 2):
            start = time.perf_counter()
            with pytest.raises(DomainError):
                tg.profile(state, [0.0, bad], dims)
            assert time.perf_counter() - start < 0.25


class TestDip:
    def test_requires_exact_model(self):
        state = threshold_state(1e4, M.SC)
        with pytest.raises(DomainError):
            tg.dip_height(state)

    def test_positive_at_threshold(self, ex_1e6):
        assert tg.dip_height(ex_1e6) > 1.0

    def test_scales_like_inverse_tau(self):
        values = []
        for atoms in (1e5, 1e6, 1e7):
            state = threshold_state(atoms)
            values.append(tg.dip_height(state) * state.tau)
        spread = (max(values) - min(values)) / (sum(values) / len(values))
        print(f"dip*tau over 1e5..1e7: {values}, spread {spread:.3f}")
        assert spread < 0.15

    def test_first_excited_level_covers_dip(self, ex_1e6):
        # physical level-1 hump (component / 3) against the full dip
        dip = tg.dip_height(ex_1e6)
        occ1 = 1.0 / math.expm1(ex_1e6.x + ex_1e6.tau)
        hump = occ1 * 2.0 * math.exp(-1.0) / PI32
        assert hump / dip >= 0.8


class TestPeakReport:
    def test_scinf_threshold_is_classic_value(self):
        state = threshold_state(1e6, M.SCINF)
        report = tg.peak_report(state)
        assert report.degeneracy_parameter == pytest.approx(
            tg.zeta_const(1.5), rel=1e-9
        )
        assert report.peak_fraction == 0.0

    def test_fractions_bounded(self, ex_1e6):
        report = tg.peak_report(ex_1e6)
        assert 0.0 <= report.n0_fraction <= 1.0
        assert 0.0 <= report.peak_fraction <= 1.0
        assert report.degeneracy_parameter > 0.0
        assert report.rho0_peak == pytest.approx(ex_1e6.n0 / PI32, rel=1e-14)

    def test_peak_sharper_than_population(self):
        atoms = 1e6
        t_star = tg.transition_temperature(M.EX, atoms).temperature
        dt = 0.2

        def fractions(t):
            report = tg.peak_report(
                tg.solve_fugacity(M.EX, atoms, ReducedUnits.from_temperature(t))
            )
            return report.n0_fraction, report.peak_fraction

        n0_lo, pf_lo = fractions(t_star - dt)
        n0_hi, pf_hi = fractions(t_star + dt)
        ratio = abs(pf_hi - pf_lo) / abs(n0_hi - n0_lo)
        assert ratio > 5.0


class TestIntegratedFraction:
    def test_ordering_3d_above_columns(self, ex_1e4):
        report = tg.peak_report(ex_1e4)
        f1 = tg.integrated_peak_fraction(ex_1e4, 1)
        f2 = tg.integrated_peak_fraction(ex_1e4, 2)
        assert report.peak_fraction > f1 > f2 > 0.0

    def test_threshold_scaling(self, ex_1e4, ex_1e6):
        tau_ratio = ex_1e4.tau / ex_1e6.tau
        r1 = tg.integrated_peak_fraction(ex_1e4, 1) / tg.integrated_peak_fraction(
            ex_1e6, 1
        )
        r2 = tg.integrated_peak_fraction(ex_1e4, 2) / tg.integrated_peak_fraction(
            ex_1e6, 2
        )
        assert r1 == pytest.approx(math.sqrt(tau_ratio), rel=0.2)
        assert r2 == pytest.approx(tau_ratio, rel=0.2)

    def test_sc_supported_in_closed_form(self):
        state = threshold_state(1e3, M.SC)
        f1 = tg.integrated_peak_fraction(state, 1)
        assert 0.0 < f1 < 1.0

    def test_validation(self, ex_1e4):
        with pytest.raises(DomainError):
            tg.integrated_peak_fraction(ex_1e4, 3)
        scinf = threshold_state(1e3, M.SCINF)
        with pytest.raises(DomainError):
            tg.integrated_peak_fraction(scinf, 1)


class TestDensityMoment:
    def test_pure_ground_state_gaussian_moments(self):
        # z -> 0: the cloud is the bare oscillator ground state, whose
        # Gaussian moments integrate in closed form
        state = tg.solve_fugacity(M.EX, 1e-8, 12.0)
        n0 = state.n0
        m2 = tg.density_moment(state, 2)
        m3 = tg.density_moment(state, 3)
        assert m2 == pytest.approx(n0**2 / (2.0 * math.pi) ** 1.5, rel=1e-3)
        assert m3 == pytest.approx(n0**3 / (math.pi**3 * 27.0**0.5), rel=1e-3)

    def test_scinf_threshold_moment_finite(self):
        state = threshold_state(1e5, M.SCINF)
        m2 = tg.density_moment(state, 2)
        assert m2 > 0.0
        grid = np.linspace(1e-4, 8.0 / math.sqrt(state.tau), 4001)
        rho = np.asarray(obs.total_density(state, grid))
        riemann = np.trapezoid(4.0 * math.pi * grid**2 * rho**2, grid)
        assert m2 == pytest.approx(riemann, rel=1e-3)

    def test_moment_ratio_against_sc0(self, ex_1e6):
        # EX against SC0 at the same fugacity and temperature; the excess
        # peaks well below N = 1e6 (see the acceptance notes)
        for atoms, p, lo, hi in [(1e5, 3, 0.15, 0.35), (1e4, 2, 0.10, 0.20)]:
            state = threshold_state(atoms)
            twin = GasState(model=M.SC0, atoms=atoms, tau=state.tau, x=state.x, n0=0.0)
            ratio = tg.density_moment(state, p) / tg.density_moment(twin, p) - 1.0
            print(f"moment ratio N={atoms:.0e} p={p}: {ratio:+.4f}")
            assert lo < ratio < hi

    def test_validation(self, ex_1e4):
        with pytest.raises(DomainError):
            tg.density_moment(ex_1e4, 4)

    @pytest.mark.parametrize("p", [2, 3])
    def test_ex_against_closed_form_gaussian_sum(self, p):
        # rho = pi^{-3/2} sum_l e^{-lx} (1 - e^{-2 tau l})^{-3/2} e^{-tanh(tau l/2) r^2}
        x, tau = 1.0, 0.5
        state = GasState(model=M.EX, atoms=tg.population_total(M.EX, x, tau),
                         tau=tau, x=x, n0=1.0 / math.expm1(x))
        l = np.arange(1.0, 45.0)
        weights = np.exp(-x * l) / (-np.expm1(-2.0 * tau * l)) ** 1.5 / PI32
        ref = oracles.gauss_sum_moment(weights, np.tanh(0.5 * tau * l), p)
        assert tg.density_moment(state, p) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("p", [2, 3])
    def test_scinf_against_closed_form_gaussian_sum(self, p):
        # rho = g_{3/2}(e^{-x - tau r^2/2}) / lambda^3 = sum_l e^{-lx - l tau r^2/2} / (l^{3/2} lambda^3)
        x, tau = 1.0, 0.1
        state = GasState(model=M.SCINF, atoms=tg.population_total(M.SCINF, x, tau),
                         tau=tau, x=x, n0=0.0)
        l = np.arange(1.0, 45.0)
        weights = np.exp(-x * l) / l**1.5 / (2.0 * math.pi * tau) ** 1.5
        ref = oracles.gauss_sum_moment(weights, 0.5 * tau * l, p)
        assert tg.density_moment(state, p) == pytest.approx(ref, rel=1e-11)

    def test_node_doubling_estimate_raises_quadrature_error(self, ex_1e4, monkeypatch):
        # The 48- and 96-node values never agree to 1e-300 of the moment.
        monkeypatch.setattr(obs, "_MOMENT_TOL", 1e-300)
        with pytest.raises(QuadratureError, match="uncertainty"):
            tg.density_moment(ex_1e4, 2)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("state", [
        tg.solve_fugacity(M.SC0, 1e4, tg.transition_temperature(M.SC0, 1e4)),
        GasState(model=M.SC0, atoms=tg.population_total(M.SC0, 1e-7, 0.05),
                 tau=0.05, x=1e-7, n0=0.0),
    ], ids=["sc0-threshold", "sc0-x1e-7"])
    def test_sc0_near_saturation_against_adaptive_quad(self, state, p):
        # g_{1/2}(x + tau r^2/2) has a core of width sqrt(2x/tau), here below
        # 1e-3; the reference places breakpoints at decades of that width.
        width = math.sqrt(2.0 * state.x / state.tau)
        r_max = 8.0 / math.sqrt(state.tau)

        def integrand(r):
            return 4.0 * math.pi * r * r * float(np.asarray(obs.total_density(state, r))) ** p

        points = [width * 10.0**k for k in range(12) if width * 10.0**k < r_max]
        ref, _ = integrate.quad(integrand, 0.0, r_max, epsabs=0.0, epsrel=1e-12,
                                limit=1000, points=points)
        assert tg.density_moment(state, p) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("tau", [16.0, 64.0])
    @pytest.mark.parametrize("model", [M.EX, M.SC])
    def test_cold_cloud_against_adaptive_quad(self, model, tau, p):
        # The ground-state Gaussian has unit width at every tau, so the upper
        # edge may not shrink with 8 / sqrt(tau) below it (the p = 2 moment
        # read 1.1e-3 low at tau = 16 and 26% low at tau = 64).
        state = tg.solve_fugacity(model, 1e3, tau)
        width = math.sqrt(2.0 * state.x / state.tau)  # SC's g_{1/2} core

        def integrand(r):
            return 4.0 * math.pi * r * r * float(np.asarray(obs.total_density(state, r))) ** p

        points = [width * 10.0**k for k in range(12) if width * 10.0**k < 10.0]
        ref, _ = integrate.quad(integrand, 0.0, 10.0, epsabs=0.0, epsrel=1e-12,
                                limit=1000, points=points)
        assert tg.density_moment(state, p) == pytest.approx(ref, rel=1e-6)


# N x T/T*: heads of 1 to about 21,700 rows, with and without the q-series
# tail (the hot states far above T* have none).
STRATA_ATOMS = (2.0, 10.0, 1e3, 1e6, 1e9, 1e12)
STRATA_T_RATIOS = (0.3, 0.99, 1.0, 1.01, 3.0)


class TestOneKernelCall:
    """The quadrature and the EX observables call their kernel once."""

    def test_quad_calls_f_once_on_every_node(self):
        sizes = []

        def f(r):
            sizes.append(r.size)
            return np.exp(-r * r)

        value, _ = quad(f, [0.0, 1.0, 3.0])
        assert sizes == [2 * (48 + 96)]
        assert value == pytest.approx(0.5 * math.sqrt(math.pi) * math.erf(3.0), rel=1e-14)

    def test_moment_and_profiles_make_one_kernel_call(self, ex_1e6, monkeypatch):
        calls = []
        kernel = exact._excited_gauss_sums
        monkeypatch.setattr(exact, "_excited_gauss_sums", lambda *a: calls.append(a) or kernel(*a))
        # [0, 6] and [6, 8 / sqrt(tau)]: four panel rules, one call.
        assert 8.0 / math.sqrt(ex_1e6.tau) > 6.0
        obs.density_moment(ex_1e6, 2)
        assert len(calls) == 1
        for d in (0, 1, 2):
            calls.clear()
            obs.profile(ex_1e6, np.linspace(0.0, 5.0, 11), d)
            assert len(calls) == 1


def strata_states(model):
    states = []
    for atoms in STRATA_ATOMS:
        tau_star = tg.transition_temperature(model, atoms).tau
        states += [tg.solve_fugacity(model, atoms, tau_star / t) for t in STRATA_T_RATIOS]
    return states


@pytest.fixture(scope="module")
def ex_strata():
    return strata_states(M.EX)


def outcome(call):
    """A call's value, or its error's type and message."""
    try:
        return call()
    except (DomainError, TruncationError) as error:
        return type(error), str(error)


class TestBatchedAtOrigin:
    """``_at_origin`` and its exact kernel give the scalar calls' floats, bit for bit."""

    def test_kernel_equals_scalar_sum(self, ex_strata):
        xs = [s.x for s in ex_strata] + [0.0, 0.0]  # saturated clouds too
        taus = [s.tau for s in ex_strata] + [0.01, 1e-5]
        heads = [exact._head_length(x, t) for x, t in zip(xs, taus)]
        assert {tail for _, tail in heads} == {True, False}
        assert max(head for head, _ in heads) > 20_000
        got = exact._excited_gauss_sums(xs, taus, (0, 1, 2, 3), 0.0)
        for k, d in enumerate((0, 1, 2, 3)):
            assert got[k, :, 0].tolist() == [
                exact._excited_gauss_sum(x, t, d, 0.0) for x, t in zip(xs, taus)
            ]

    def test_observables_equal_scalar_calls(self, ex_strata):
        sc = strata_states(M.SC)
        hot = [tg.solve_fugacity(model, 1e3, 0.05) for model in (M.SC0, M.SCINF)]
        states = ex_strata + sc
        reports, image_1d, image_2d = obs._at_origin(states, (0, 2, 1))
        assert reports == [tg.peak_report(s) for s in states]
        assert image_1d == [tg.integrated_peak_fraction(s, 2) for s in states]
        assert image_2d == [tg.integrated_peak_fraction(s, 1) for s in states]
        mixed = [sc[0], hot[0], ex_strata[7], hot[1], ex_strata[3]]
        assert obs._at_origin(mixed)[0] == [tg.peak_report(s) for s in mixed]
        assert obs._at_origin([], (0, 1)) == [[], []]

    def test_no_exact_sum_without_an_ex_state(self, monkeypatch):
        sc = [tg.solve_fugacity(M.SC, n, 0.05) for n in (1e3, 1e4)]
        expected = [[tg.peak_report(s) for s in sc]]
        calls = []
        columns = exact._columns
        monkeypatch.setattr(exact, "_columns", lambda *args: calls.append(args) or columns(*args))
        assert obs._at_origin(sc) == expected
        assert obs._at_origin([]) == [[]]
        assert calls == []
        ex = tg.solve_fugacity(M.EX, 1e3, 0.05)
        assert obs._at_origin([sc[0], ex]) == [[expected[0][0], tg.peak_report(ex)]]
        assert len(calls) == 1

    def test_chunks_and_slabs_equal_scalar_sum(self, ex_strata, monkeypatch):
        # Near T* at N = 1e12 (about 21,500 rows each), 13 copies of one
        # state; the smaller budgets cut every head into slabs and chunks.
        near = [s for s in ex_strata if s.atoms == 1e12 and s.x < 1e-3] * 13
        for budget in [None, 4_096, 7]:
            if budget is not None:
                monkeypatch.setattr(exact, "_CHUNK_ELEMENTS", budget)
            states = near if budget is None else ex_strata
            xs, taus = [s.x for s in states], [s.tau for s in states]
            groups = {}
            for i, (x, t) in enumerate(zip(xs, taus)):
                groups.setdefault((t, exact._head_length(x, t)[0]), []).append(i)
            chunks = exact._head_chunks(groups)
            # The 13 copies form one group, whose head is one slab summed in 13 passes.
            assert len(chunks) == 1 if budget is None else len(chunks) > 1
            assert all(slabs[-1][-1] <= exact._CHUNK_ELEMENTS for slabs in chunks)
            got = exact._excited_gauss_sums(xs, taus, (0, 1, 2), 0.0)
            for k, d in enumerate((0, 1, 2)):
                assert got[k, :, 0].tolist() == [
                    exact._excited_gauss_sum(x, t, d, 0.0) for x, t in zip(xs, taus)
                ]

    def test_head_chunks_cover_every_head_in_order(self, monkeypatch):
        # Heads of 9, 1 and 4 rows in slabs of at most 4, and in chunks of
        # whole slabs of at most 4 rows.
        monkeypatch.setattr(exact, "_CHUNK_ELEMENTS", 4)
        groups = {(0.1, head): [i] for i, head in enumerate([9, 1, 4])}
        assert exact._head_chunks(groups) == [
            [(0.1, [0], 0, 0, 4)],
            [(0.1, [0], 4, 0, 4)],
            [(0.1, [0], 8, 0, 1), (0.1, [1], 0, 1, 2)],
            [(0.1, [2], 0, 0, 4)],
        ]

    def test_semiclassical_states_equal_scalar_calls(self):
        # SC, SC0 and SCINF from N = 3 to 1e10 at 7 values of T/T*, isotropic
        # and anisotropic, on the float path, with no grid call.
        states = []
        for model in (M.SC, M.SC0, M.SCINF):
            for atoms in (3.0, 1e3, 1e6, 1e10):
                for ratio in (1.0, 1.7):
                    tau_star = tg.transition_temperature(model, atoms, aniso_ratio=ratio).tau
                    for t in (1.0, 1.001, 1.01, 1.1, 1.5, 3.0, 30.0):
                        states.append(
                            tg.solve_fugacity(model, atoms, tau_star / t, aniso_ratio=ratio)
                        )
        with_ground = [s for s in states if s.model == M.SC]
        reports = [tg.peak_report(s) for s in states]
        fractions = [[tg.integrated_peak_fraction(s, d) for s in with_ground] for d in (1, 2)]
        assert obs._at_origin(states)[0] == reports
        assert obs._at_origin(with_ground, (2, 0, 1)) == [fractions[1], reports[:len(with_ground)], fractions[0]]

    @pytest.mark.parametrize("model", [M.SC0, M.SCINF])
    def test_saturated_boundary_states_raise_as_scalar(self, model):
        # At their own threshold SC0 and SCINF sit at z = 1 with no
        # condensate: SCINF's density is finite there, SC0's diverges.
        state = GasState(model=model, atoms=1e3, tau=0.1, x=0.0, n0=0.0, condensed=True)
        expected = outcome(lambda: tg.peak_report(state))
        assert outcome(lambda: obs._at_origin([state])[0][0]) == expected
        if model == M.SC0:
            assert expected[0] is DomainError
        else:
            assert expected.degeneracy_parameter == pytest.approx(2.612375348685488)

    def test_float_path_equals_grid_path_at_one_point(self):
        for model in (M.SC, M.SC0, M.SCINF):
            variant = semiclassical.ScVariant(model, 1.3)
            for x in (1e-12, 1e-3, 0.9, 1.0, 5.0):
                for s in (0.0, 0.3, 2.0, 40.0, 1e154):
                    for d in (0, 1, 2):
                        one = semiclassical._column_sc_at(variant, x, 0.02, d, s, bose.bose_g_x)
                        grid = semiclassical.column_density_sc_x(variant, x, 0.02, d, [s, s])
                        assert [one, one] == grid.tolist(), (model, x, s, d)

    def test_densities_equal_scalar_calls(self, ex_1e4, ex_1e6):
        # A family at one tau whose heads differ (with the tail and without),
        # with a state at another tau among it: exact._columns gives the
        # scalar densities and columns, and the scalar calls' errors.
        grid = np.linspace(0.0, 5.0, 11)
        family = [tg.solve_fugacity(M.EX, n, ex_1e4.tau) for n in (10.0, 5e3, 1e4, 2e4, 1e6)]
        family.insert(2, ex_1e6)
        assert {exact._head_length(s.x, s.tau)[1] for s in family} == {True, False}
        xs, taus = [s.x for s in family], [s.tau for s in family]
        got = exact._columns(xs, taus, (0, 1, 2), grid).tolist()
        assert got[0] == [obs.total_density(s, grid).tolist() for s in family]
        for d in (1, 2):
            assert got[d] == [
                exact.column_density_ex_x(s.x, s.tau, d, grid).tolist() for s in family
            ]
        for x, tau in [(0.0, ex_1e4.tau), (ex_1e4.x, 0.0), (ex_1e4.x, math.nan)]:
            expected = outcome(lambda: exact.density_ex_x(x, tau, grid))
            assert expected[0] is DomainError
            got = outcome(lambda: exact._columns([ex_1e6.x, x], [ex_1e6.tau, tau], (0,), grid))
            assert got == expected
        expected = outcome(lambda: exact.density_ex_x(ex_1e4.x, ex_1e4.tau, [0.0, -1.0]))
        assert outcome(lambda: exact._columns(xs, taus, (0,), [0.0, -1.0])) == expected

    def test_sc0_below_threshold_raises_as_scalar(self, ex_1e4):
        sc0 = tg.solve_fugacity(M.SC0, 1e4, 2.0 * tg.transition_temperature(M.SC0, 1e4).tau)
        assert sc0.condensed
        expected = outcome(lambda: tg.peak_report(sc0))
        assert expected[0] is DomainError
        assert outcome(lambda: obs._at_origin([ex_1e4, sc0])) == expected

    def test_scinf_integrated_fraction_raises_as_scalar(self, ex_1e4):
        scinf = threshold_state(1e3, M.SCINF)
        expected = outcome(lambda: tg.integrated_peak_fraction(scinf, 1))
        assert expected[0] is DomainError
        assert outcome(lambda: obs._at_origin([ex_1e4, scinf], (0, 1))) == expected

    @pytest.mark.parametrize("d", [3, -1, 1.5])
    def test_bad_dims_raise_as_scalar(self, ex_1e4, d):
        expected = outcome(lambda: tg.integrated_peak_fraction(ex_1e4, d))
        assert expected[0] is DomainError
        assert outcome(lambda: obs._at_origin([ex_1e4], (0, d))) == expected

    def test_missed_tail_bound_raises_as_scalar(self, ex_1e4, ex_1e6, monkeypatch):
        # The 60-power series leaves about 1e-30 of the sum out.
        monkeypatch.setattr(exact, "REL_TOL", 1e-300)
        expected = outcome(lambda: tg.peak_report(ex_1e6))
        assert expected[0] is TruncationError
        assert outcome(lambda: obs._at_origin([ex_1e6])) == expected
        assert outcome(lambda: obs._at_origin([ex_1e4, ex_1e6], (1,)))[0] is TruncationError

    def test_head_past_max_terms_raises_as_scalar(self, monkeypatch):
        state = tg.solve_fugacity(M.EX, 1e10, tg.transition_temperature(M.EX, 1e10).tau)
        monkeypatch.setattr(exact, "MAX_TERMS", 1000)
        expected = outcome(lambda: tg.peak_report(state))
        assert expected[0] is TruncationError
        assert outcome(lambda: obs._at_origin([state], (0, 2))) == expected
