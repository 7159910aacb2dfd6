"""Independent reference implementations and frozen high-precision values.

The live oracles below use mpmath at elevated precision and deliberately
avoid the package's own evaluation strategies (no singular expansions, no
ground-state splitting): plain term-by-term summation of the defining
series.  The one exception is ``brute_gauss_sum``, the package's earlier
blocked l-sum, which checks the faster kernel that replaced it, and
``per_state_sweep``, the fraction sweep as one solve per state.  Values
that are too slow to recompute on every test run were frozen from the same
routines at dps >= 40; ``scripts/reference_values.py`` regenerates them.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import integrate

from trapgas import core, observables
from trapgas.errors import ConvergenceError, DomainError, TruncationError
from trapgas.models import PI_32, check_positive
from trapgas.tables import SweepTable


def mp_bose_series(nu, z, dps: int = 40) -> float:
    """Brute-force sum of z^l / l^nu with a geometric tail criterion."""
    with mp.workdps(dps):
        z = mp.mpf(z)
        nu = mp.mpf(nu)
        tail_floor = mp.mpf(10) ** (-(dps - 5))
        total = mp.mpf(0)
        l = 1
        while True:
            term = z**l / mp.mpf(l) ** nu
            total += term
            if term * z / (1 - z) < tail_floor * total:
                return float(total)
            l += 1


def mp_polylog(nu, z, dps: int = 40) -> float:
    with mp.workdps(dps):
        return float(mp.polylog(mp.mpf(nu), mp.mpf(z)))


def mp_population_ex(z, tau, dps: int = 40) -> float:
    """Direct double-sum atom number, no ground-state split."""
    with mp.workdps(dps):
        z = mp.mpf(z)
        tau = mp.mpf(tau)
        tail_floor = mp.mpf(10) ** (-(dps - 5))
        total = mp.mpf(0)
        l = 1
        while True:
            term = z**l / (-mp.expm1(-tau * l)) ** 3
            total += term
            if l > 20 and term * z / (1 - z) < tail_floor * total:
                return float(total)
            l += 1


def mp_level_sum(x, tau, first_level: int = 0):
    """sum_{n >= first_level} g_n / (e^{x + tau n} - 1) and its x- and tau-slopes.

    g_n = (n+1)(n+2)/2 is the degeneracy of level n, so this is the exact
    atom number (first_level 0) or, at x = 0 from level 1, the saturated
    excited population, summed over levels rather than over powers of z.
    Returns mpf values at the caller's working precision, summed until a
    term falls below 1e-45 of the total.
    """
    x, tau = mp.mpf(x), mp.mpf(tau)
    q = mp.exp(-tau)
    p = mp.exp(-x) * q**first_level
    n = first_level
    total = dx = dtau = mp.mpf(0)
    while True:
        occ = p / (1 - p)
        term = (n + 1) * (n + 2) // 2 * occ
        total += term
        dx -= term * (1 + occ)
        dtau -= term * (1 + occ) * n
        if term < total * mp.mpf(10) ** -45:
            return total, dx, dtau
        n += 1
        p *= q


def mp_population_sc(kind, x, tau, ratio=1):
    """SC, SC0 or SCINF atom number at z = e^-x from mpmath's polylog (mpf)."""
    x, tau = mp.mpf(x), mp.mpf(tau)
    z = mp.exp(-x)
    total = mp.polylog(3, z) / tau**3
    if kind != "scinf":
        total += 1.5 * ratio * mp.polylog(2, z) / tau**2
    if kind == "sc":
        total += 1 / mp.expm1(x)
    return total


def mp_derivative(f, x, dps: int = 40) -> float:
    """Central difference of the mpf function f at x, step 1e-12 x, at dps digits."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        h = x * mp.mpf(10) ** -12
        return float((f(x + h) - f(x - h)) / (2 * h))


def fsum_population(x, tau) -> float:
    """Excited population sum_l e^{-lx} [(1 - e^{-tau l})^{-3} - 1] by math.fsum.

    The float terms for l <= 40/(x + tau) + 10, summed exactly rounded, so the
    only error left is that of the terms themselves.  Past l the terms decay
    like e^{-l(x + tau)}, so those left out are below about e^{-40} of the sum.
    """
    l = np.arange(1.0, math.floor(40.0 / (x + tau) + 10.0) + 1.0)
    terms = np.exp(-x * l) * (1.0 / (-np.expm1(-tau * l)) ** 3 - 1.0)
    return math.fsum(terms)


def gauss_sum_moment(weights, widths, p: int) -> float:
    """Integral over space of (sum_i w_i e^{-a_i r^2})^p, p = 2 or 3, in closed form.

    Expanding the power gives a multi-sum of Gaussians, each of which
    integrates to (pi / (a_i + a_j [+ a_k]))^{3/2}.
    """
    w = np.asarray(weights, dtype=float)
    a = np.asarray(widths, dtype=float)
    if p == 2:
        terms = np.multiply.outer(w, w) * (math.pi / np.add.outer(a, a)) ** 1.5
    elif p == 3:
        ww = np.multiply.outer(w, w)
        aa = np.add.outer(a, a)
        terms = np.multiply.outer(ww, w) * (math.pi / np.add.outer(aa, a)) ** 1.5
    else:
        raise DomainError(f"p must be 2 or 3, got {p!r}")
    return math.fsum(terms.ravel())


def mp_density_ex(z, tau, r, dps: int = 40) -> float:
    with mp.workdps(dps):
        z = mp.mpf(z)
        tau = mp.mpf(tau)
        r = mp.mpf(r)
        tail_floor = mp.mpf(10) ** (-(dps - 5))
        total = mp.mpf(0)
        l = 1
        while True:
            term = (
                z**l
                / (-mp.expm1(-2 * tau * l)) ** mp.mpf("1.5")
                * mp.e ** (-mp.tanh(tau * l / 2) * r * r)
            )
            total += term
            if l > 20 and term * z / (1 - z) < tail_floor * total:
                return float(total / mp.pi ** mp.mpf("1.5"))
            l += 1


def mp_gauss_tail(x, tau, d, l_end, s, dps: int = 40) -> list[float]:
    """sum_{l > l_end} e^{-lx} [k_l (pi/a_l)^{d/2} e^{-a_l s^2} - pi^{d/2} e^{-s^2}].

    The excited Gaussian l-sum's terms past ``l_end``, summed one by one
    (k_l = (1 - e^{-2 tau l})^{-3/2}, a_l = tanh(tau l / 2)), for each s.
    """
    out = []
    with mp.workdps(dps):
        x, tau, half_d = mp.mpf(x), mp.mpf(tau), mp.mpf(d) / 2
        tail_floor = mp.mpf(10) ** (-(dps - 5))
        for s_val in s:
            s2 = mp.mpf(s_val) ** 2
            gauss = mp.pi**half_d * mp.exp(-s2)
            total = mp.mpf(0)
            l = l_end + 1
            while True:
                a = mp.tanh(tau * l / 2)
                k = (-mp.expm1(-2 * tau * l)) ** mp.mpf("-1.5")
                term = mp.exp(-x * l) * (k * (mp.pi / a) ** half_d * mp.exp(-a * s2) - gauss)
                total += term
                if term < tail_floor * total * (1 - mp.exp(-tau)):
                    break
                l += 1
            out.append(float(total))
    return out


def quad_column_sc(variant, x, tau, dims_integrated, s) -> float:
    """Semi-classical column by adaptive quadrature of the 3D density.

    Integrates ``density_sc_x`` along one axis (d = 1) or over a plane in
    polar coordinates (d = 2) out to twelve thermal radii, independent of
    the closed form built from shifted Bose orders.
    """
    from trapgas.semiclassical import density_sc_x

    def rho(radius: float) -> float:
        return density_sc_x(variant, x, tau, radius)

    cut = 12.0 / math.sqrt(tau)
    if dims_integrated == 1:
        val, _ = integrate.quad(lambda u: rho(math.hypot(s, u)), 0.0, cut, limit=200)
        return 2.0 * val
    val, _ = integrate.quad(
        lambda u: 2.0 * math.pi * u * rho(math.hypot(s, u)), 0.0, cut, limit=200
    )
    return val


# ---------------------------------------------------------------------------
# The blocked brute-force Gaussian l-sum, kept as the reference for the head
# length and the closed-form tail of ``exact._excited_gauss_sum``: every
# column sums whole 4096-term blocks until all columns meet the tail bound.
# Same arguments and result as the package kernel.

_BLOCK = 4096
_CHUNK_ELEMENTS = 1 << 18


def brute_gauss_sum(
    x: float,
    tau: float,
    d: int,
    s,
    *,
    rel_tol: float = 1e-14,
    max_terms: int = 10_000_000,
):
    """sum_l e^{-lx} [k_l (pi/a_l)^{d/2} e^{-a_l s^2} - pi^{d/2} e^{-s^2}] / pi^{3/2}.

    The excited column over d axes (d = 0 is the density), with
    k_l = (1 - e^{-2 tau l})^{-3/2} and a_l = tanh(tau l / 2).
    """
    tau = check_positive("tau", tau)
    if x < 0.0:
        raise DomainError(f"need x >= 0, got {x!r}")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < 0.0):
        raise DomainError("radius or column coordinate must be nonnegative")
    s2 = s_arr**2
    gauss = math.pi ** (0.5 * d) * np.exp(-s2)
    total = np.zeros_like(s2)
    start = 1
    while start <= max_terms:
        l = np.arange(start, min(start + _BLOCK, max_terms + 1), dtype=float)
        a = np.tanh(0.5 * tau * l)
        k32 = 1.0 / (-np.expm1(-2.0 * tau * l)) ** 1.5
        col = (math.pi / a) ** (0.5 * d)
        block, last = _brute_gauss_block(np.exp(-x * l), k32 * col, a, s2, gauss)
        total += block
        l_next = l[-1] + 1.0
        q_next = math.exp(-tau * l_next)
        if q_next < 0.5:
            a_next = math.tanh(0.5 * tau * l_next)
            # bracket_j <= q_j [ (3/2) q_next (1-q_next^2)^{-5/2} + 2 s^2 + d/a_next ]
            #              (pi/a_next)^{d/2} e^{-a_next s^2}
            coeff = (
                1.5 * q_next / (1.0 - q_next * q_next) ** 2.5
                + 2.0 * s2
                + d / a_next
            ) * (math.pi / a_next) ** (0.5 * d)
            tail = (
                coeff
                * np.exp(-a_next * s2)
                * q_next
                * math.exp(-x * l_next)
                / (-math.expm1(-(x + tau)))
            )
            floor = rel_tol * np.maximum(total, 1e-300)
            if np.all(tail <= floor) and np.all(last <= floor):
                return total / PI_32 if np.ndim(s) else float(total[0]) / PI_32
        start += _BLOCK
    raise TruncationError(
        f"excited l-sum exceeded {max_terms} terms (x={x}, tau={tau}, d={d})"
    )


def _brute_gauss_block(weight, coef, a, s2, gauss):
    """One l-block: column sums and last row of weight_l (coef_l e^{-a_l s^2} - gauss).

    The grid is cut into chunks of at most ``_CHUNK_ELEMENTS // _BLOCK``
    points that reuse one buffer, so memory stays flat in the grid size.
    Chunks are as even as possible and never a lone point while the grid is
    wider: a single column would switch numpy to pairwise summation and move
    the last bits of the row-by-row sum.
    """
    n = s2.size
    chunks = -(-n // (_CHUNK_ELEMENTS // _BLOCK))
    bounds = [i * n // chunks for i in range(chunks + 1)]
    buf = np.empty(a.size * -(-n // chunks))
    sums = np.empty(n)
    last = np.empty(n)
    neg_a = -a[:, None]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        b = buf[: a.size * (hi - lo)].reshape(a.size, hi - lo)
        np.multiply(neg_a, s2[lo:hi], out=b)
        np.exp(b, out=b)
        np.multiply(coef[:, None], b, out=b)
        np.subtract(b, gauss[lo:hi], out=b)
        np.multiply(weight[:, None], b, out=b)
        b.sum(axis=0, out=sums[lo:hi])
        last[lo:hi] = b[-1]
    return sums, last


# ---------------------------------------------------------------------------
# Frozen values (dps >= 40; see scripts/reference_values.py).

#: g_{1/2}(e^-0.001) by direct partial summation, ~57k terms at 50 digits.
G_HALF_AT_EXP_MINUS_1E3 = 54.589765528650657287

#: g_{1/2}(e^-1e-6), Lerch-based polylog.
G_HALF_AT_EXP_MINUS_1E6 = 1770.9934966045926527

#: g_{3/2}(e^-1e-6), g_3(e^-1e-4), g_2(e^-1e-4).
G_THREEHALF_AT_EXP_MINUS_1E6 = 2.6088319013380821778
G_THREE_AT_EXP_MINUS_1E4 = 1.2018924633046946556
G_TWO_AT_EXP_MINUS_1E4 = 1.6439130303110427071

#: Exact-model atom number and densities at (z, tau) = (0.5, 1.0) etc.
POP_EX_HALF_TAU1 = 2.6413304651489918476
RHO_EX_HALF_TAU1_R0 = 0.2028252052606679406
RHO_EX_HALF_TAU1_R1 = 0.10946481056654102028
RHO_EX_09_TAU05_R2 = 0.18891948293803240063

#: Exact-model transition temperatures (hbar omega / k_B).
T_STAR_EX_1E3 = 8.71383456888870318
T_STAR_EX_1E6 = 93.3579738913974809

#: Saturated excited population of the exact model at T = 93.37.
CAP_EX_AT_9337 = 1000383.63823489463

#: x = -ln z solving N = 1e6 at tau = 1/93.37 (extended-precision bisection).
X_STAR_1E6_AT_9337 = 0.00098257783328220974901


def per_state_sweep(models, atoms, temperatures, metadata, warn=None) -> SweepTable:
    """``figures._fraction_sweep`` as it was before it solved EX in lockstep.

    Each model's state at each temperature is one ``solve_fugacity`` call;
    a typed error goes to ``warn(model, t, exc)`` and leaves two empty
    cells, or without ``warn`` propagates.
    """
    columns = [f"{kind}_frac_{model.value}" for model in models for kind in ("N0", "peak")]
    table = SweepTable(["T", *columns], metadata)
    for t in temperatures:
        cells = [t]
        for model in models:
            try:
                units = core.ReducedUnits.from_temperature(t)
                report = observables.peak_report(core.solve_fugacity(model, atoms, units))
                cells += [report.n0_fraction, report.peak_fraction]
            except (DomainError, ConvergenceError, TruncationError) as exc:
                if warn is None:
                    raise
                warn(model, t, exc)
                cells += [None, None]
        table.add_row(*cells)
    return table
