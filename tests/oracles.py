"""Independent reference implementations and frozen high-precision values.

The live oracles below use mpmath at elevated precision and deliberately
avoid the package's own evaluation strategies (no singular expansions, no
ground-state splitting): plain term-by-term summation of the defining
series.  Values that are too slow to recompute on every test run were
frozen from the same routines at dps >= 40; ``scripts/reference_values.py``
regenerates them.
"""

from __future__ import annotations

import math

import mpmath as mp
from scipy import integrate


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
