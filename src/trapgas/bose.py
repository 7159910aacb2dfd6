"""Bose-Einstein functions g_nu(z) on the physical fugacity interval [0, 1].

The gas models need six orders, nu in {1/2, 1, 3/2, 2, 5/2, 3}, evaluated
from z = 0 up to (and at, where finite) the saturation point z = 1; the
orders 1 and 5/2 enter only through the semi-classical column densities.
g_1(z) = -ln(1 - z) is evaluated in closed form.  The other orders take,
below x = -ln z = ``X_SWITCH`` = 1, one expansion around saturation
(Robinson 1951), tabulated at import (``_EXPANSIONS``) and summed by
Horner's rule:

    g_nu(e^-x) = Gamma(1-nu) x^(nu-1) + sum_{k=0}^{20} zeta(nu-k) (-x)^k / k!

for half-integer nu; for nu = n = 2, 3, (-x)^(n-1)/(n-1)! (H_{n-1} - ln x),
with H the harmonic numbers, leads in place of the zeta(1) pole.  The
series converges for x < 2 pi, and at x = 1 the first term left out is
below 3e-18.  Above the switch the direct series runs to
L = ceil(ln(1/_SERIES_REL)/x) <= 37 terms, fixed before summing, and
leaves out at most z^L/((1-z) L^nu) of its first term.  Every order is
within 2.2e-15 of 40-digit mpmath at 365 x from 1e-9 to 63 (1.4e-15
measured).  The population kernels take g_1, g_2 and g_3 at one x from
``bose_g123_x``, one fused loop on each side of the switch (a Horner loop
with two accumulators below it, a power loop over the tabulated l^2 and
l^3 above it) that gives the floats of three ``bose_g_x`` calls.
``_g_array`` follows the same rules point by point on a numpy array, for
the semi-classical profiles, and sums the direct series of every point at
once.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, TruncationError
from .models import as_number, check_choice, check_x, x_from_z

#: The only constructible Bose-function orders.
BOSE_ORDERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

#: Crossover between the direct series (above) and the x-expansion (below).
X_SWITCH = 1.0

# Direct series: z^L = _SERIES_REL fixes its length, at most _SERIES_MAX_TERMS.
_SERIES_REL = 1e-16
_SERIES_LOG = math.log(1.0 / _SERIES_REL)
_SERIES_MAX_TERMS = 20_000_000
#: Most terms of a direct series above X_SWITCH, and the points the array
#: path sums at a time (a 2.4 MB array of powers).
_SERIES_WIDTH = math.ceil(_SERIES_LOG / X_SWITCH)
_SERIES_CHUNK = 1 << 13
#: l^nu for l = 1 .. _SERIES_WIDTH, by the scalar series' float power.
_ORDER_POWERS = {
    nu: np.array([float(l) ** nu for l in range(1, _SERIES_WIDTH + 1)]) for nu in BOSE_ORDERS
}

_LN2 = math.log(2.0)
#: Terms k = 0 .. _EXPANSION_TERMS - 1 of the near-saturation expansion.
_EXPANSION_TERMS = 21

# Riemann zeta at the orders the models and the expansions touch, as
# printed by scripts/zeta_table.py: hard-coded rather than computed, so
# deterministic and free at import time.
_ZETA = {
    3.0: 1.2020569031595942,
    2.5: 1.341487257250917,
    2.0: 1.6449340668482264,
    1.5: 2.612375348685488,
    0.5: -1.4603545088095868,
    0.0: -0.5,
    -0.5: -0.20788622497735457,
    -1.0: -1.0 / 12.0,
    -1.5: -0.025485201889833036,
    -2.0: 0.0,
    -2.5: 0.008516928777850331,
    -3.0: 1.0 / 120.0,
    -3.5: 0.004441011335479432,
    -4.0: 0.0,
    -4.5: -0.0030916692472158338,
    -5.0: -1.0 / 252.0,
    -5.5: -0.0026714580198992244,
    -6.0: 0.0,
    -6.5: 0.0027467679395368687,
    -7.0: 1.0 / 240.0,
    -7.5: 0.00326903957260022,
    -8.0: 0.0,
    -8.5: -0.00441603287300489,
    -9.0: -1.0 / 132.0,
    -9.5: -0.006672172296466641,
    -10.0: 0.0,
    -10.5: 0.011146122473942813,
    -11.0: 691.0 / 32760.0,
    -11.5: 0.02039697871594279,
    -12.0: 0.0,
    -12.5: -0.04057496748119458,
    -13.0: -1.0 / 12.0,
    -13.5: -0.08717525590621725,
    -14.0: 0.0,
    -14.5: 0.2011740493842269,
    -15.0: 3617.0 / 8160.0,
    -15.5: 0.4962712199120576,
    -16.0: 0.0,
    -16.5: -1.303229250705114,
    -17.0: -43867.0 / 14364.0,
    -17.5: -3.629759299774574,
    -18.0: 0.0,
    -18.5: 10.687327069021993,
    -19.0: 174611.0 / 6600.0,
    -19.5: 33.168325785694606,
}


def _expansion(nu: float) -> tuple[float, int, float | None, tuple[float, ...]]:
    """(A, p, H, c) with g_nu(e^-x) = A x^p B(x) + sum_k c_k x^k.

    c_k = zeta(nu-k) (-1)^k / k! for k = 20 .. 0 (Horner order).  For
    half-integer nu, A = Gamma(1-nu), B = sqrt(x), p = nu - 3/2 and H is
    None; for nu = n, A = (-1)^(n-1) / (n-1)!, B = H - ln x with H = H_{n-1},
    p = n - 1, and the pole coefficient c_{n-1} = 0.  x^p is taken by
    multiplying, so the scalar and array paths round alike.
    """
    pole = round(nu) - 1 if nu == round(nu) else None
    coeffs = tuple(
        0.0 if k == pole else _ZETA[nu - k] * (-1) ** k / math.factorial(k)
        for k in range(_EXPANSION_TERMS - 1, -1, -1)
    )
    if pole is None:
        return math.gamma(1.0 - nu), round(nu - 1.5), None, coeffs
    harmonic = sum(1.0 / j for j in range(1, pole + 1))
    return (-1) ** pole / math.factorial(pole), pole, harmonic, coeffs


_EXPANSIONS = {nu: _expansion(nu) for nu in BOSE_ORDERS if nu != 1.0}


def zeta_const(order: float) -> float:
    """Tabulated Riemann zeta value for a supported order.

    Supported orders are the Bose orders other than 1 (where zeta has its
    pole) plus the half-integer and integer shifts that appear in the
    near-saturation expansions.
    """
    return _ZETA[check_choice("zeta order", order, _ZETA)]


def direct_series(nu: float, z: float) -> float:
    """g_nu(z) = sum_{l=1}^{L} z^l / l^nu with L = ceil(ln(1/_SERIES_REL) / -ln z).

    L is fixed before summing; L > ``_SERIES_MAX_TERMS`` raises TruncationError.
    """
    nu = check_choice("Bose order", nu, BOSE_ORDERS)
    z = as_number("fugacity", z)
    return _series(nu, z, x_from_z(z)) if z != 0.0 else 0.0


def _series(nu: float, z: float, x: float) -> float:
    terms = math.ceil(_SERIES_LOG / x)
    if terms > _SERIES_MAX_TERMS:
        raise TruncationError(f"g_{nu}({z}) needs {terms} > {_SERIES_MAX_TERMS} terms")
    total = power = z
    l = 1.0  # a float, whose power is quicker than an int's
    for _ in range(terms - 1):
        l += 1.0
        power *= z
        total += power / l**nu
    return total


def bose_g_small_x(nu: float, x: float) -> float:
    """g_nu(e^-x) from the expansion around saturation, 0 < x = -ln z <= X_SWITCH.

    Within the module's stated accuracy there; the truncation error grows
    beyond it, and the series diverges at x = 2 pi, so a larger x is
    refused with DomainError.
    """
    nu = check_choice("Bose order", nu, BOSE_ORDERS)
    x = check_x(x, positive=True)
    if x > X_SWITCH:
        raise DomainError(f"the saturation expansion needs x <= {X_SWITCH}, got {x!r}; "
                          "use bose_g_x")
    if nu == 1.0:
        return _g_one(x)
    return _expansion_sum(nu, x, math.sqrt, math.log)


def _expansion_sum(nu: float, x, sqrt, log):
    """The expansion of g_nu at x, a float or an array, with these sqrt and log."""
    lead, power, harmonic, coeffs = _EXPANSIONS[nu]
    lead = lead * (sqrt(x) if harmonic is None else harmonic - log(x))
    for _ in range(power):
        lead = lead * x
    if power < 0:
        lead = lead / x
    total = 0.0
    for c in coeffs:  # Horner's rule
        total = total * x + c
    return lead + total


def _g_one(x: float) -> float:
    """g_1(e^-x) = -ln(1 - e^-x) for x > 0, to a few ulp.

    Below ln 2, expm1 keeps 1 - e^-x exact; above it, log1p keeps the
    small logarithm exact (-log(-expm1(-x)) is off by 1.7e-4 at x = 30).
    """
    if x <= _LN2:
        return -math.log(-math.expm1(-x))
    return -math.log1p(-math.exp(-x))


def bose_g_x(nu: float, x: float) -> float:
    """g_nu evaluated at z = e^-x for x >= 0.

    This is the precision-safe entry point used by the solvers, which work
    in x = -ln z throughout to keep the ground-state population 1/(e^x - 1)
    meaningful arbitrarily close to saturation.
    """
    nu = check_choice("Bose order", nu, BOSE_ORDERS)
    x = check_x(x)
    if x == 0.0:
        if nu <= 1.0:
            raise DomainError(f"g_{nu:g} diverges at z = 1")
        return _ZETA[nu]
    if nu == 1.0:
        return _g_one(x)
    if x < X_SWITCH:
        return bose_g_small_x(nu, x)
    return _series(nu, math.exp(-x), x)


#: g_2's and g_3's leading factors A and H, and their expansion coefficients
#: side by side in Horner order.
(_G2_LEAD, _, _G2_H, _), (_G3_LEAD, _, _G3_H, _) = _EXPANSIONS[2.0], _EXPANSIONS[3.0]
_G23_COEFFS = tuple(zip(_EXPANSIONS[2.0][3], _EXPANSIONS[3.0][3]))
#: l^2 and l^3 side by side for l = 1 .. _SERIES_WIDTH.
_G23_POWERS = tuple(zip(_ORDER_POWERS[2.0].tolist(), _ORDER_POWERS[3.0].tolist()))


def bose_g123_x(x: float) -> tuple[float, float, float]:
    """(g_1, g_2, g_3) at z = e^-x, x > 0: the floats of three :func:`bose_g_x` calls.

    One loop serves g_2 and g_3 on either side of ``X_SWITCH``, with the
    operations of each order's own call in their order: below it one
    Horner loop with two accumulators, after the leading terms
    -(1 - ln x) x and (1.5 - ln x) x^2 / 2 of ``_EXPANSIONS``; above it one
    loop over the powers of z, to the direct series' length (at most 37
    terms there), dividing by the tabulated l^2 and l^3.
    """
    x = check_x(x, positive=True)
    g1 = _g_one(x)
    if x < X_SWITCH:
        log = math.log(x)
        lead2 = _G2_LEAD * (_G2_H - log) * x
        lead3 = _G3_LEAD * (_G3_H - log) * x * x
        t2 = t3 = 0.0
        for c2, c3 in _G23_COEFFS:
            t2 = t2 * x + c2
            t3 = t3 * x + c3
        return g1, lead2 + t2, lead3 + t3
    z = math.exp(-x)
    terms = math.ceil(_SERIES_LOG / x)
    g2 = g3 = power = z
    for l2, l3 in _G23_POWERS[1:terms]:
        power *= z
        g2 += power / l2
        g3 += power / l3
    return g1, g2, g3


def _g_array(nu: float, x: np.ndarray) -> np.ndarray:
    """g_nu(e^-x) at each point of a float array x, by :func:`bose_g_x`'s rules.

    Needs x >= 0, and x > 0 where nu <= 1 (x = 0 gives zeta(nu)).  Below
    ``X_SWITCH`` a point takes the expansion; above it the direct series
    (``_series_array``).  The operations are the scalar path's, in its
    order, so a value is the scalar one to within 4 ulp (numpy's exp and
    log are not the math module's, and g_2's expansion cancels near
    x = 1); most are equal.
    """
    out = np.empty_like(x)
    if nu == 1.0:
        near = x <= _LN2
        out[near] = -np.log(-np.expm1(-x[near]))
        out[~near] = -np.log1p(-np.exp(-x[~near]))
        return out
    near = x < X_SWITCH
    if near.any():
        # x = 0 (nu > 1) takes ln 1, as x^p = 0 drops the bracket there
        log = lambda v: np.log(np.where(v > 0.0, v, 1.0))
        out[near] = _expansion_sum(nu, x[near], np.sqrt, log)
    far = ~near
    if far.any():
        out[far] = _series_array(nu, x[far], np.exp(-x[far]))
    return out


def _series_array(nu: float, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The direct series of g_nu at z = e^-x, for points x >= X_SWITCH.

    Column j of a table holds z_j in its first L_j rows, L_j the point's
    own length, and 0.0 below them; np.cumprod down the columns turns it
    into the powers z^l, by the scalar path's running product, with the
    terms past L_j masked to 0.0.  np.cumsum then adds the terms row after
    row, in the scalar order (a plain sum may add them pairwise), so a sum
    is the scalar one's, given the same z.
    """
    out = np.empty_like(x)
    for lo in range(0, x.size, _SERIES_CHUNK):
        chunk = slice(lo, lo + _SERIES_CHUNK)
        terms = np.ceil(_SERIES_LOG / x[chunk])
        width = max(int(terms.max()), 1)  # x = inf needs no term
        rows = np.arange(width)[:, None]
        powers = np.cumprod(np.where(rows < terms, z[chunk], 0.0), axis=0)
        out[chunk] = np.cumsum(powers / _ORDER_POWERS[nu][:width, None], axis=0)[-1]
    return out


def bose_g(nu: float, z: float) -> float:
    """Bose function g_nu(z) for z in [0, 1].

    z = 1 is admitted only for nu > 1, where the series converges to
    zeta(nu); g_{1/2} and g_1 diverge there.  Monotone nondecreasing in z
    and accurate to about 1e-12 absolute.
    """
    nu = check_choice("Bose order", nu, BOSE_ORDERS)
    z = as_number("fugacity", z)
    return bose_g_x(nu, x_from_z(z, saturated=True)) if z != 0.0 else 0.0
