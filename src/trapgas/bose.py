"""Bose-Einstein functions g_nu(z) on the physical fugacity interval [0, 1].

The gas models need six orders, nu in {1/2, 1, 3/2, 2, 5/2, 3}, evaluated
from z = 0 up to (and at, where finite) the saturation point z = 1; the
orders 1 and 5/2 enter only through the semi-classical column densities.
g_1(z) = -ln(1 - z) is evaluated in closed form.  The other orders take,
below x = -ln z = ``X_SWITCH``, one expansion around saturation (Robinson
1951), tabulated at import (``_EXPANSIONS``) and summed by Horner's rule:

    g_nu(e^-x) = Gamma(1-nu) x^(nu-1) + sum_{k=0}^{8} zeta(nu-k) (-x)^k / k!

for half-integer nu; for nu = n = 2, 3, (-x)^(n-1)/(n-1)! (H_{n-1} - ln x),
with H the harmonic numbers, leads in place of the zeta(1) pole.  Above it
the direct series runs to L = ceil(ln(1/_SERIES_REL)/x) terms, fixed before
summing, and leaves out at most z^L/((1-z) L^nu) of its first term.  Every
order is within 2.2e-15 of 40-digit mpmath at 65 x from 1e-9 to 63.  The
population kernels take g_1, g_2 and g_3 at one x from ``bose_g123_x``,
whose one power loop gives the floats of three ``bose_g_x`` calls.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math

from .errors import DomainError, TruncationError

#: The only constructible Bose-function orders.
BOSE_ORDERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

#: Crossover between the direct series (above) and the x-expansion (below).
X_SWITCH = 0.1

# Direct series: z^L = _SERIES_REL fixes its length, at most _SERIES_MAX_TERMS.
_SERIES_REL = 1e-16
_SERIES_MAX_TERMS = 20_000_000

_LN2 = math.log(2.0)

# Riemann zeta at the orders the models and the expansions touch.
# Hard-coded (16+ significant digits) rather than computed: deterministic
# and free at import time.
_ZETA = {
    3.0: 1.2020569031595942854,
    2.5: 1.3414872572509171798,
    2.0: 1.6449340668482264365,
    1.5: 2.6123753486854883433,
    0.5: -1.4603545088095868129,
    0.0: -0.5,
    -0.5: -0.20788622497735456602,
    -1.0: -1.0 / 12.0,
    -1.5: -0.02548520188983303595,
    -2.0: 0.0,
    -2.5: 0.0085169287778503305424,
    -3.0: 1.0 / 120.0,
    -3.5: 0.0044410113354794319585,
    -4.0: 0.0,
    -4.5: -0.0030916692472158338448,
    -5.0: -1.0 / 252.0,
    -5.5: -0.002671458019899224599,
    -6.0: 0.0,
    -6.5: 0.0027467679395368687584,
    -7.0: 1.0 / 240.0,
    -7.5: 0.0032690395726002200217,
}


def _expansion(nu: float) -> tuple[float, float | None, tuple[float, ...]]:
    """(A, H, c) with g_nu(e^-x) = A x^(nu-1) [H - ln x] + sum_k c_k x^k.

    c_k = zeta(nu-k) (-1)^k / k! for k = 8 .. 0 (Horner order).  For
    half-integer nu, A = Gamma(1-nu) and H is None (no bracket); for nu = n,
    A = (-1)^(n-1) / (n-1)!, H = H_{n-1} and the pole coefficient c_{n-1} = 0.
    """
    pole = round(nu) - 1 if nu == round(nu) else None
    coeffs = tuple(
        0.0 if k == pole else _ZETA[nu - k] * (-1) ** k / math.factorial(k)
        for k in range(8, -1, -1)
    )
    if pole is None:
        return math.gamma(1.0 - nu), None, coeffs
    harmonic = sum(1.0 / j for j in range(1, pole + 1))
    return (-1) ** pole / math.factorial(pole), harmonic, coeffs


_EXPANSIONS = {nu: _expansion(nu) for nu in BOSE_ORDERS if nu != 1.0}


def zeta_const(order: float) -> float:
    """Tabulated Riemann zeta value for a supported order.

    Supported orders are the Bose orders other than 1 (where zeta has its
    pole) plus the half-integer and integer shifts that appear in the
    near-saturation expansions.
    """
    value = _ZETA.get(float(order))
    if value is None:
        raise DomainError(f"zeta constant not tabulated for order {order!r}")
    return value


def _check_order(nu: float) -> float:
    nu = float(nu)
    if nu not in BOSE_ORDERS:
        raise DomainError(f"Bose order must be one of {BOSE_ORDERS}, got {nu!r}")
    return nu


def direct_series(nu: float, z: float) -> float:
    """g_nu(z) = sum_{l=1}^{L} z^l / l^nu with L = ceil(ln(1/_SERIES_REL) / -ln z).

    L is fixed before summing; L > ``_SERIES_MAX_TERMS`` raises TruncationError.
    """
    nu = _check_order(nu)
    if not 0.0 <= z < 1.0:
        raise DomainError(f"direct series needs 0 <= z < 1, got {z!r}")
    return _series(nu, z, -math.log(z)) if z > 0.0 else 0.0


def _series(nu: float, z: float, x: float) -> float:
    terms = math.ceil(math.log(1.0 / _SERIES_REL) / x)
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
    """g_nu(e^-x) from the expansion around saturation, x = -ln z > 0.

    Accurate to a few ulp for 0 < x <= X_SWITCH; usable (with slowly
    degrading truncation error) up to x of order 1.
    """
    nu = _check_order(nu)
    if not x > 0.0:
        raise DomainError(f"expansion needs x > 0, got {x!r}")
    if nu == 1.0:
        return _g_one(x)
    lead, harmonic, (c8, c7, c6, c5, c4, c3, c2, c1, c0) = _EXPANSIONS[nu]
    upper = (((c8 * x + c7) * x + c6) * x + c5) * x + c4
    total = (((upper * x + c3) * x + c2) * x + c1) * x + c0
    lead *= x ** (nu - 1.0)
    if harmonic is not None:
        lead *= harmonic - math.log(x)
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
    nu = _check_order(nu)
    if not x >= 0.0:
        raise DomainError(f"need x >= 0, got {x!r}")
    if x == 0.0:
        if nu <= 1.0:
            raise DomainError(f"g_{nu:g} diverges at z = 1")
        return _ZETA[nu]
    if nu == 1.0:
        return _g_one(x)
    if x < X_SWITCH:
        return bose_g_small_x(nu, x)
    return _series(nu, math.exp(-x), x)


def bose_g123_x(x: float) -> tuple[float, float, float]:
    """(g_1, g_2, g_3) at z = e^-x, x > 0: the floats of three :func:`bose_g_x` calls.

    Above ``X_SWITCH`` one loop over the powers of z sums g_2 and g_3 together,
    to the direct series' length (at most 369 terms there).
    """
    if not x > 0.0:
        raise DomainError(f"g_1 needs x > 0, got {x!r}")
    g1 = _g_one(x)
    if x < X_SWITCH:
        return g1, bose_g_small_x(2.0, x), bose_g_small_x(3.0, x)
    z = math.exp(-x)
    terms = math.ceil(math.log(1.0 / _SERIES_REL) / x)
    g2 = g3 = power = z
    l = 1.0
    for _ in range(terms - 1):
        l += 1.0
        power *= z
        g2 += power / l**2.0
        g3 += power / l**3.0
    return g1, g2, g3


def bose_g(nu: float, z: float) -> float:
    """Bose function g_nu(z) for z in [0, 1].

    z = 1 is admitted only for nu > 1, where the series converges to
    zeta(nu); g_{1/2} and g_1 diverge there.  Monotone nondecreasing in z
    and accurate to about 1e-12 absolute.
    """
    nu = _check_order(nu)
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"fugacity must lie in [0, 1], got {z!r}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return bose_g_x(nu, 0.0)
    return bose_g_x(nu, -math.log(z))
