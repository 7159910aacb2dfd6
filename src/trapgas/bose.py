"""Bose-Einstein functions g_nu(z) on the physical fugacity interval [0, 1].

The gas models need six orders, nu in {1/2, 1, 3/2, 2, 5/2, 3}, evaluated
from z = 0 up to (and at, where finite) the saturation point z = 1; the
orders 1 and 5/2 enter only through the semi-classical column densities.
g_1(z) = -ln(1 - z) is evaluated in closed form.  For the other orders the
defining power series g_nu(z) = sum_{l>=1} z^l / l^nu converges too slowly
near z = 1, so for x = -ln z below ``X_SWITCH`` the functions switch to
truncated expansions around the singular point (Robinson 1951):

    g_nu(e^-x) = Gamma(1-nu) x^(nu-1) + sum_k zeta(nu-k) (-x)^k / k!

for half-integer nu, and the analogue with a logarithmic term replacing the
divergent zeta(1) coefficient for nu = 2, 3.  Eight expansion terms hold
better than 1e-10 over the whole switch window.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math

from .errors import DomainError, TruncationError

#: The only constructible Bose-function orders.
BOSE_ORDERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

#: Crossover between the direct series (above) and the x-expansion (below).
X_SWITCH = 0.1

# Direct-series truncation: stop once the running term is negligible
# relative to the accumulated sum AND the geometric tail bound
# term * z / (1 - z) is below the absolute floor.
_SERIES_REL = 1e-16
_SERIES_TAIL = 1e-14
_SERIES_MAX_TERMS = 20_000_000

_SQRT_PI = 1.7724538509055160273  # Gamma(1/2)
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
    """Sum g_nu(z) = sum z^l / l^nu term by term.

    Truncated by ``_SERIES_REL``, ``_SERIES_TAIL`` and ``_SERIES_MAX_TERMS``,
    read at call time; ``bose_g`` is the dispatching entry point.
    """
    nu = _check_order(nu)
    if not 0.0 <= z < 1.0:
        raise DomainError(f"direct series needs 0 <= z < 1, got {z!r}")
    if z == 0.0:
        return 0.0
    rel_tol, tail_tol, max_terms = _SERIES_REL, _SERIES_TAIL, _SERIES_MAX_TERMS
    total = 0.0
    power = 1.0
    geom = z / (1.0 - z)
    for l in range(1, max_terms + 1):
        power *= z
        term = power / l**nu if l > 1 else z
        total += term
        if term <= rel_tol * total and term * geom <= tail_tol:
            return total
    raise TruncationError(
        f"series for g_{nu}({z}) did not meet its tail bound in {max_terms} terms"
    )


def bose_g_small_x(nu: float, x: float) -> float:
    """g_nu(e^-x) from the expansion around saturation, x = -ln z > 0.

    Accurate to better than 1e-10 for 0 < x <= X_SWITCH; usable (with
    slowly degrading truncation error) up to x of order 1.
    """
    nu = _check_order(nu)
    if not x > 0.0:
        raise DomainError(f"expansion needs x > 0, got {x!r}")
    if nu == 1.0:
        return _g_one(x)
    if nu in (0.5, 1.5, 2.5):
        # Gamma(1 - nu) x^(nu - 1)
        if nu == 0.5:
            total = _SQRT_PI / math.sqrt(x)
        elif nu == 1.5:
            total = -2.0 * _SQRT_PI * math.sqrt(x)
        else:
            total = 4.0 / 3.0 * _SQRT_PI * x * math.sqrt(x)
        sign_pow = 1.0  # (-x)^k / k!
        for k in range(9):
            total += _ZETA[nu - k] * sign_pow
            sign_pow *= -x / (k + 1)
        return total
    if nu == 2.0:
        return (
            _ZETA[2.0]
            + x * (math.log(x) - 1.0)
            - x**2 / 4.0
            + x**3 / 72.0
            - x**5 / 14400.0
            + x**7 / 1270080.0
        )
    # nu == 3
    return (
        _ZETA[3.0]
        - _ZETA[2.0] * x
        + 0.5 * x * x * (1.5 - math.log(x))
        + x**3 / 12.0
        - x**4 / 288.0
        + x**6 / 86400.0
        - x**8 / 10160640.0
    )


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
    return direct_series(nu, math.exp(-x))


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
