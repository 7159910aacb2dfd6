"""Exact grand-canonical sums for the isotropic harmonic trap.

Everything here works in trap units: lengths in sigma = sqrt(hbar/m omega),
densities in sigma^-3, temperature through tau = hbar omega / k_B T, and
fugacity through x = -ln z with z = e^{beta(mu - eps0)} in (0, 1).

The closed forms are single sums over l (one term per power of z):

    N      = sum_l z^l (1 - e^{-tau l})^{-3}
    rho(r) = pi^{-3/2} sum_l z^l (1 - e^{-2 tau l})^{-3/2}
                 exp(-tanh(tau l / 2) r^2)

Both embed the ground state (sum_l z^l = z/(1-z), Gaussian of unit width).
Near saturation x can be 1e-6 or smaller while the remaining factors decay
only at rate tau, so the sums are evaluated with the ground-state term
split off analytically; the residual brackets decay at rate x + tau.

Every l-sum (the population, and the Gaussian sum behind the density and
the columns) follows one rule, fixed before any term is summed
(``_head_length``): a head of L terms summed one by one, then, near
saturation, a closed-form tail.  Each bracket is at most the l = 1 bracket,
so far from saturation L = 1 + ceil((ln(1/REL_TOL) - ln(e^x - 1)) / x)
leaves out at most REL_TOL of the sum.  Where that L would pass
l_tail = ceil(ln(1/_TAIL_Q) / tau) (large clouds near threshold, where it
grows like 32/x), the head stops at l_tail instead.  Past l_tail each term
is a power series in q = e^{-tau l} <= _TAIL_Q whose powers sum
geometrically over l, so the rest of the sum is a closed form of
_TAIL_TERMS terms, with a bound on the powers left out (see
``_q_series_tail``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, TruncationError
from .models import PI_32, check_positive, ground_column

#: Element budget of one head x grid-chunk buffer (2 MB of float64).
_CHUNK_ELEMENTS = 1 << 18
#: The l-sums hand over to their q-series tail where q = e^{-tau l} first
#: falls to _TAIL_Q; the series keeps _TAIL_TERMS powers of q.
_TAIL_Q = 0.1
_TAIL_TERMS = 60
#: Truncation of every l-sum: relative tail bound and the cap on terms.
REL_TOL = 1e-14
MAX_TERMS = 10_000_000


def _x_from_z(z: float) -> float:
    z = float(z)
    if not 0.0 < z < 1.0:
        raise DomainError(f"fugacity must lie in (0, 1), got {z!r}")
    return -math.log(z)


def ground_population(x: float) -> float:
    """N0 = z/(1-z) expressed through x = -ln z (exact near saturation)."""
    if not x > 0.0:
        raise DomainError(f"ground population needs x > 0, got {x!r}")
    return 1.0 / math.expm1(x)


def _head_length(x: float, tau: float) -> tuple[int, bool]:
    """Terms L summed one by one, and whether the q-series tail adds the rest.

    L = l_tail with the tail, or, where it is shorter, the L past which
    the terms add at most term_1 e^{-x(L-1)} / (e^x - 1) <= REL_TOL term_1
    and no tail is needed.
    """
    # Capped so that a tiny tau fails the MAX_TERMS test instead of overflowing.
    l_tail = math.ceil(min(math.log(1.0 / _TAIL_Q) / tau, MAX_TERMS + 1.0))
    head, tail = l_tail, True
    if x > 0.0:
        # ln(1/REL_TOL) - ln(e^x - 1), finite for every positive x.
        cut = math.log(1.0 / REL_TOL) - x - math.log(-math.expm1(-x))
        if (l_tail - 1) * x > cut:
            head, tail = 1 + math.ceil(max(cut, 0.0) / x), False
    if head > MAX_TERMS:
        raise TruncationError(
            f"excited l-sum needs {head} > {MAX_TERMS} terms (x={x}, tau={tau})"
        )
    return head, tail


def excited_population_x(x: float, tau: float) -> float:
    """sum_l e^{-lx} [(1 - e^{-tau l})^{-3} - 1]; finite for any x >= 0.

    At x = 0 this is the saturated excited-state population that defines
    the exact transition temperature.  It is the d = 3, s = 0 case of
    :func:`_excited_gauss_sum` (whose bracket reduces to the one here),
    summed on its own because the solvers make many scalar calls, where
    the general kernel's numpy overhead would dominate.
    """
    tau = check_positive("tau", tau)
    if not x >= 0.0:
        raise DomainError(f"need x >= 0, got {x!r}")
    head, tail = _head_length(x, tau)
    l = np.arange(1.0, head + 1.0)
    bracket = 1.0 / (-np.expm1(-tau * l)) ** 3 - 1.0
    total = float((np.exp(-x * l) * bracket).sum())
    if tail:
        # The Gaussian sum's d = 3 tail at s = 0 is pi^{3/2} times this one.
        rest = _q_series_tail(x, tau, 3, head, np.zeros(1), total * PI_32)
        total += float(rest[0]) / PI_32
    return total


def population_ex(z: float, tau: float) -> float:
    """Total atom number N(z, tau), ground state included."""
    x = _x_from_z(z)
    return ground_population(x) + excited_population_x(x, tau)


def population_ex_x(x: float, tau: float) -> float:
    """x-space variant of :func:`population_ex` used by the solvers."""
    if not x > 0.0:
        raise DomainError(f"total population needs x > 0, got {x!r}")
    return ground_population(x) + excited_population_x(x, tau)


def excited_density_x(x: float, tau: float, r):
    """Excited-states density (sigma^-3) at radius r (scalar or array).

    This is the full density with the ground-state Gaussian removed
    term by term, so it stays finite and accurate through saturation.
    """
    return _excited_gauss_sum(x, tau, 0, r)


def density_ex(z: float, tau: float, r):
    """Total density rho_ex(r) in sigma^-3 units, ground state included."""
    x = _x_from_z(z)
    return density_ex_x(x, tau, r)


def density_ex_x(x: float, tau: float, r):
    if not x > 0.0:
        raise DomainError(f"total density needs x > 0, got {x!r}")
    ground = ground_column(ground_population(x), 0, np.asarray(r, dtype=float))
    return ground + excited_density_x(x, tau, r)


def excited_column_x(x: float, tau: float, dims_integrated: int, s):
    """Excited part of the density integrated over ``dims_integrated`` axes.

    Each integrated axis turns a term's Gaussian of inverse width a_l into
    a factor sqrt(pi / a_l); the remaining coordinate s is the transverse
    radius (d = 1) or the single remaining axis coordinate (d = 2).  Units
    are sigma^(d-3); d = 3 integrates everything and returns the excited
    atom number.
    """
    if dims_integrated not in (1, 2, 3):
        raise DomainError(f"dims_integrated must be 1, 2 or 3, got {dims_integrated!r}")
    return _excited_gauss_sum(x, tau, dims_integrated, s)


def _excited_gauss_sum(x: float, tau: float, d: int, s):
    """sum_l e^{-lx} [k_l (pi/a_l)^{d/2} e^{-a_l s^2} - pi^{d/2} e^{-s^2}] / pi^{3/2}.

    The excited column over d axes (d = 0 is the density), with
    k_l = (1 - e^{-2 tau l})^{-3/2} and a_l = tanh(tau l / 2).  Every grid
    column sums the same head (``_head_length``), then the closed-form
    q-series tail where the head stops at ``l_tail``.
    """
    tau = check_positive("tau", tau)
    if not x >= 0.0:
        raise DomainError(f"need x >= 0, got {x!r}")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not ((s_arr >= 0.0) & (s_arr < math.inf)).all():
        raise DomainError("radius or column coordinate must be finite and nonnegative")
    head, tail = _head_length(x, tau)
    s2 = s_arr**2
    gauss = math.pi ** (0.5 * d) * np.exp(-s2)
    l = np.arange(1.0, head + 1.0)
    a = np.tanh(0.5 * tau * l)
    k32 = 1.0 / (-np.expm1(-2.0 * tau * l)) ** 1.5
    coef = k32 * (math.pi / a) ** (0.5 * d) if d else k32
    total = _gauss_head(np.exp(-x * l), coef, a, s2, gauss)
    if tail:
        total += _q_series_tail(x, tau, d, head, s2, total)
    return total / PI_32 if np.ndim(s) else float(total[0]) / PI_32


def _q_series_tail(x, tau, d, l_end, s2, total):
    """Closed-form sum of the terms l > l_end of :func:`_excited_gauss_sum`.

    With q = e^{-tau l} each term is pi^{d/2} e^{-s^2} e^{-xl} [G(q) - 1], where
    G(q) = (1-q)^{-(3+d)/2} (1+q)^{-(3-d)/2} exp(2 s^2 q / (1+q)) = sum_m g_m q^m.
    Summing e^{-(x + m tau) l} over l > l_end is geometric, so the tail is
    sum_{m=1}^{M} g_m e^{-x l1} q1^m / (1 - e^{-(x + m tau)}) with l1 = l_end + 1
    and q1 = e^{-tau l1} < _TAIL_Q.  Each g_m is a polynomial in c = 2 s^2, so the
    per-column work is one vector-matrix product.

    The powers m > M are bounded through the majorant (1-q)^{-3} exp(c q / (1-q))
    of G: Cauchy's estimate at radius rho gives
    |g_m| <= (1-rho)^{-3} e^{c rho/(1-rho)} rho^{-m}.  With
    rho = min(1/4, p1/(1 + 2 p1)), p1 = e^{-tau}, the bound times e^{-s^2}
    decays in s like the l = 1 term, e^{-tanh(tau/2) s^2}, at every tau, and
    q1/rho <= 0.4.  A column whose bound misses ``REL_TOL`` times its total
    raises ``TruncationError``.
    """
    l1 = l_end + 1
    q1 = math.exp(-tau * l1)
    m = np.arange(1.0, _TAIL_TERMS + 1.0)
    v = (np.exp(-tau * l1 * m) / -np.expm1(-(x + tau * m))) @ _tail_coefficients(d)
    scale = math.pi ** (0.5 * d) * math.exp(-x * l1)
    rows = _TAIL_TERMS + 1
    tail = np.empty_like(s2)
    bounds = _chunk_bounds(s2.size, rows)
    powers = np.empty(rows * -(-s2.size // len(bounds)))
    for lo, hi in bounds:
        p = powers[: rows * (hi - lo)].reshape(rows, hi - lo)
        p[0] = np.exp(-s2[lo:hi])
        p[1:] = 2.0 * s2[lo:hi]
        np.cumprod(p, axis=0, out=p)  # row j: (2 s^2)^j e^{-s^2}
        np.dot(v, p, out=tail[lo:hi])
    tail *= scale
    p1 = math.exp(-tau)
    rho = min(0.25, p1 / (1.0 + 2.0 * p1))
    # q1 / rho, written so that it stays finite where p1 underflows to 0.
    ratio = max(4.0 * q1, math.exp(-tau * l_end) * (1.0 + 2.0 * p1))
    # sum_{m > M} (1-rho)^{-3} e^{c rho/(1-rho)} e^{-s^2} (q1/rho)^m / (1 - e^{-(x + tau)})
    remainder = (
        scale
        * (1.0 - rho) ** -3
        * ratio**rows
        / ((1.0 - ratio) * -math.expm1(-(x + tau)))
        * np.exp(-s2 * (1.0 - 3.0 * rho) / (1.0 - rho))
    )
    if (remainder > REL_TOL * (total + tail)).any():
        raise TruncationError(
            f"q-series tail of the excited l-sum missed rel_tol {REL_TOL} "
            f"(x={x}, tau={tau}, d={d})"
        )
    return tail


@functools.cache
def _tail_coefficients(d: int) -> np.ndarray:
    """C[m-1, j] with g_m = sum_j C[m-1, j] (2 s^2)^j for m = 1 .. M.

    From (1-q)(1+q)^2 G' = [alpha (1+q)^2 - beta (1-q^2) + c (1-q)] G with
    alpha = (3+d)/2, beta = (3-d)/2:
    (m+1) g_{m+1} = (alpha - beta + c - m) g_m + (2 alpha - c + m - 1) g_{m-1}
                    + (alpha + beta + m - 2) g_{m-2},  g_0 = 1.
    """
    alpha, beta = 0.5 * (3 + d), 0.5 * (3 - d)
    g = np.zeros((_TAIL_TERMS + 3, _TAIL_TERMS + 1))  # rows g_{-2} .. g_M
    g[2, 0] = 1.0
    for m in range(_TAIL_TERMS):
        g_m, g_m1, g_m2 = g[m + 2], g[m + 1], g[m]
        g_next = (
            (alpha - beta - m) * g_m
            + (2.0 * alpha + m - 1) * g_m1
            + (alpha + beta + m - 2) * g_m2
        )
        g_next[1:] += g_m[:-1] - g_m1[:-1]
        g[m + 3] = g_next / (m + 1)
    g = g[3:]
    g.flags.writeable = False
    return g


def _chunk_bounds(n: int, rows: int):
    """Even cuts of n grid columns so that rows x chunk stays under the budget."""
    chunks = -(-n // max(_CHUNK_ELEMENTS // rows, 1))
    return [(i * n // chunks, (i + 1) * n // chunks) for i in range(chunks)]


def _gauss_head(weight, coef, a, s2, gauss):
    """Column sums of weight_l (coef_l e^{-a_l s^2} - gauss) over the head rows.

    The grid is cut into even chunks that reuse one buffer, so memory stays
    flat in the grid size.  Each grid point's terms are contiguous in the
    buffer, so numpy sums them pairwise (rounding error O(log L), not O(L)).
    """
    n, rows = s2.size, a.size
    bounds = _chunk_bounds(n, rows)
    buf = np.empty(rows * -(-n // len(bounds)))
    sums = np.empty(n)
    neg_a = -a
    for lo, hi in bounds:
        b = buf[: rows * (hi - lo)].reshape(hi - lo, rows)
        np.multiply(s2[lo:hi, None], neg_a, out=b)
        np.exp(b, out=b)
        np.multiply(b, coef, out=b)
        np.subtract(b, gauss[lo:hi, None], out=b)
        np.multiply(b, weight, out=b)
        b.sum(axis=1, out=sums[lo:hi])
    return sums


def column_density_ex(z: float, tau: float, dims_integrated: int, s):
    """Density integrated over 1, 2 or all 3 axes, ground state included."""
    x = _x_from_z(z)
    return column_density_ex_x(x, tau, dims_integrated, s)


def column_density_ex_x(x: float, tau: float, dims_integrated: int, s):
    if not x > 0.0:
        raise DomainError(f"column density needs x > 0, got {x!r}")
    if dims_integrated not in (1, 2, 3):
        raise DomainError(f"dims_integrated must be 1, 2 or 3, got {dims_integrated!r}")
    d = dims_integrated
    ground = ground_column(ground_population(x), d, np.asarray(s, dtype=float))
    return ground + excited_column_x(x, tau, d, s)


def level_populations_ex(
    z: float, tau: float, n_max: int
) -> list[tuple[int, int, float]]:
    """Per-level populations (n, degeneracy, N_n) for n = 0 .. n_max.

    N_n = g_n z e^{-tau n} / (1 - z e^{-tau n}) with g_n = (n+1)(n+2)/2;
    summed over all n this reproduces the l-sum atom number.
    """
    x = _x_from_z(z)
    tau = check_positive("tau", tau)
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    out = []
    for n in range(n_max + 1):
        g = (n + 1) * (n + 2) // 2
        arg = x + tau * n
        occ = 1.0 / math.expm1(arg) if arg < 700.0 else math.exp(-arg)
        out.append((n, g, g * occ))
    return out


def _hermite_density_1d(u: float, n_max: int) -> np.ndarray:
    """|psi_n(u)|^2 for n = 0 .. n_max via the stable normalized recurrence."""
    psi = np.empty(n_max + 1)
    p_prev = math.pi**-0.25 * math.exp(-0.5 * u * u)
    psi[0] = p_prev * p_prev
    if n_max == 0:
        return psi
    p = math.sqrt(2.0) * u * p_prev
    psi[1] = p * p
    for n in range(2, n_max + 1):
        p, p_prev = u * math.sqrt(2.0 / n) * p - math.sqrt((n - 1) / n) * p_prev, p
        psi[n] = p * p
    return psi


def eigenfunction_oracle(z: float, tau: float, r: float, n_max: int = 200) -> float:
    """Reference density: occupation-weighted sum over 3D quantum numbers.

    Evaluates sum over (nx, ny, nz) of N_{(n)} |psi_nx(r) psi_ny(0)
    psi_nz(0)|^2 at a point on the x axis (isotropy makes the direction
    irrelevant).  No performance contract; valid where the level cutoff
    captures the occupation tail, which is enforced as tau >= 0.2 and
    z <= 0.95 for the default n_max.
    """
    x = _x_from_z(z)
    tau = check_positive("tau", tau)
    if not r >= 0.0:
        raise DomainError(f"radius must be nonnegative, got {r!r}")
    if tau < 0.2 or z > 0.95 or n_max > 200:
        raise DomainError(
            "oracle validated only for tau >= 0.2, z <= 0.95, n_max <= 200"
        )
    psi_r = _hermite_density_1d(float(r), n_max)
    psi_0 = _hermite_density_1d(0.0, n_max)
    pair = np.convolve(psi_0, psi_0)[: n_max + 1]
    triple = np.convolve(psi_r, pair)[: n_max + 1]
    n = np.arange(n_max + 1, dtype=float)
    with np.errstate(over="ignore"):  # deep levels: expm1 -> inf, occ -> 0
        occ = 1.0 / np.expm1(x + tau * n)
    return float(np.dot(occ, triple))
