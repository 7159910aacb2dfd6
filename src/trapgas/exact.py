"""Exact grand-canonical sums for the isotropic harmonic trap.

Everything here works in trap units: lengths in sigma = sqrt(hbar/m omega),
densities in sigma^-3, temperature through tau = hbar omega / k_B T, and
fugacity through x = -ln z with z = e^{beta(mu - eps0)} in (0, 1).

The atom number is a sum over the levels n, of degeneracy
g_n = (n+1)(n+2)/2:

    N = sum_n g_n / (e^{x + tau n} - 1)

Its excited part (n >= 1) sums the levels n < _EM_LEVELS one by one and
the rest by Euler-Maclaurin: the integral of the summand from
n = _EM_LEVELS on, a few Bose functions g_1 .. g_3 in closed form (from
n = 0 it is the semi-classical g_3/tau^3 + (3/2) g_2/tau^2 plus g_1/tau),
and an end correction (``_excited_population``).  Its cost does not grow
with N.  ``_excited_populations`` takes a batch of states at once, for the
batched solves, with the same floats.

The density and its columns are single sums over l (one term per power
of z):

    rho(r) = pi^{-3/2} sum_l z^l (1 - e^{-2 tau l})^{-3/2}
                 exp(-tanh(tau l / 2) r^2)

This embeds the ground state (sum_l z^l = z/(1-z), Gaussian of unit width).
Near saturation x can be 1e-6 or smaller while the remaining factors decay
only at rate tau, so the sum is evaluated with the ground-state term split
off analytically; the residual brackets decay at rate x + tau.

The l-sum follows one rule, fixed before any term is summed
(``_head_length``): a head of L terms summed one by one (in slabs of
_SLAB_ROWS terms, so memory stays flat in L), then, near saturation, a
closed-form tail.  Each bracket is at most the l = 1 bracket,
so far from saturation L = 1 + ceil((ln(1/REL_TOL) - ln(e^x - 1)) / x)
leaves out at most REL_TOL of the sum.  Where that L would pass
l_tail = ceil(ln(1/_TAIL_Q) / tau) (large clouds near threshold, where it
grows like 32/x), the head stops at l_tail instead.  Past l_tail each term
is a power series in q = e^{-tau l} <= _TAIL_Q whose powers sum
geometrically over l, so the rest of the sum is a closed form of
_TAIL_TERMS terms with a bound on the powers left out (``_tail_series``),
a polynomial in s^2.  A head longer than MAX_TERMS raises TruncationError.
``_origin_columns`` takes the density and columns at s = 0 for a list of
states at once, for the figures' peak reports: it builds every state's
head rows once for all d and the tail's d-independent factors once per
state, with the floats of the single-state kernel.
``_excited_gauss_sums`` takes several states at one tau on one grid (a
profile family): states with the same head share its buffer of Gaussians
and the tail's power table, and each applies its own e^{-x l}, tail vector
and bound.  The single-state kernel is its batch of one, so both give the
same floats.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bose
from .errors import DomainError, TruncationError
from .models import PI_32, check_coordinates, check_dims, check_levels, check_tau, check_x
from .models import ground_column, occupation, pointwise, x_from_z

#: Element budget of one head x grid-chunk buffer (2 MB of float64).
_CHUNK_ELEMENTS = 1 << 18
#: Rows of an l-sum head evaluated at a time, so that memory stays flat in
#: the head length; one slab holds every head that N <= 1e12 needs near T*.
_SLAB_ROWS = 1 << 17
#: The l-sums hand over to their q-series tail where q = e^{-tau l} first
#: falls to _TAIL_Q; the series keeps _TAIL_TERMS powers of q.
_TAIL_Q = 0.1
_TAIL_TERMS = 60
#: Truncation of the density's l-sum: relative tail bound and the cap on terms.
REL_TOL = 1e-14
MAX_TERMS = 10_000_000
#: The population sums the levels n < _EM_LEVELS one by one and the rest by
#: Euler-Maclaurin with _EM_ORDER Bernoulli terms, B_2k / (2k)! below.
_EM_LEVELS = 40
_EM_ORDER = 5
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
_LEVELS = np.arange(1.0, _EM_LEVELS)
_DEGENERACY = 0.5 * (_LEVELS + 1.0) * (_LEVELS + 2.0)
_EM_C0 = 0.5 * (_EM_LEVELS + 1) * (_EM_LEVELS + 2)  # g_K
_EM_C1 = 0.5 * (2 * _EM_LEVELS + 3)  # dg_n/dn at n = K
_EM_POWERS = np.arange(2.0 * _EM_ORDER + 1.0)


def ground_population(x: float) -> float:
    """N0 = z/(1-z) expressed through x = -ln z (exact near saturation)."""
    return occupation(check_x(x, positive=True))


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


def _head_slabs(head: int):
    """l = 1 .. head as consecutive float arrays of at most _SLAB_ROWS terms."""
    for start in range(0, head, _SLAB_ROWS):
        yield np.arange(start + 1.0, min(start + _SLAB_ROWS, head) + 1.0)


def excited_population_x(x: float, tau: float) -> float:
    """sum_{n>=1} g_n / (e^{x + tau n} - 1), g_n = (n+1)(n+2)/2; finite for any x >= 0.

    At x = 0 this is the saturated excited-state population that defines
    the exact transition temperature.  It is a level sum with a closed-form
    Euler-Maclaurin rest (:func:`_excited_population`), at the same cost for
    every N.
    """
    return _excited_population(check_x(x), tau, None)[0]


def population_slope_ex_x(x: float, tau: float) -> tuple[float, float]:
    """:func:`population_ex_x` and its derivative in x, from the same pass."""
    n0 = ground_population(x)
    excited, slope = _excited_population(x, tau, "x")
    return n0 + excited, slope - n0 * (n0 + 1.0)


def saturated_slope_ex(tau: float) -> tuple[float, float]:
    """The saturated excited population (x = 0) and its derivative in tau."""
    return _excited_population(0.0, tau, "tau")


def _population_slopes(x: np.ndarray, tau: np.ndarray):
    """:func:`population_slope_ex_x` over arrays of states, x > 0 and checked tau."""
    n0 = pointwise(occupation, x)
    excited, slope = _excited_populations(x, tau, "x")
    return n0 + excited, slope - n0 * (n0 + 1.0)


def _saturated_slopes(tau: np.ndarray):
    """:func:`saturated_slope_ex` over an array of checked tau."""
    return _excited_populations(np.zeros_like(tau), tau, "tau")


def _excited_population(x: float, tau: float, wrt):
    """:func:`excited_population_x`, and its derivative in ``wrt`` ("x" or "tau").

    With h(n) = g_n phi(x + tau n) and phi(y) = 1/(e^y - 1), the levels
    n = 1 .. K-1 (K = _EM_LEVELS) are summed one by one.  Euler-Maclaurin
    (DLMF 2.10.1) gives the rest as the integral of h from K on,
    [c0 g_1 + c1 g_2 / tau + g_3 / tau^2](y0) / tau with y0 = x + tau K,
    c0 = g_K and c1 = (2K + 3)/2, plus the end correction
    E = h(K)/2 - sum_{k=1}^{_EM_ORDER} B_2k / (2k)! h^(2k-1)(K)
    (``_end_correction_coefficients``).  The poles of h lie at least K
    from n = K, so its derivatives grow like m!/K^m, and the first term
    left out is about 11!/(2 pi K)^12 = 6e-22 of h(K).  math.fsum adds the
    parts with no further rounding.  The slopes follow from
    dg_nu/dy = -g_{nu-1} (g_0 = phi), with dy0/dx = 1 and dy0/dtau = K.
    The slope is 0.0 when wrt is None; x >= 0 is checked by the caller.
    """
    tau = check_tau(tau)
    terms, slope = _level_terms(x, tau, wrt)
    slope = float(slope)
    y0 = x + tau * _EM_LEVELS
    f = occupation(y0)
    if f == 0.0:  # so are g_1 .. g_3 and E
        return math.fsum(terms.tolist()), slope
    # tau^a and (tau f)^b, finite since tau < 19 where f > 0 and tau f <= 1/K
    e = _end_corrections(tau, f).tolist()
    rest, slope = _em_rest(slope, wrt, tau, tau**2, tau**3, f, bose.bose_g123_x(y0), e)
    return math.fsum([*terms.tolist(), *rest]), slope


def _excited_populations(x: np.ndarray, tau: np.ndarray, wrt):
    """:func:`_excited_population` over arrays of states, x >= 0 and checked tau.

    The levels of all states form one (states x 39) array.  The shared
    steps (``_level_terms``, ``_end_corrections``, ``_em_rest``), the
    scalar calls for g_1 .. g_3, powers and occupations (``pointwise``) and
    a ``math.fsum`` per state give every state the scalar kernel's floats.
    """
    terms, slope = _level_terms(x[:, None], tau[:, None], wrt)
    y0 = x + tau * _EM_LEVELS
    f = pointwise(occupation, y0)
    tau2, tau3 = pointwise(lambda v: v**2, tau), pointwise(lambda v: v**3, tau)
    g123 = pointwise(bose.bose_g123_x, y0).T
    # where f = 0, E is 0; tau = 0 there keeps its powers finite
    e = _end_corrections(np.where(f > 0.0, tau, 0.0)[:, None], f[:, None]).T
    rest, slope = _em_rest(slope, wrt, tau, tau2, tau3, f, g123, e)
    total = np.array(list(map(math.fsum, np.column_stack((terms, *rest)).tolist())))
    return total, slope


def _level_terms(x, tau, wrt):
    """The terms g_n phi(x + tau n) of the levels n = 1 .. K-1, and their sum's slope.

    x and tau are floats, or columns of states whose terms fill the rows.
    The slope in ``wrt`` takes each row's dot product from ``np.vecdot``
    (zeros when wrt is None).
    """
    neg_y = -tau * _LEVELS - x  # exactly -(x + tau n)
    phi = np.exp(neg_y) / -np.expm1(neg_y)  # 1/(e^y - 1), without overflow
    terms = _DEGENERACY * phi
    if wrt == "x":
        return terms, -np.vecdot(terms, 1.0 + phi)
    if wrt == "tau":
        return terms, -np.vecdot(terms, _LEVELS * (1.0 + phi))
    return terms, np.zeros(terms.shape[:-1])


def _end_corrections(tau, f):
    """E, tau dE/dx and tau dE/dtau (last axis) from floats tau and f, or columns of states.

    f C @ (tau f)^b @ tau^a, one matmul form for one state and a stack of
    states.
    """
    left = (_EM_COEFFICIENTS @ ((tau * f) ** _EM_POWERS)[..., None, :, None])[..., 0]
    return f * (left @ (tau**_EM_POWERS)[..., None])[..., 0]


def _em_rest(slope, wrt, tau, tau2, tau3, f, g123, e):
    """The Euler-Maclaurin rest's parts, and ``slope`` plus the rest's slope in ``wrt``.

    Floats of one state or arrays of states alike: g123 holds g_1 .. g_3
    at y0, f = phi(y0), and e = (E, tau dE/dx, tau dE/dtau).
    """
    k, c0, c1 = _EM_LEVELS, _EM_C0, _EM_C1
    g1, g2, g3 = g123
    e, e_x, e_tau = e
    if wrt == "x":
        slope = slope + (e_x - c0 * f - (c1 * g1 + g2 / tau) / tau) / tau
    elif wrt == "tau":
        slope = slope + (e_tau - c0 * (g1 / tau + k * f)) / tau
        slope = slope - (c1 * (2.0 * g2 / tau + k * g1) + (3.0 * g3 / tau + k * g2) / tau) / tau2
    return [c0 * g1 / tau, c1 * g2 / tau2, g3 / tau3, e], slope


def _end_correction_coefficients() -> np.ndarray:
    """C with f sum_ab C[r, a, b] tau^a (tau f)^b = E, tau dE/dx, tau dE/dtau (r = 0, 1, 2).

    f = phi(y0).  Each derivative phi^(j) = P_j(phi) is a polynomial of
    degree j + 1, with P_0(f) = f and P_{j+1} = -P_j'(f) (f + f^2).  g_n is
    quadratic with g, g', g'' = c0, c1, 1 at n = K, so
    h^(m)(K) = c0 tau^m P_m + m c1 tau^(m-1) P_(m-1) + m(m-1)/2 tau^(m-2) P_(m-2)
    and E = sum_i A_i tau^i P_i(f).  Each of the three is
    sum_i w_i tau^i P_i(f), with w = A, (0, A) and i A + K (0, A).  A term
    tau^i f^p is kept as tau^(i+1-p) (tau f)^(p-1) f, whose powers are all
    nonnegative.
    """
    top = 2 * _EM_ORDER + 1  # P_0 .. P_2p, with powers f^0 .. f^top
    p = np.zeros((top, top + 1))
    p[0, 1] = 1.0
    for i in range(top - 1):
        dp = p[i, 1:] * np.arange(1.0, top + 1.0)  # P_i', powers f^0 .. f^(top-1)
        p[i + 1, 1:] -= dp
        p[i + 1, 2:] -= dp[:-1]
    a = np.zeros(top)  # A_0 .. A_{2p-1}, and A_2p = 0
    a[0] = 0.5 * _EM_C0
    for k, b in enumerate(_BERNOULLI, start=1):
        m = 2 * k - 1
        a[m] -= b * _EM_C0
        a[m - 1] -= b * m * _EM_C1
        if m >= 2:
            a[m - 2] -= b * m * (m - 1) / 2
    shifted = np.concatenate(([0.0], a[:-1]))
    weights = np.stack((a, shifted, np.arange(top) * a + _EM_LEVELS * shifted))
    c = np.zeros((3, top, top))
    for i in range(top):
        for q in range(1, i + 2):
            c[:, i + 1 - q, q - 1] += weights[:, i] * p[i, q]
    c.flags.writeable = False
    return c


_EM_COEFFICIENTS = _end_correction_coefficients()


def population_ex(z: float, tau: float) -> float:
    """Total atom number N(z, tau), ground state included."""
    return population_ex_x(x_from_z(z), tau)


def population_ex_x(x: float, tau: float) -> float:
    """x-space variant of :func:`population_ex` used by the solvers."""
    return ground_population(x) + _excited_population(x, tau, None)[0]


def excited_density_x(x: float, tau: float, r):
    """Excited-states density (sigma^-3) at radius r (scalar or array).

    This is the full density with the ground-state Gaussian removed
    term by term, so it stays finite and accurate through saturation.
    """
    return _excited_gauss_sum(check_x(x), tau, 0, r)


def density_ex(z: float, tau: float, r):
    """Total density rho_ex(r) in sigma^-3 units, ground state included."""
    return density_ex_x(x_from_z(z), tau, r)


def density_ex_x(x: float, tau: float, r):
    n0 = ground_population(x)
    excited = excited_density_x(x, tau, r)  # checks r before the ground term squares it
    return ground_column(n0, 0, np.asarray(r, dtype=float)) + excited


def excited_column_x(x: float, tau: float, dims_integrated: int, s):
    """Excited part of the density integrated over ``dims_integrated`` axes.

    Each integrated axis turns a term's Gaussian of inverse width a_l into
    a factor sqrt(pi / a_l); the remaining coordinate s is the transverse
    radius (d = 1) or the single remaining axis coordinate (d = 2).  Units
    are sigma^(d-3); d = 3 integrates everything, so its only coordinate is
    s = 0, and returns the excited atom number.
    """
    check_dims(dims_integrated, (1, 2, 3))
    if dims_integrated == 3 and np.any(np.asarray(s, dtype=float) != 0.0):
        raise DomainError("d = 3 integrates every axis; its only coordinate is s = 0")
    return _excited_gauss_sum(check_x(x), tau, dims_integrated, s)


def _excited_gauss_sum(x: float, tau: float, d: int, s):
    """sum_l e^{-lx} [k_l (pi/a_l)^{d/2} e^{-a_l s^2} - pi^{d/2} e^{-s^2}] / pi^{3/2}.

    The excited column over d axes (d = 0 is the density), with
    k_l = (1 - e^{-2 tau l})^{-3/2} and a_l = tanh(tau l / 2), at x >= 0
    checked by the caller: :func:`_excited_gauss_sums` for one state.
    """
    total = _excited_gauss_sums([x], tau, d, s)[0]
    return total if np.ndim(s) else float(total[0])


def _excited_gauss_sums(x, tau: float, d: int, s) -> np.ndarray:
    """:func:`_excited_gauss_sum` for each of the floats x >= 0 (rows) at one tau on one grid.

    Every grid column of a state sums the same head (``_head_length``),
    slab by slab, then the closed-form q-series tail where the head stops
    at ``l_tail``.  States with the same head share every step that does
    not depend on x: the head buffer k_l (pi/a_l)^{d/2} e^{-a_l s^2} -
    pi^{d/2} e^{-s^2} of each slab and grid chunk (``_gauss_head``) and
    the tail's power table (``_q_series_tail``).  Each state applies its
    own e^{-x l} and row sums, its own tail vector and bound, so every
    value is the single-state float.
    """
    tau = check_tau(tau)
    s2 = check_coordinates(s) ** 2
    gauss = math.pi ** (0.5 * d) * np.exp(-s2)
    groups = {}
    for i, v in enumerate(x):
        groups.setdefault(_head_length(v, tau), []).append(i)
    if len(groups) == 1:
        (head, tail), = groups
        return _group_sum(x, tau, d, head, tail, s2, gauss) / PI_32
    totals = np.empty((len(x), s2.size))
    for (head, tail), members in groups.items():
        totals[members] = _group_sum([x[i] for i in members], tau, d, head, tail, s2, gauss)
    return totals / PI_32


def _group_sum(x, tau, d, head, tail, s2, gauss):
    """The sums of :func:`_excited_gauss_sums` for the floats x of one head length."""
    x_col = np.array(x)[:, None]
    total = np.zeros((len(x), s2.size))
    for l in _head_slabs(head):
        weight, k32, a = _head_rows(x_col, tau, l)
        total += _gauss_head(weight, _head_coef(k32, a, d), a, s2, gauss)
    if tail:
        total += _q_series_tail(x, tau, d, head, s2, total)
    return total


def _head_rows(x, tau, l):
    """e^{-x l}, k_l and a_l of the head rows l; x and tau are floats, or arrays like l."""
    a = np.tanh(0.5 * tau * l)
    k32 = 1.0 / (-np.expm1(-2.0 * tau * l)) ** 1.5
    return np.exp(-x * l), k32, a


def _head_coef(k32, a, d: int):
    """k_l (pi/a_l)^{d/2}, the height of a head row's Gaussian over d axes."""
    return k32 * (math.pi / a) ** (0.5 * d) if d else k32


def _origin_columns(x, tau, dims) -> np.ndarray:
    """:func:`column_density_ex_x` at s = 0 for each d in ``dims`` (rows) and state (columns).

    d = 0 is :func:`density_ex_x` at r = 0.  x and tau are sequences of
    floats, each state checked as the scalar call checks it; the excited
    parts of every d come from one pass of :func:`_excited_origin_sums`.
    Every value is the scalar call's float.
    """
    n0, taus = [], []
    for v, t in zip(x, tau):
        n0.append(ground_population(v))
        taus.append(check_tau(t))
    n0 = np.array(n0)
    excited = _excited_origin_sums(x, taus, dims)
    return np.array([ground_column(n0, d, 0.0) for d in dims]) + excited


def _excited_origin_sums(x, tau, dims) -> np.ndarray:
    """``_excited_gauss_sum(x_i, tau_i, d, 0.0)`` for each d in ``dims`` (rows) and state.

    x >= 0 and checked tau, sequences of floats.  The head rows of all
    states lie end to end, in the scalar kernel's slabs, in chunks of at
    most _CHUNK_ELEMENTS rows (``_head_chunks``); ``_head_rows`` builds them
    once for every d.  At s = 0 a row's term is (coef_l - pi^{d/2}) e^{-x l},
    and each slab is summed on its own as the scalar kernel sums it.  The
    tail's d-independent factors (``_tail_weights``, ``_tail_factors``) are
    built once per state, and at s = 0 the series is its first coefficient
    times its scale.  Every value is the scalar kernel's float.
    """
    x_arr, tau_arr = np.array(x, dtype=float), np.array(tau, dtype=float)
    x, tau = x_arr.tolist(), tau_arr.tolist()
    heads = [_head_length(v, t) for v, t in zip(x, tau)]
    sums = np.zeros((len(dims), x_arr.size))
    for chunk in _head_chunks([head for head, _ in heads]):
        owners = [i for i, _ in chunk]
        sizes = [l.size for _, l in chunk]
        weight, k32, a = _head_rows(
            np.repeat(x_arr[owners], sizes),
            np.repeat(tau_arr[owners], sizes),
            np.concatenate([l for _, l in chunk]),
        )
        ends = np.cumsum(sizes).tolist()
        for k, d in enumerate(dims):
            terms = (_head_coef(k32, a, d) - math.pi ** (0.5 * d)) * weight
            for i, lo, hi in zip(owners, [0, *ends], ends):
                sums[k, i] += terms[lo:hi].sum()
    tailed = [i for i, (_, tail) in enumerate(heads) if tail]
    l1 = np.array([heads[i][0] + 1.0 for i in tailed])
    weights = _tail_weights(x_arr[tailed, None], tau_arr[tailed, None], l1[:, None])
    tails, bounds = np.empty((2, len(dims), len(tailed)))
    for j, (i, w) in enumerate(zip(tailed, weights)):
        factors = _tail_factors(x[i], tau[i], heads[i][0])
        for k, d in enumerate(dims):
            scale, bounds[k, j], _ = _tail_scale(factors, d)
            # The scalar kernel's vector-matrix product; a dot product with
            # the first column alone may round differently.
            tails[k, j] = (w @ _tail_coefficients(d))[0] * scale
    totals = sums[:, tailed] + tails
    missed = np.argwhere(bounds > REL_TOL * totals)
    if missed.size:
        k, j = missed[0]
        _check_tail(bounds[k, j], totals[k, j], x[tailed[j]], tau[tailed[j]], dims[k])
    sums[:, tailed] = totals
    return sums / PI_32


def _head_chunks(heads):
    """The slabs (state, l) of every head in order, in chunks of at most _CHUNK_ELEMENTS rows."""
    chunk, rows = [], 0
    for i, head in enumerate(heads):
        for l in _head_slabs(head):
            if chunk and rows + l.size > _CHUNK_ELEMENTS:
                yield chunk
                chunk, rows = [], 0
            chunk.append((i, l))
            rows += l.size
    if chunk:
        yield chunk


def _q_series_tail(x, tau, d, l_end, s2, totals):
    """Terms l > l_end of :func:`_excited_gauss_sums` for each of the floats x (rows), per column.

    The power table (2 s^2)^j e^{-s^2} of each grid chunk is built once;
    each state takes its own vector-matrix product with it
    (``_tail_series``), scale and bound.
    """
    series = [_tail_series(v, tau, d, l_end) for v in x]
    rows = _TAIL_TERMS + 1
    tails = np.empty((len(x), s2.size))
    bounds = _chunk_bounds(s2.size, rows)
    powers = np.empty(rows * -(-s2.size // len(bounds)))
    for lo, hi in bounds:
        p = powers[: rows * (hi - lo)].reshape(rows, hi - lo)
        p[0] = np.exp(-s2[lo:hi])
        # Capped so that 2 s^2 stays finite; row 0 is 0.0 long before the cap.
        p[1:] = 2.0 * np.minimum(s2[lo:hi], 1e300)
        np.cumprod(p, axis=0, out=p)  # row j: (2 s^2)^j e^{-s^2}
        for j, (v, _, _, _) in enumerate(series):
            np.dot(v, p, out=tails[j, lo:hi])
    envelope = np.exp(-s2 * series[0][3])  # the decay depends on tau alone
    for j, (_, scale, bound, _) in enumerate(series):
        tails[j] *= scale
        _check_tail(bound * envelope, totals[j] + tails[j], x[j], tau, d)
    return tails


def _tail_series(x, tau, d, l_end):
    """The s-independent parts (v, scale, bound, decay) of the tail past l_end.

    With q = e^{-tau l} each term is pi^{d/2} e^{-s^2} e^{-xl} [G(q) - 1], where
    G(q) = (1-q)^{-(3+d)/2} (1+q)^{-(3-d)/2} exp(2 s^2 q / (1+q)) = sum_m g_m q^m.
    Summing e^{-(x + m tau) l} over l > l_end is geometric, so the tail is
    sum_{m=1}^{M} g_m e^{-x l1} q1^m / (1 - e^{-(x + m tau)}) with l1 = l_end + 1
    and q1 = e^{-tau l1} < _TAIL_Q.  Each g_m is a polynomial in c = 2 s^2, so
    the tail is scale * sum_j v_j c^j e^{-s^2}.

    The powers m > M are bounded through the majorant (1-q)^{-3} exp(c q / (1-q))
    of G: Cauchy's estimate at radius rho gives
    |g_m| <= (1-rho)^{-3} e^{c rho/(1-rho)} rho^{-m}.  With
    rho = min(1/4, p1/(1 + 2 p1)), p1 = e^{-tau}, the remainder bound times
    e^{-s^2}, bound e^{-decay s^2}, decays in s like the l = 1 term,
    e^{-tanh(tau/2) s^2}, at every tau, and q1/rho <= 0.4.
    """
    v = _tail_weights(x, tau, l_end + 1) @ _tail_coefficients(d)
    return (v, *_tail_scale(_tail_factors(x, tau, l_end), d))


def _tail_weights(x, tau, l1):
    """e^{-tau l1 m} / (1 - e^{-(x + m tau)}) for m = 1 .. M.

    Floats give the vector of one state; columns of states a (states x M)
    matrix, row by row the vectors of single states.
    """
    m = np.arange(1.0, _TAIL_TERMS + 1.0)
    return np.exp(-tau * l1 * m) / -np.expm1(-(x + tau * m))


def _tail_factors(x: float, tau: float, l_end: int):
    """The d-independent factors of the tail's scale and bound, and its decay.

    e^{-x l1}, then (1-rho)^{-3}, (q1/rho)^{M+1} and
    (1 - q1/rho)(1 - e^{-(x + tau)}) of the Cauchy bound
    (:func:`_tail_series`), and decay.
    """
    l1 = l_end + 1
    p1 = math.exp(-tau)
    rho = min(0.25, p1 / (1.0 + 2.0 * p1))
    # q1 / rho, written so that it stays finite where p1 underflows to 0.
    ratio = max(4.0 * math.exp(-tau * l1), math.exp(-tau * l_end) * (1.0 + 2.0 * p1))
    return (
        math.exp(-x * l1),
        (1.0 - rho) ** -3,
        ratio ** (_TAIL_TERMS + 1),
        (1.0 - ratio) * -math.expm1(-(x + tau)),
        (1.0 - 3.0 * rho) / (1.0 - rho),
    )


def _tail_scale(factors, d: int):
    """The tail's scale pi^{d/2} e^{-x l1}, bound and decay over d axes, from ``_tail_factors``."""
    damping, majorant, power, denominator, decay = factors
    scale = math.pi ** (0.5 * d) * damping
    # sum_{m > M} (1-rho)^{-3} (q1/rho)^m / (1 - e^{-(x + tau)}), times scale
    return scale, scale * majorant * power / denominator, decay


def _check_tail(remainder, total, x, tau, d):
    """TruncationError where a tail's remainder bound passes REL_TOL * total."""
    if np.any(remainder > REL_TOL * total):
        raise TruncationError(
            f"q-series tail of the excited l-sum missed rel_tol {REL_TOL} "
            f"(x={x}, tau={tau}, d={d})"
        )


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
    """Column sums of weight_l (coef_l e^{-a_l s^2} - gauss) over the head rows, per row of weight.

    The grid is cut into even chunks that reuse one buffer, so memory stays
    flat in the grid size.  The buffer coef_l e^{-a_l s^2} - gauss of a
    chunk is built once for every row of weights, each of which scales it
    into a second buffer (the last in place).  Each grid point's terms are
    contiguous in the buffer, so numpy sums them pairwise (rounding error
    O(log L), not O(L)).
    """
    n, rows = s2.size, a.size
    bounds = _chunk_bounds(n, rows)
    buf = np.empty(rows * -(-n // len(bounds)))
    last = len(weight) - 1
    scaled = np.empty_like(buf) if last else buf
    sums = np.empty((last + 1, n))
    neg_a = -a
    for lo, hi in bounds:
        b = buf[: rows * (hi - lo)].reshape(hi - lo, rows)
        np.multiply(s2[lo:hi, None], neg_a, out=b)
        np.exp(b, out=b)
        np.multiply(b, coef, out=b)
        np.subtract(b, gauss[lo:hi, None], out=b)
        for j, w in enumerate(weight):
            out = b if j == last else scaled[: b.size].reshape(b.shape)
            np.multiply(b, w, out=out)
            out.sum(axis=1, out=sums[j, lo:hi])
    return sums


def column_density_ex(z: float, tau: float, dims_integrated: int, s):
    """Density integrated over 1, 2 or all 3 axes, ground state included."""
    return column_density_ex_x(x_from_z(z), tau, dims_integrated, s)


def column_density_ex_x(x: float, tau: float, dims_integrated: int, s):
    n0 = ground_population(x)
    excited = excited_column_x(x, tau, dims_integrated, s)  # checks d and s first
    return ground_column(n0, dims_integrated, np.asarray(s, dtype=float)) + excited


def level_populations_ex(
    z: float, tau: float, n_max: int
) -> list[tuple[int, int, float]]:
    """Per-level populations (n, degeneracy, N_n) for n = 0 .. n_max.

    N_n = g_n z e^{-tau n} / (1 - z e^{-tau n}) with g_n = (n+1)(n+2)/2;
    summed over all n this reproduces the l-sum atom number.
    """
    x = x_from_z(z)
    tau = check_tau(tau)
    n_max = check_levels(n_max)
    out = []
    for n in range(n_max + 1):
        g = (n + 1) * (n + 2) // 2
        out.append((n, g, g * occupation(x + tau * n)))
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
    x = x_from_z(z)
    tau = check_tau(tau)
    n_max = check_levels(n_max)
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
