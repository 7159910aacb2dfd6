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
_CHUNK_ELEMENTS terms, so memory stays flat in L), then, near saturation, a
closed-form tail.  Each bracket is at most the l = 1 bracket,
so far from saturation L = 1 + ceil((ln(1/REL_TOL) - ln(e^x - 1)) / x)
leaves out at most REL_TOL of the sum.  Where that L would pass
l_tail = ceil(ln(1/_TAIL_Q) / tau) (large clouds near threshold, where it
grows like 32/x), the head stops at l_tail instead.  Past l_tail each term
is a power series in q = e^{-tau l} <= _TAIL_Q whose powers sum
geometrically over l, so the rest of the sum is a closed form of
_TAIL_TERMS terms with a bound on the powers left out (``_tail_sums``),
a polynomial in s^2.  A head longer than MAX_TERMS raises TruncationError.

One kernel evaluates this l-sum, ``_excited_gauss_sums``: any list of
states, each with its own x and tau, for several d, on one grid.  The head
rows of all states lie end to end, and states of one tau and head share
their buffer of Gaussians, each applying its own e^{-x l}; every state's
tail comes from one power table per grid chunk, for all d at once.  Every
value is a function of its own state and point alone: the float of the
single-state call, which is its batch of one, and of any grid holding the
point.  Far out on the grid many head Gaussians e^{-a_l s^2} underflow,
where numpy's exp is slow.  The head takes plain exp on the grid's
leading points where no term can underflow, s^2 max(a_l) <
-_EXP_UNDERFLOW (every s <= 27.3, at any state); past them it takes exp
only where -a_l s^2 > _EXP_UNDERFLOW and writes +0.0, exp's own float,
elsewhere.  A call's fixed cost is its numpy operations on the head rows
and the tail's 60 powers, with little bookkeeping around them.
``_columns`` adds the ground state, for a profile family (figure 6) and
the peak reports at s = 0 (figures 3 and 7).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bose
from .errors import DomainError, TruncationError
from .models import PI_32, check_choice, check_coordinates, check_count, check_finite, check_tau
from .models import check_x, ground_column, occupation, pointwise, x_from_z

#: Element budget of one head x grid-chunk buffer: 1 MB of float64, so that
#: the buffer and its scaled copy fit in a 2 MB L2 cache.  Against 2 MB,
#: it takes 8% off an in-process ``perfbench`` threshold pass (seed 3,
#: 2-core Xeon VM, numpy 2.4.6: median 136 -> 124 ms with the exp split).
#: It also caps the head rows evaluated at a time, so memory stays flat in
#: the head length; one slab holds every head N <= 1e12 needs near T*.
_CHUNK_ELEMENTS = 1 << 17
#: The l-sums hand over to their q-series tail where q = e^{-tau l} first
#: falls to _TAIL_Q; the series keeps _TAIL_TERMS powers of q.
_TAIL_Q = 0.1
_TAIL_TERMS = 60
_TAIL_POWERS = np.arange(1.0, _TAIL_TERMS + 1.0)  # m = 1 .. M
#: Just below exp's underflow edge: exp(t) is +0.0 for every t < -745.1332.
_EXP_UNDERFLOW = -745.2
#: Truncation of the density's l-sum: relative tail bound and the cap on terms.
REL_TOL = 1e-14
MAX_TERMS = 10_000_000
#: Most levels :func:`level_populations_ex` lists (its loop and list grow with them).
_MAX_LEVELS = 1_000_000
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


def excited_population_x(x: float, tau: float) -> float:
    """sum_{n>=1} g_n / (e^{x + tau n} - 1), g_n = (n+1)(n+2)/2; finite for any x >= 0.

    At x = 0 this is the saturated excited-state population that defines
    the exact transition temperature.  It is a level sum with a closed-form
    Euler-Maclaurin rest (:func:`_excited_population`), at the same cost for
    every N.
    """
    return _excited_population(check_x(x), tau, "x")[0]


def population_slope_ex_x(x: float, tau: float) -> tuple[float, float]:
    """:func:`population_ex_x` and its derivative in x, from the same pass."""
    x = check_x(x, positive=True)
    n0 = occupation(x)
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
    x >= 0 is checked by the caller.
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
    The slope in ``wrt`` takes each row's dot product from ``np.vecdot``.
    """
    neg_y = -tau * _LEVELS - x  # exactly -(x + tau n)
    phi = np.exp(neg_y) / -np.expm1(neg_y)  # 1/(e^y - 1), without overflow
    terms = _DEGENERACY * phi
    if wrt == "x":
        return terms, -np.vecdot(terms, 1.0 + phi)
    return terms, -np.vecdot(terms, _LEVELS * (1.0 + phi))


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
    else:
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
    return population_slope_ex_x(x, tau)[0]


def excited_density_x(x: float, tau: float, r):
    """Excited-states density (sigma^-3) at radius r (scalar or array).

    This is the full density with the ground-state Gaussian removed
    term by term, so it stays finite and accurate through saturation.
    """
    return _excited_gauss_sum(check_x(x), tau, 0, check_coordinates(r))


def density_ex(z: float, tau: float, r):
    """Total density rho_ex(r) in sigma^-3 units, ground state included."""
    return density_ex_x(x_from_z(z), tau, r)


def density_ex_x(x: float, tau: float, r):
    n0 = ground_population(x)
    r = check_coordinates(r)  # before the ground term squares it
    return ground_column(n0, 0, r) + excited_density_x(x, tau, r)


def excited_column_x(x: float, tau: float, dims_integrated: int, s):
    """Excited part of the density integrated over ``dims_integrated`` axes.

    Each integrated axis turns a term's Gaussian of inverse width a_l into
    a factor sqrt(pi / a_l); the remaining coordinate s is the transverse
    radius (d = 1) or the single remaining axis coordinate (d = 2).  Units
    are sigma^(d-3); d = 3 integrates everything, so its only coordinate is
    s = 0, and returns the excited atom number.
    """
    d = check_choice("dims_integrated", dims_integrated, (1, 2, 3))
    s = check_coordinates(s)
    if d == 3 and s.any():
        raise DomainError("d = 3 integrates every axis; its only coordinate is s = 0")
    return _excited_gauss_sum(check_x(x), tau, d, s)


def _excited_gauss_sum(x: float, tau: float, d: int, s):
    """sum_l e^{-lx} [k_l (pi/a_l)^{d/2} e^{-a_l s^2} - pi^{d/2} e^{-s^2}] / pi^{3/2}.

    The excited column over d axes (d = 0 is the density), with
    k_l = (1 - e^{-2 tau l})^{-3/2} and a_l = tanh(tau l / 2), at x >= 0
    checked by the caller: :func:`_excited_gauss_sums` for one state.  An
    array s gives an array of its shape, a scalar s a float; the public
    callers hand down their checked array.
    """
    total = _excited_gauss_sums([x], [check_tau(tau)], (d,), s)[0, 0]
    return total if np.ndim(s) else float(total[0])


def _excited_gauss_sums(x, tau, dims, s) -> np.ndarray:
    """:func:`_excited_gauss_sum` for each d in ``dims`` and state (x_i, tau_i) on one grid.

    x >= 0 and checked tau are sequences of floats; the sums fill a
    (dims x states x grid) array, the grid shaped as s (at least 1-d).
    Every grid point of a state sums the same head (``_head_length``), in
    slabs (``_head_sums``), then the closed-form q-series tail where the
    head stops at ``l_tail`` (``_tail_sums``).  States of one tau and head
    share their head rows, and the slabs of all states lie end to end in
    chunks of at most _CHUNK_ELEMENTS rows; the grid is cut so that a buffer
    holds at most _CHUNK_ELEMENTS, so memory stays flat in the head length
    and the grid size.  Each value depends on its own state and coordinate
    only: it is the float of a one-state, one-point call.
    """
    s = np.atleast_1d(check_coordinates(s))
    flat = s.reshape(-1)
    neg_s2 = -(flat * flat)
    e = np.exp(neg_s2)
    groups, ids, tailed = {}, [], []  # groups: the states of each (tau, head)
    for i, (v, t) in enumerate(zip(x, tau)):
        head, tail = _head_length(v, t)
        groups.setdefault((t, head), []).append(i)
        if tail:
            ids.append(i)
            tailed.append((v, t, head))
    totals = np.zeros((len(dims), len(x), flat.size))
    for chunk in _head_chunks(groups):
        _head_sums(chunk, x, dims, neg_s2, e, totals)
    if tailed:
        # Every state: a slice spares two fancy copies.
        _tail_sums(tailed, slice(None) if len(ids) == len(x) else ids, dims, neg_s2, e, totals)
    totals /= PI_32
    return totals.reshape(totals.shape[:2] + s.shape)


def _head_chunks(groups) -> list:
    """The head rows l = 1 .. head of every group in order, in chunks of whole slabs.

    ``groups`` maps (tau, head) to its states.  A slab has at most
    _CHUNK_ELEMENTS rows, and so has a chunk.  Each chunk lists its slabs as
    (tau, states, first l - 1, first row, end row in the chunk).
    """
    chunks, chunk, end = [], [], 0
    for (t, head), states in groups.items():
        for start in range(0, head, _CHUNK_ELEMENTS):
            size = min(_CHUNK_ELEMENTS, head - start)
            if end + size > _CHUNK_ELEMENTS:
                chunks.append(chunk)
                chunk, end = [], 0
            chunk.append((t, states, start, end, end + size))
            end += size
    return chunks + [chunk] if chunk else chunks


def _head_sums(chunk, x, dims, neg_s2, e, totals):
    """Write (or, past a head's first slab, add) the sums of one chunk's slabs into ``totals``.

    ``chunk`` lists its slabs as ``_head_chunks`` does; neg_s2 is -s^2 on
    the grid and e = e^{-s^2}.  For each grid chunk and d the buffer
    k_l (pi/a_l)^{d/2} e^{-a_l s^2} - pi^{d/2} e^{-s^2} of the chunk's rows
    is built once in place; pass m scales it by e^{-x l} of each slab's
    m-th state (into a second buffer, the last pass in place), and each
    slab is summed on its own.  Each grid point's terms are contiguous, so
    numpy sums them pairwise (rounding error O(log L), not O(L)).

    The grid points before ``cut``, the leading run with
    s^2 max(a_l) < -_EXP_UNDERFLOW, cannot underflow, and take plain exp
    (found once per call; a one-point grid compares Python floats).  Past
    them exp is taken only where -a_l s^2 > _EXP_UNDERFLOW, and the other
    terms are set to +0.0: exp gives +0.0 there, and a masked exp gives
    the unmasked bits where it computes, so the underflowing terms (up to
    about a third of a long head near T*) skip exp's slow path, and the
    safe ones the mask's cost.  Both parts are contiguous slices of whole
    grid points, on which exp gives the bits it gives on the whole buffer,
    so every sum keeps its floats whatever the grid's order.
    """
    if len(chunk) == 1:  # one slab: its tau and -x broadcast over its rows
        t, states, start, _, size = chunk[0]
        passes = len(states)
        l = np.arange(start + 1.0, start + size + 1.0)
        half, neg_2tau = 0.5 * t, -2.0 * t
        neg_x = [[-x[i]] for i in states]  # a column
    else:  # each slab's tau / 2, -2 tau and -x (0.0 past its states) over its rows
        passes = max(len(states) for _, states, *_ in chunk)
        l = np.concatenate([np.arange(start + 1.0, start + r1 - r0 + 1.0)
                            for _, _, start, r0, r1 in chunk])
        columns = [[0.5 * t, -2.0 * t, *(-x[i] for i in states), *[0.0] * (passes - len(states))]
                   for t, states, *_ in chunk]
        rows = np.array(columns).T.repeat([r1 - r0 for *_, r0, r1 in chunk], axis=1)
        half, neg_2tau, neg_x = rows[0], rows[1], rows[2:]
    a = np.tanh(half * l)
    k32 = 1.0 / (-np.expm1(neg_2tau * l)) ** 1.5
    weights = np.exp(np.multiply(neg_x, l))
    n, size = neg_s2.size, l.size
    # tanh ascends: a one-slab chunk's largest a is its last.
    edge = _EXP_UNDERFLOW / (a.item(-1) if len(chunk) == 1 else a.max())
    if n == 1:
        cut = int(neg_s2.item(0) > edge)
    else:
        safe = neg_s2 > edge
        cut = n if safe.all() else int(safe.argmin())
    step = _chunk_width(n, size)
    buf = np.empty(size * min(step, n))
    scaled = np.empty_like(buf) if passes > 1 else buf
    for k, d in enumerate(dims):
        coef = k32 * (math.pi / a) ** (0.5 * d) if d else k32
        gauss = math.pi ** (0.5 * d) * e if d else e
        for lo in range(0, n, step):
            grid = slice(lo, lo + step)
            b = buf[: size * min(step, n - lo)].reshape(-1, size)
            np.multiply(neg_s2[grid, None], a, out=b)
            # Cut between whole grid points: both parts stay contiguous.
            ahead = max(cut - lo, 0)
            prefix = b[:ahead]
            np.exp(prefix, out=prefix)
            if ahead < len(b):
                rest = b[ahead:]
                np.exp(rest, out=rest, where=rest > _EXP_UNDERFLOW)
                np.maximum(rest, 0.0, out=rest)  # the skipped terms: +0.0
            np.multiply(b, coef, out=b)
            np.subtract(b, gauss[grid, None], out=b)
            for m in range(passes):
                out = b if m == passes - 1 else scaled[: b.size].reshape(b.shape)
                np.multiply(b, weights[m], out=out)
                for _, states, start, r0, r1 in chunk:
                    if m < len(states):
                        # A head's slabs come in order.  Its first writes, the
                        # float of 0.0 + sum (numpy's sums start from +0.0).
                        total = totals[k, states[m], grid]
                        if start:
                            total += np.add.reduce(out[:, r0:r1], 1)
                        else:
                            np.add.reduce(out[:, r0:r1], 1, out=total)


def _tail_sums(states, part, dims, neg_s2, e, totals):
    """Add the terms l > l_end of :func:`_excited_gauss_sums` for states (x, tau, l_end).

    ``totals[:, part]`` holds the (dims x states x grid) sums of the terms
    up to l_end, on a grid given as -s^2 and e = e^{-s^2}; the tails are
    added to them in place.

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
    e^{-tanh(tau/2) s^2}, at every tau, and q1/rho <= 0.4.  TruncationError
    where it passes REL_TOL of the completed sum.

    One state's parameters are floats, several states' columns.  The
    weights of all states form one matrix (``_tail_weights``), and each
    state takes its own vector-matrix products, with the stack
    ``_tail_coefficients(dims)`` and with the power table
    (2 s^2)^j e^{-s^2}, which is built once per grid chunk for every state
    and d.  A matrix product would round differently.
    """
    if len(states) == 1:
        x, tau, l_end = states[0]
        damping, reach, decay = _tail_factors(x, tau, l_end)
    else:
        x, tau, l_end = np.array(states).T[..., None]
        damping, reach, decay = np.array([_tail_factors(*state) for state in states]).T[..., None]
    coefficients, heights = _tail_coefficients(tuple(dims))
    # Stacks of 1 x M rows: matmul takes each state's vector-matrix products.
    series = _tail_weights(x, tau, l_end).reshape(len(states), 1, -1) @ coefficients
    scale = heights * damping  # pi^{d/2} e^{-x l1}, (dims x states x 1)
    # 2 s^2, capped so that it stays finite; e^{-s^2} is 0.0 long before the cap.
    c = -2.0 * np.maximum(neg_s2, -1e300)
    step = _chunk_width(c.size, _TAIL_TERMS + 1)
    for lo in range(0, c.size, step):
        grid = slice(lo, lo + step)
        p = np.empty((_TAIL_TERMS + 1, c[grid].size))
        p[0] = e[grid]
        p[1:] = c[grid]
        p.cumprod(axis=0, out=p)  # row j: (2 s^2)^j e^{-s^2}
        totals[:, part, grid] += (series @ p)[:, :, 0] * scale
    missed = scale * reach * np.exp(neg_s2 * decay) > REL_TOL * totals[:, part]
    if np.count_nonzero(missed):  # cheaper than .any() on small grids
        k, j, _ = np.argwhere(missed)[0]
        x, tau, _ = states[j]
        raise TruncationError(
            f"q-series tail of the excited l-sum missed rel_tol {REL_TOL} "
            f"(x={x}, tau={tau}, d={dims[k]})"
        )


def _chunk_width(n: int, rows: int) -> int:
    """The width of even cuts of n grid points into chunks of rows x width <= _CHUNK_ELEMENTS."""
    cuts = -(-n // max(_CHUNK_ELEMENTS // rows, 1))
    return -(-n // cuts) if cuts else 1


def _tail_weights(x, tau, l_end):
    """e^{-tau l1 m} / (1 - e^{-(x + m tau)}) for m = 1 .. M, with l1 = l_end + 1.

    Floats give the vector of one state; columns of states a (states x M)
    matrix, row by row the vectors of single states.
    """
    m = _TAIL_POWERS
    # -x - tau m is exactly -(x + tau m)
    return np.exp(-tau * (l_end + 1) * m) / -np.expm1(-x - tau * m)


def _tail_factors(x: float, tau: float, l_end: int):
    """e^{-x l1}, and the reach and decay of the Cauchy bound (:func:`_tail_sums`).

    The reach sum_{m > M} (1-rho)^{-3} (q1/rho)^m / (1 - e^{-(x + tau)})
    bounds the powers left out, in units of the tail's scale.
    """
    l1 = l_end + 1
    p1 = math.exp(-tau)
    rho = min(0.25, p1 / (1.0 + 2.0 * p1))
    # q1 / rho, written so that it stays finite where p1 underflows to 0.
    ratio = max(4.0 * math.exp(-tau * l1), math.exp(-tau * l_end) * (1.0 + 2.0 * p1))
    reach = (1.0 - rho) ** -3 * ratio ** (_TAIL_TERMS + 1)
    return (
        math.exp(-x * l1),
        reach / ((1.0 - ratio) * -math.expm1(-(x + tau))),
        (1.0 - 3.0 * rho) / (1.0 - rho),
    )


@functools.cache
def _tail_coefficients(dims: tuple[int, ...]):
    """The q-series coefficients of each d in ``dims``, and pi^{d/2}.

    A (dims x 1 x M x (M+1)) stack of :func:`_tail_polynomials` and a
    (dims x 1 x 1) column of pi^{d/2}.
    """
    coefficients = np.stack([_tail_polynomials(d) for d in dims])[:, None]
    heights = np.array([math.pi ** (0.5 * d) for d in dims])[:, None, None]
    coefficients.flags.writeable = heights.flags.writeable = False
    return coefficients, heights


def _tail_polynomials(d: int) -> np.ndarray:
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
    return g[3:]


def _columns(x, tau, dims, s) -> np.ndarray:
    """:func:`column_density_ex_x` for each d in ``dims`` and state (x_i, tau_i) on one grid.

    A (dims x states x grid) array; d = 0 is :func:`density_ex_x`.  x and
    tau are sequences of floats, each state checked as the scalar call
    checks it, and every value is the scalar call's float.
    """
    n0, taus = [], []
    for v, t in zip(x, tau):
        n0.append(ground_population(v))
        taus.append(check_tau(t))
    s = np.atleast_1d(check_coordinates(s))
    excited = _excited_gauss_sums(x, taus, dims, s)
    n0 = np.array(n0).reshape(-1, *(1,) * s.ndim)
    return np.array([ground_column(n0, d, s) for d in dims]) + excited


def column_density_ex(z: float, tau: float, dims_integrated: int, s):
    """Density integrated over 1, 2 or all 3 axes, ground state included."""
    return column_density_ex_x(x_from_z(z), tau, dims_integrated, s)


def column_density_ex_x(x: float, tau: float, dims_integrated: int, s):
    n0 = ground_population(x)
    s = check_coordinates(s)
    excited = excited_column_x(x, tau, dims_integrated, s)  # checks d first
    return ground_column(n0, dims_integrated, s) + excited


def level_populations_ex(
    z: float, tau: float, n_max: int
) -> list[tuple[int, int, float]]:
    """Per-level populations (n, degeneracy, N_n) for n = 0 .. n_max.

    N_n = g_n z e^{-tau n} / (1 - z e^{-tau n}) with g_n = (n+1)(n+2)/2;
    summed over all n this reproduces the l-sum atom number.  n_max above
    10^6 is refused with DomainError.
    """
    x = x_from_z(z)
    tau = check_tau(tau)
    n_max = check_count("n_max", n_max, 0, _MAX_LEVELS)
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
    n_max = check_count("n_max", n_max, 0, 200)
    r = check_finite("radius", r, 0.0)
    if tau < 0.2 or x < -math.log(0.95):  # z > 0.95
        raise DomainError("oracle validated only for tau >= 0.2, z <= 0.95")
    psi_r = _hermite_density_1d(r, n_max)
    psi_0 = _hermite_density_1d(0.0, n_max)
    pair = np.convolve(psi_0, psi_0)[: n_max + 1]
    triple = np.convolve(psi_r, pair)[: n_max + 1]
    n = np.arange(n_max + 1, dtype=float)
    with np.errstate(over="ignore"):  # deep levels: expm1 -> inf, occ -> 0
        occ = 1.0 / np.expm1(x + tau * n)
    return float(np.dot(occ, triple))
