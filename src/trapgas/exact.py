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
split off analytically; the residual brackets decay at rate x + tau and a
geometric tail bound makes truncation safe at any admissible (z, tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError
from .models import PI_32, check_positive, ground_column

_BLOCK = 4096
#: Element budget of one l-block x grid-chunk buffer (2 MB of float64).
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class LSumControl:
    """Truncation policy for the l-sums."""

    rel_tol: float = 1e-14
    max_terms: int = 10_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1e-6:
            raise DomainError(f"rel_tol must lie in (0, 1e-6), got {self.rel_tol!r}")
        if self.max_terms < 1_000:
            raise DomainError(f"max_terms must be >= 1000, got {self.max_terms!r}")


DEFAULT_CONTROL = LSumControl()


def _x_from_z(z: float) -> float:
    z = float(z)
    if not 0.0 < z < 1.0:
        raise DomainError(f"fugacity must lie in (0, 1), got {z!r}")
    return -math.log(z)


def ground_population(x: float) -> float:
    """N0 = z/(1-z) expressed through x = -ln z (exact near saturation)."""
    if x <= 0.0:
        raise DomainError(f"ground population needs x > 0, got {x!r}")
    return 1.0 / math.expm1(x)


def excited_population_x(
    x: float, tau: float, control: LSumControl = DEFAULT_CONTROL
) -> float:
    """sum_l e^{-lx} [(1 - e^{-tau l})^{-3} - 1]; finite for any x >= 0.

    At x = 0 this is the saturated excited-state population that defines
    the exact transition temperature.
    """
    tau = check_positive("tau", tau)
    if x < 0.0:
        raise DomainError(f"need x >= 0, got {x!r}")
    total = 0.0
    start = 1
    while start <= control.max_terms:
        l = np.arange(start, min(start + _BLOCK, control.max_terms + 1), dtype=float)
        bracket = 1.0 / (-np.expm1(-tau * l)) ** 3 - 1.0
        terms = np.exp(-x * l) * bracket
        total += float(terms.sum())
        l_last = l[-1]
        q_next = math.exp(-tau * (l_last + 1.0))
        if q_next < 0.5:
            # bracket_j <= 3 q_j / (1 - q_j)^3 for j > l_last
            decay = x + tau
            tail = (
                3.0
                * q_next
                * math.exp(-x * (l_last + 1.0))
                / ((1.0 - q_next) ** 3 * (-math.expm1(-decay)))
            )
            if tail <= control.rel_tol * total and terms[-1] <= control.rel_tol * total:
                return total
        start += _BLOCK
    raise TruncationError(
        f"excited population sum exceeded {control.max_terms} terms (x={x}, tau={tau})"
    )


def population_ex(
    z: float, tau: float, control: LSumControl = DEFAULT_CONTROL
) -> float:
    """Total atom number N(z, tau), ground state included."""
    x = _x_from_z(z)
    return ground_population(x) + excited_population_x(x, tau, control)


def population_ex_x(
    x: float, tau: float, control: LSumControl = DEFAULT_CONTROL
) -> float:
    """x-space variant of :func:`population_ex` used by the solvers."""
    if x <= 0.0:
        raise DomainError(f"total population needs x > 0, got {x!r}")
    return ground_population(x) + excited_population_x(x, tau, control)


def excited_density_x(
    x: float,
    tau: float,
    r,
    control: LSumControl = DEFAULT_CONTROL,
):
    """Excited-states density (sigma^-3) at radius r (scalar or array).

    This is the full density with the ground-state Gaussian removed
    term by term, so it stays finite and accurate through saturation.
    """
    return _excited_gauss_sum(x, tau, 0, r, control)


def density_ex(z: float, tau: float, r, control: LSumControl = DEFAULT_CONTROL):
    """Total density rho_ex(r) in sigma^-3 units, ground state included."""
    x = _x_from_z(z)
    return density_ex_x(x, tau, r, control)


def density_ex_x(x: float, tau: float, r, control: LSumControl = DEFAULT_CONTROL):
    if x <= 0.0:
        raise DomainError(f"total density needs x > 0, got {x!r}")
    ground = ground_column(ground_population(x), 0, np.asarray(r, dtype=float))
    return ground + excited_density_x(x, tau, r, control)


def excited_column_x(
    x: float,
    tau: float,
    dims_integrated: int,
    s,
    control: LSumControl = DEFAULT_CONTROL,
):
    """Excited part of the density integrated over ``dims_integrated`` axes.

    Each integrated axis turns a term's Gaussian of inverse width a_l into
    a factor sqrt(pi / a_l); the remaining coordinate s is the transverse
    radius (d = 1) or the single remaining axis coordinate (d = 2).  Units
    are sigma^(d-3); d = 3 integrates everything and returns the excited
    atom number.
    """
    if dims_integrated not in (1, 2, 3):
        raise DomainError(f"dims_integrated must be 1, 2 or 3, got {dims_integrated!r}")
    return _excited_gauss_sum(x, tau, dims_integrated, s, control)


def _excited_gauss_sum(x: float, tau: float, d: int, s, control: LSumControl):
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
    while start <= control.max_terms:
        l = np.arange(start, min(start + _BLOCK, control.max_terms + 1), dtype=float)
        a = np.tanh(0.5 * tau * l)
        k32 = 1.0 / (-np.expm1(-2.0 * tau * l)) ** 1.5
        col = (math.pi / a) ** (0.5 * d)
        block, last = _gauss_block(np.exp(-x * l), k32 * col, a, s2, gauss)
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
            floor = control.rel_tol * np.maximum(total, 1e-300)
            if np.all(tail <= floor) and np.all(last <= floor):
                return total / PI_32 if np.ndim(s) else float(total[0]) / PI_32
        start += _BLOCK
    raise TruncationError(
        f"excited l-sum exceeded {control.max_terms} terms (x={x}, tau={tau}, d={d})"
    )


def _gauss_block(weight, coef, a, s2, gauss):
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


def column_density_ex(
    z: float,
    tau: float,
    dims_integrated: int,
    s,
    control: LSumControl = DEFAULT_CONTROL,
):
    """Density integrated over 1, 2 or all 3 axes, ground state included."""
    x = _x_from_z(z)
    return column_density_ex_x(x, tau, dims_integrated, s, control)


def column_density_ex_x(
    x: float,
    tau: float,
    dims_integrated: int,
    s,
    control: LSumControl = DEFAULT_CONTROL,
):
    if x <= 0.0:
        raise DomainError(f"column density needs x > 0, got {x!r}")
    if dims_integrated not in (1, 2, 3):
        raise DomainError(f"dims_integrated must be 1, 2 or 3, got {dims_integrated!r}")
    d = dims_integrated
    ground = ground_column(ground_population(x), d, np.asarray(s, dtype=float))
    return ground + excited_column_x(x, tau, d, s, control)


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
    if r < 0.0:
        raise DomainError("radius must be nonnegative")
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
