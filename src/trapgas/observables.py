"""Physics observables built on the resolved gas states.

Density profiles come decomposed into ground state, first excited level and
the remaining excited cloud.  The first-excited component uses the summed
p-level shape

    sum_i |psi_1i(r)|^2 = 2 (r/sigma)^2 e^{-(r/sigma)^2} / (sqrt(pi) sigma)^3

weighted by the full level population N1 = 3 z e^{-tau} / (1 - z e^{-tau});
its column versions follow by integrating the three Cartesian states
analytically.  Note that with this weighting the component integrates to
3 N1 over space (the shape above already sums the three degenerate states),
which is the convention behind the quoted peak-share numbers.

Column densities come in closed form for every model (exact l-sums for EX,
shifted Bose orders for the semi-classical family); the only quadrature
left is the radial integral of the density moments, on fixed
Gauss-Legendre panels (:mod:`trapgas.integrate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact, integrate, semiclassical
from .bose import bose_g_x
from .core import GasState
from .errors import DomainError, QuadratureError
from .models import ModelKind, check_coordinates, check_dims, ground_column
from .models import ground_column_from, lambda3, occupation

#: Relative accuracy demanded of the density moments.
_MOMENT_TOL = 1e-6

__all__ = [
    "DensityProfile",
    "PeakReport",
    "density_moment",
    "dip_height",
    "first_excited_level_density",
    "integrated_peak_fraction",
    "peak_report",
    "profile",
    "total_density",
]


@dataclass(frozen=True)
class DensityProfile:
    """Sampled (column) density with its per-component breakdown."""

    grid: np.ndarray
    total: np.ndarray
    ground: np.ndarray
    first_excited: np.ndarray
    other_excited: np.ndarray
    dims_integrated: int
    state: GasState


@dataclass(frozen=True)
class PeakReport:
    """Peak densities and fractions of one state."""

    rho0_peak: float
    rho_total_peak: float
    degeneracy_parameter: float
    n0_fraction: float
    peak_fraction: float


def _require_density(state: GasState) -> None:
    # The threshold boundary itself (n0 = 0, z = 1) still has a well-defined
    # saturated-cloud density; only a populated condensate is refused.
    if (
        state.condensed
        and not state.model.has_ground_state
        and state.n0 > 1e-8 * state.atoms
    ):
        raise DomainError(
            f"model {state.model.value} defines no condensate density; "
            "its profile is unavailable below the transition temperature"
        )


def total_density(state: GasState, r):
    """Model density (sigma^-3) of a resolved state at radius r."""
    _require_density(state)
    return _column_total(state, r, 0)


def _column_total(state: GasState, s, d: int):
    """The model's column over d = 0, 1 or 2 axes (d = 0: the density) at s."""
    if state.model == ModelKind.EX:
        if d == 0:
            return exact.density_ex_x(state.x, state.tau, s)
        return exact.column_density_ex_x(state.x, state.tau, d, s)
    variant = semiclassical.ScVariant(state.model, state.aniso_ratio)
    if d == 0:
        return semiclassical.density_sc_x(variant, state.x, state.tau, s)
    return semiclassical.column_density_sc_x(variant, state.x, state.tau, d, s)


def first_excited_level_density(state: GasState, grid, dims_integrated: int = 0):
    """First-excited component (weighted by the level population N1).

    Integrating 2 s^2 e^{-s^2} over one axis adds 1 to 2 s^2 and a factor
    sqrt(pi), so the shape over d axes is (2 s^2 + d) times the unit
    ground-state column.
    """
    d = check_dims(dims_integrated, (0, 1, 2))
    check_coordinates(grid)
    s2 = np.asarray(grid, dtype=float) ** 2
    return _first_excited(state, d, s2, np.exp(-s2))


def _first_excited(state: GasState, d: int, s2, e):
    """:func:`first_excited_level_density` on a grid given as s^2 and e = e^{-s^2}."""
    if state.model != ModelKind.EX:
        return np.zeros_like(s2)
    n1 = 3.0 * occupation(state.x + state.tau)
    return n1 * (2.0 * s2 + d) * ground_column_from(1.0, d, e)


def profile(state: GasState, grid, dims_integrated: int = 0) -> DensityProfile:
    """Decomposed (column) density profile on an ascending nonneg grid.

    One Gaussian e^{-s^2} serves the ground-state and first-excited terms;
    an EX total is one call of the exact kernel.
    """
    _require_density(state)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("grid must be a one-dimensional array")
    # The column kernels check the coordinates; comparisons are safe before that.
    if (grid[1:] <= grid[:-1]).any():
        raise DomainError("grid must be strictly ascending")
    d = check_dims(dims_integrated, (0, 1, 2))
    total = _column_total(state, grid, d)
    s2 = grid**2
    e = np.exp(-s2)
    if state.model.has_ground_state:
        ground = ground_column_from(state.n0, d, e)
    else:
        ground = np.zeros_like(grid)
    first = _first_excited(state, d, s2, e)
    other = total - ground - first
    return DensityProfile(
        grid=grid,
        total=total,
        ground=ground,
        first_excited=first,
        other_excited=other,
        dims_integrated=d,
        state=state,
    )


def dip_height(state: GasState) -> float:
    """Height of the central dip of the excited-states density (EX only).

    max over r of the excited density minus its r = 0 value, located on an
    801-point grid over r in [0, 4] and refined locally.
    """
    if state.model != ModelKind.EX:
        raise DomainError("the central dip is defined for the exact model only")
    grid = np.linspace(0.0, 4.0, 801)
    excited = exact.excited_density_x(state.x, state.tau, grid)
    i = int(np.argmax(excited))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    fine = np.linspace(lo, hi, 101)
    peak = float(np.max(exact.excited_density_x(state.x, state.tau, fine)))
    center = float(excited[0])
    return max(peak - center, 0.0)


def peak_report(state: GasState) -> PeakReport:
    """Peak densities, fractions and the degeneracy parameter rho(0) lambda^3."""
    return _peak_report(state, float(np.asarray(total_density(state, 0.0))))


def _peak_report(state: GasState, rho_peak: float) -> PeakReport:
    """:func:`peak_report` of a state whose total density at r = 0 is rho_peak."""
    rho0 = 0.0
    if state.model.has_ground_state:
        rho0 = float(ground_column(state.n0, 0, 0.0))
    return PeakReport(
        rho0_peak=rho0,
        rho_total_peak=rho_peak,
        degeneracy_parameter=rho_peak * lambda3(state.tau),
        n0_fraction=state.n0 / state.atoms,
        peak_fraction=rho0 / rho_peak,
    )


def integrated_peak_fraction(state: GasState, dims_integrated: int) -> float:
    """Ground-state share of the on-axis integrated density."""
    return _at_origin([state], (check_dims(dims_integrated, (1, 2)),))[0][0]


def _at_origin(states, dims=(0,)) -> list[list]:
    """Peak reports (d = 0) or integrated peak fractions (d = 1, 2), per d in ``dims``.

    The floats and typed errors of :func:`peak_report`, one list for each
    d: every state and d is checked first, then the columns at the origin
    of the EX states, if any, come from one batched exact sum for every d
    (``exact._columns`` at s = 0), and those of the other models from the
    semi-classical column on its float path (``semiclassical._column_sc_at``).
    :func:`integrated_peak_fraction` is a batch of one.
    """
    for state in states:
        for d in dims:
            if d != 0:
                check_dims(d, (1, 2))
                if not state.model.has_ground_state:
                    raise DomainError("integrated peak fraction needs a model with a ground state")
            _require_density(state)
    ex = [s for s in states if s.model == ModelKind.EX]
    if ex:
        columns = exact._columns([s.x for s in ex], [s.tau for s in ex], dims, 0.0)
        columns = iter(columns[:, :, 0].T.tolist())
    out = [[] for _ in dims]
    for state in states:
        if state.model == ModelKind.EX:
            totals = next(columns)
        else:
            variant = semiclassical.ScVariant(state.model, state.aniso_ratio)
            totals = [
                float(semiclassical._column_sc_at(variant, state.x, state.tau, d, 0.0, bose_g_x))
                for d in dims
            ]
        for k, d in enumerate(dims):
            if d == 0:
                value = _peak_report(state, totals[k])
            else:
                value = float(ground_column(state.n0, d, 0.0)) / totals[k]
            out[k].append(value)
    return out


def density_moment(state: GasState, p: int) -> float:
    """Integral of rho(r)^p over space (4 pi r^2 weight), p = 2 or 3.

    Loss-rate style moment; Gauss-Legendre quadrature on the radial panels
    [0, 6] (six widths of the unit ground-state Gaussian) and, where eight
    thermal radii reach further, [6, 8 / sqrt(tau)]; the integrand has
    decayed far below the tolerance there.  One array call of
    :func:`total_density` takes the nodes of every panel and both rules.
    The finite-size term of SC0 and SC, g_{1/2}(x + tau r^2 / 2), has a
    core of width sqrt(2x / tau) that shrinks to 0 at saturation, so for
    those models [0, 6] is cut further at 6 / 16^j, down to the first such
    edge within 4 core widths.
    """
    if p not in (2, 3):
        raise DomainError(f"density moment supports p = 2 or 3, got {p!r}")
    r_max = 8.0 / math.sqrt(state.tau)
    graded = []
    if state.model in (ModelKind.SC0, ModelKind.SC) and state.x > 0.0:
        four_widths = 4.0 * math.sqrt(2.0 * state.x / state.tau)
        panels = max(math.ceil(math.log(6.0 / four_widths, 16.0)), 0)
        graded = [6.0 / 16.0**j for j in range(panels, 0, -1)]
    edges = [0.0, *graded, 6.0, r_max] if r_max > 6.0 else [0.0, *graded, 6.0]

    def integrand(r: np.ndarray) -> np.ndarray:
        return 4.0 * math.pi * r * r * np.asarray(total_density(state, r)) ** p

    value, abserr = integrate.quad(integrand, edges)
    if not value > 0.0 or abserr > _MOMENT_TOL * value:
        raise QuadratureError(
            f"density moment uncertainty {abserr:.2e} exceeds "
            f"{_MOMENT_TOL:.1e} x {value:.6e}"
        )
    return value
