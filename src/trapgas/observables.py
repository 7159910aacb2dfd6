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
left is the radial integral of the density moments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import exact, semiclassical
from .core import GasState
from .errors import DomainError, QuadratureError
from .exact import DEFAULT_CONTROL, LSumControl
from .models import PI_32, ModelKind, ground_column, lambda3

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


def total_density(state: GasState, r, control: LSumControl = DEFAULT_CONTROL):
    """Model density (sigma^-3) of a resolved state at radius r."""
    _require_density(state)
    if state.model == ModelKind.EX:
        return exact.density_ex_x(state.x, state.tau, r, control)
    variant = semiclassical.ScVariant(state.model, state.aniso_ratio)
    return semiclassical.density_sc_x(variant, state.x, state.tau, r)


def first_excited_level_density(state: GasState, grid, dims_integrated: int = 0):
    """First-excited component (weighted by the level population N1)."""
    grid = np.asarray(grid, dtype=float)
    if state.model != ModelKind.EX:
        return np.zeros_like(grid)
    occ1 = 1.0 / math.expm1(state.x + state.tau)
    n1 = 3.0 * occ1
    s2 = grid**2
    if dims_integrated == 0:
        shape = 2.0 * s2 * np.exp(-s2) / PI_32
    elif dims_integrated == 1:
        shape = (2.0 * s2 + 1.0) * np.exp(-s2) / math.pi
    elif dims_integrated == 2:
        shape = 2.0 * (s2 + 1.0) * np.exp(-s2) / math.sqrt(math.pi)
    else:
        raise DomainError(f"dims_integrated must be 0, 1 or 2, got {dims_integrated!r}")
    return n1 * shape


def _column_total(state: GasState, grid: np.ndarray, d: int, control: LSumControl):
    if d == 0:
        return np.asarray(total_density(state, grid, control))
    if state.model == ModelKind.EX:
        return np.asarray(exact.column_density_ex_x(state.x, state.tau, d, grid, control))
    variant = semiclassical.ScVariant(state.model, state.aniso_ratio)
    return np.asarray(
        semiclassical.column_density_sc_x(variant, state.x, state.tau, d, grid)
    )


def profile(
    state: GasState,
    grid,
    dims_integrated: int = 0,
    control: LSumControl = DEFAULT_CONTROL,
) -> DensityProfile:
    """Decomposed (column) density profile on an ascending nonneg grid."""
    _require_density(state)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("grid must be a one-dimensional array")
    if np.any(grid < 0.0) or np.any(np.diff(grid) <= 0.0):
        raise DomainError("grid must be nonnegative and strictly ascending")
    if dims_integrated not in (0, 1, 2):
        raise DomainError(f"dims_integrated must be 0, 1 or 2, got {dims_integrated!r}")
    total = _column_total(state, grid, dims_integrated, control)
    if state.model.has_ground_state:
        ground = ground_column(state.n0, dims_integrated, grid)
    else:
        ground = np.zeros_like(grid)
    first = first_excited_level_density(state, grid, dims_integrated)
    other = total - ground - first
    return DensityProfile(
        grid=grid,
        total=total,
        ground=ground,
        first_excited=first,
        other_excited=other,
        dims_integrated=dims_integrated,
        state=state,
    )


def dip_height(state: GasState, control: LSumControl = DEFAULT_CONTROL) -> float:
    """Height of the central dip of the excited-states density (EX only).

    max over r of the excited density minus its r = 0 value, located on an
    801-point grid over r in [0, 4] and refined locally.
    """
    if state.model != ModelKind.EX:
        raise DomainError("the central dip is defined for the exact model only")
    grid = np.linspace(0.0, 4.0, 801)
    excited = exact.excited_density_x(state.x, state.tau, grid, control)
    i = int(np.argmax(excited))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    fine = np.linspace(lo, hi, 101)
    peak = float(np.max(exact.excited_density_x(state.x, state.tau, fine, control)))
    center = float(excited[0])
    return max(peak - center, 0.0)


def peak_report(state: GasState, control: LSumControl = DEFAULT_CONTROL) -> PeakReport:
    """Peak densities, fractions and the degeneracy parameter rho(0) lambda^3."""
    _require_density(state)
    rho_peak = float(np.asarray(total_density(state, 0.0, control)))
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


def integrated_peak_fraction(
    state: GasState, dims_integrated: int, control: LSumControl = DEFAULT_CONTROL
) -> float:
    """Ground-state share of the on-axis integrated density."""
    if dims_integrated not in (1, 2):
        raise DomainError(f"dims_integrated must be 1 or 2, got {dims_integrated!r}")
    if not state.model.has_ground_state:
        raise DomainError("integrated peak fraction needs a model with a ground state")
    _require_density(state)
    zero = np.zeros(1)
    total = float(_column_total(state, zero, dims_integrated, control)[0])
    ground = float(ground_column(state.n0, dims_integrated, zero)[0])
    return ground / total


def density_moment(
    state: GasState, p: int, control: LSumControl = DEFAULT_CONTROL
) -> float:
    """Integral of rho(r)^p over space (4 pi r^2 weight), p = 2 or 3.

    Loss-rate style moment; adaptive radial quadrature out to eight thermal
    radii, where the integrand has decayed far below the tolerance.
    """
    if p not in (2, 3):
        raise DomainError(f"density moment supports p = 2 or 3, got {p!r}")
    _require_density(state)
    r_max = 8.0 / math.sqrt(state.tau)

    def integrand(r: float) -> float:
        rho = float(np.asarray(total_density(state, r, control)))
        return 4.0 * math.pi * r * r * rho**p

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(
                integrand, 0.0, r_max, epsabs=0.0, epsrel=_MOMENT_TOL * 0.01, limit=300
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"density moment did not converge: {exc}") from exc
    if value <= 0.0 or abserr > _MOMENT_TOL * value:
        raise QuadratureError(
            f"density moment uncertainty {abserr:.2e} exceeds "
            f"{_MOMENT_TOL:.1e} x {value:.6e}"
        )
    return value
