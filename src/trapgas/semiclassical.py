"""Semi-classical approximations for the trapped gas.

Three nested levels of approximation share one interface:

* ``SCINF`` - thermodynamic limit: N = g3(z)/tau^3, no finite-size term,
  no ground state.
* ``SC0``  - adds the first-order finite-size term (3 tau / 2) g2(z) to the
  atom number and (3 tau / 2) g_{1/2} to the density; still no ground state.
* ``SC``   - SC0 plus the explicit ground-state contribution z/(1-z) and
  its Gaussian density.

In an anisotropic trap the finite-size terms scale by the frequency ratio
(arithmetic mean over geometric mean), which is what ``aniso_ratio``
carries; tau is always defined through the geometric mean.

Column densities are closed forms: integrating g_nu(z e^{-tau r^2/2})
along one axis gives sqrt(2 pi / tau) g_{nu+1/2}, so each integrated axis
raises both Bose orders by 1/2, and the ground-state Gaussian integrates
to a factor sqrt(pi) per axis.  A profile takes each Bose order at every
grid point x + tau s^2 / 2 in one array call (``bose._g_array``, the
scalar path's rules point by point), a single point in Python floats
(``bose.bose_g_x``), through one body (``_column_sc_at``); the peak
reports of a list of states take the float path at s = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bose
from .errors import DomainError
from .models import ModelKind, check_atoms, check_coordinates, check_dims, check_positive
from .models import check_tau, check_x, ground_column, lambda3, occupation, x_from_z


@dataclass(frozen=True)
class ScVariant:
    """A semi-classical model tag plus its anisotropy scale factor."""

    kind: ModelKind
    aniso_ratio: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if self.kind == ModelKind.EX:
            raise DomainError("EX is not a semi-classical variant")
        if not 1.0 <= self.aniso_ratio < math.inf:
            raise DomainError(
                f"aniso ratio is an arithmetic/geometric mean ratio, must be finite "
                f"and >= 1, got {self.aniso_ratio!r}"
            )


def _as_variant(variant) -> ScVariant:
    return variant if isinstance(variant, ScVariant) else ScVariant(variant)


def population_sc_x(variant, x: float, tau: float) -> float:
    """Atom number at z = e^-x.  x = 0 is the saturated (z = 1) branch."""
    v = _as_variant(variant)
    if check_x(x) == 0.0:
        if v.kind == ModelKind.SC:
            raise DomainError("SC has a ground-state term; z = 1 is not admissible")
        return saturated_population_sc(v, tau)
    return _population_slope_x(v, x, check_tau(tau))[0]


def population_slope_sc_x(variant, x: float, tau: float) -> tuple[float, float]:
    """Atom number at z = e^-x, x > 0, and its x-derivative (dg_nu/dx = -g_{nu-1})."""
    v = _as_variant(variant)
    tau = check_tau(tau)
    return _population_slope_x(v, check_x(x, positive=True), tau)


def _population_slope_x(v: ScVariant, x: float, tau: float) -> tuple[float, float]:
    """:func:`population_slope_sc_x` at a checked x > 0 and tau."""
    g1, g2, g3 = bose.bose_g123_x(x)
    tau3 = tau**3
    n, slope = g3 / tau3, -g2 / tau3
    if v.kind in (ModelKind.SC0, ModelKind.SC):
        tau2 = tau**2
        n += 1.5 * v.aniso_ratio * g2 / tau2
        slope -= 1.5 * v.aniso_ratio * g1 / tau2
    if v.kind == ModelKind.SC:
        n0 = occupation(x)
        n += n0
        slope -= n0 * (n0 + 1.0)
    return n, slope


def population_sc(variant, z: float, tau: float) -> float:
    """Atom number N(z, tau) for a semi-classical variant, z in (0, 1]."""
    return population_sc_x(variant, x_from_z(z, saturated=True), tau)


def saturated_population_sc(variant, tau: float) -> float:
    """Excited-state capacity at z = 1 (the saturation value)."""
    return saturated_slope_sc(variant, tau)[0]


def saturated_slope_sc(variant, tau: float) -> tuple[float, float]:
    """:func:`saturated_population_sc` and its derivative in tau."""
    v = _as_variant(variant)
    tau = check_tau(tau)
    n = bose.zeta_const(3.0) / tau**3
    slope = -3.0 * n / tau
    if v.kind in (ModelKind.SC0, ModelKind.SC):
        finite_size = 1.5 * v.aniso_ratio * bose.zeta_const(2.0) / tau**2
        n += finite_size
        slope -= 2.0 * finite_size / tau
    return n, slope


def _column_sc(v: ScVariant, x: float, tau: float, d: int, s):
    s_arr = check_coordinates(s)
    if s_arr.size == 1:  # a single point is cheaper on the float path
        rho = float(_column_sc_at(v, x, tau, d, float(s_arr.flat[0]), bose.bose_g_x))
        return np.full(s_arr.shape, rho) if np.ndim(s) else rho
    with np.errstate(over="ignore"):  # x + tau s^2 / 2 may pass the float range
        return _column_sc_at(v, x, tau, d, s_arr, bose._g_array)


def _column_sc_at(v: ScVariant, x: float, tau: float, d: int, s, g):
    """:func:`_column_sc` at checked coordinates s, with g_nu(x) from ``g(nu, x)``.

    The one body of both paths: a Python float s with ``bose.bose_g_x``
    (the float path; SC's ground column makes its value a numpy float), or
    an array with ``bose._g_array``.  x + tau s^2 / 2 may overflow to inf,
    where g_nu = 0.
    """
    tau = check_tau(tau)
    if check_x(x) == 0.0 and v.kind != ModelKind.SCINF:
        raise DomainError(
            f"{v.kind.value} density is not defined at z = 1 "
            "(g_{1/2} diverges; the ground-state term is the cure)"
        )
    lam3 = lambda3(tau)
    x_local = x + 0.5 * tau * (s * s)
    rho = g(1.5 + 0.5 * d, x_local) / lam3
    if v.kind in (ModelKind.SC0, ModelKind.SC):
        rho = rho + 1.5 * tau * v.aniso_ratio * g(0.5 + 0.5 * d, x_local) / lam3
    rho = rho * (2.0 * math.pi / tau) ** (0.5 * d)
    if v.kind == ModelKind.SC:
        rho = rho + ground_column(occupation(x), d, s)
    return rho


def density_sc_x(variant, x: float, tau: float, r):
    """Density (sigma^-3) at radius r (scalar or array) and z = e^-x."""
    return _column_sc(_as_variant(variant), x, tau, 0, r)


def column_density_sc_x(variant, x: float, tau: float, dims_integrated: int, s):
    """Density integrated over 0, 1 or 2 axes at z = e^-x, in closed form.

    (2 pi / tau)^{d/2} [g_{3/2+d/2} + (3 tau / 2) ratio g_{1/2+d/2}](x + tau s^2 / 2)
    / lambda^3, with the finite-size term dropped for SCINF and the
    ground-state column n0 pi^{d/2} e^{-s^2} / pi^{3/2} added for SC.  The
    coordinate s is the radius (d = 0), the transverse radius (d = 1) or
    the remaining axis coordinate (d = 2); units are sigma^(d-3).  d = 0
    is :func:`density_sc_x`.
    """
    check_dims(dims_integrated, (0, 1, 2))
    return _column_sc(_as_variant(variant), x, tau, dims_integrated, s)


def density_sc(variant, z: float, tau: float, r):
    """Density (sigma^-3) at radius r for a semi-classical variant.

    z = 1 is admitted only for SCINF, whose g_{3/2} profile stays finite;
    SC0 is refused there rather than regularized, and SC needs z < 1 for
    its ground-state term.
    """
    return density_sc_x(variant, x_from_z(z, saturated=True), tau, r)


def condensate_fraction_sc(variant, atoms: float, temperature: float) -> float:
    """Ground-state fraction N0/N at temperature T (units hbar omega / k_B).

    SCINF and SC0 are exactly zero above their transition temperature and
    follow their saturation formulas below; SC solves its own constraint
    and is continuous through the transition.
    """
    v = _as_variant(variant)
    atoms = check_atoms(atoms)
    tau = 1.0 / check_positive("temperature", temperature)
    if v.kind in (ModelKind.SCINF, ModelKind.SC0):
        capacity = saturated_population_sc(v, tau)
        return max(0.0, 1.0 - capacity / atoms)
    from . import core  # solver lives above this module

    state = core.solve_fugacity(v.kind, atoms, tau, aniso_ratio=v.aniso_ratio)
    return state.n0 / atoms


@dataclass(frozen=True)
class HighNAsymptotics:
    """Large-N expansion record for the threshold state."""

    tau_c: float
    x_star_first_order: float
    x_star_second_order: float
    degeneracy_limit: float


#: N-independent limit of the threshold degeneracy parameter rho(0) lambda^3:
#: zeta(3/2) from the saturated excited cloud plus 2 sqrt(2 zeta(2)) from the
#: ground-state peak.
DEGENERACY_LIMIT = bose.zeta_const(1.5) + 2.0 * math.sqrt(2.0 * bose.zeta_const(2.0))


def thermodynamic_tau(atoms: float) -> float:
    """SCINF's transition point tau_c = (zeta(3)/N)^{1/3}, for a checked atom number."""
    return (bose.zeta_const(3.0) / atoms) ** (1.0 / 3.0)


def high_n_asymptotics(atoms: float) -> HighNAsymptotics:
    """Analytic large-N threshold quantities.

    The first-order x* uses the thermodynamic tau_c; the refined value
    evaluates the logarithmic correction at the finite-size transition
    point of the SC family and is slightly smaller for tau* < 1.
    """
    atoms = check_atoms(atoms, minimum=10.0)
    z2 = bose.zeta_const(2.0)
    tau_c = thermodynamic_tau(atoms)
    x1 = tau_c**1.5 / math.sqrt(z2)
    from . import core

    tau_sc = core.transition_temperature(ModelKind.SC, atoms).tau
    x2 = (
        tau_sc**1.5
        / math.sqrt(z2)
        * (1.0 + 9.0 / (8.0 * z2) * tau_sc * math.log(tau_sc))
    )
    return HighNAsymptotics(
        tau_c=tau_c,
        x_star_first_order=x1,
        x_star_second_order=x2,
        degeneracy_limit=DEGENERACY_LIMIT,
    )
