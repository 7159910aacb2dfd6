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
to a factor sqrt(pi) per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bose
from .errors import DomainError
from .models import ModelKind, check_positive, ground_column, lambda3


@dataclass(frozen=True)
class ScVariant:
    """A semi-classical model tag plus its anisotropy scale factor."""

    kind: ModelKind
    aniso_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.kind == ModelKind.EX:
            raise DomainError("EX is not a semi-classical variant")
        if not 1.0 <= self.aniso_ratio < math.inf:
            raise DomainError(
                f"aniso ratio is an arithmetic/geometric mean ratio, must be finite "
                f"and >= 1, got {self.aniso_ratio!r}"
            )


def _as_variant(variant) -> ScVariant:
    if isinstance(variant, ScVariant):
        return variant
    return ScVariant(ModelKind(variant))


def population_sc_x(variant, x: float, tau: float) -> float:
    """Atom number at z = e^-x.  x = 0 is the saturated (z = 1) branch."""
    v = _as_variant(variant)
    tau = check_positive("tau", tau)
    if not x >= 0.0:
        raise DomainError(f"need x >= 0, got {x!r}")
    n = bose.bose_g_x(3.0, x) / tau**3
    if v.kind in (ModelKind.SC0, ModelKind.SC):
        n += 1.5 * v.aniso_ratio * bose.bose_g_x(2.0, x) / tau**2
    if v.kind == ModelKind.SC:
        if x == 0.0:
            raise DomainError("SC has a ground-state term; z = 1 is not admissible")
        n += 1.0 / math.expm1(x)
    return n


def population_sc(variant, z: float, tau: float) -> float:
    """Atom number N(z, tau) for a semi-classical variant, z in (0, 1]."""
    z = float(z)
    if not 0.0 < z <= 1.0:
        raise DomainError(f"fugacity must lie in (0, 1], got {z!r}")
    x = 0.0 if z == 1.0 else -math.log(z)
    return population_sc_x(variant, x, tau)


def saturated_population_sc(variant, tau: float) -> float:
    """Excited-state capacity at z = 1 (the saturation value)."""
    v = _as_variant(variant)
    tau = check_positive("tau", tau)
    n = bose.zeta_const(3.0) / tau**3
    if v.kind in (ModelKind.SC0, ModelKind.SC):
        n += 1.5 * v.aniso_ratio * bose.zeta_const(2.0) / tau**2
    return n


def _column_sc(v: ScVariant, x: float, tau: float, d: int, s):
    tau = check_positive("tau", tau)
    if not x >= 0.0:
        raise DomainError(f"need x >= 0, got {x!r}")
    if x == 0.0 and v.kind != ModelKind.SCINF:
        raise DomainError(
            f"{v.kind.value} density is not defined at z = 1 "
            "(g_{1/2} diverges; the ground-state term is the cure)"
        )
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not (s_arr >= 0.0).all():
        raise DomainError("radius must be nonnegative")
    lam3 = lambda3(tau)
    x_local = x + 0.5 * tau * s_arr**2
    rho = np.array([bose.bose_g_x(1.5 + 0.5 * d, xv) for xv in x_local]) / lam3
    if v.kind in (ModelKind.SC0, ModelKind.SC):
        g_low = np.array([bose.bose_g_x(0.5 + 0.5 * d, xv) for xv in x_local])
        rho = rho + 1.5 * tau * v.aniso_ratio * g_low / lam3
    rho = rho * (2.0 * math.pi / tau) ** (0.5 * d)
    if v.kind == ModelKind.SC:
        rho = rho + ground_column(1.0 / math.expm1(x), d, s_arr)
    return rho if np.ndim(s) else float(rho[0])


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
    if dims_integrated not in (0, 1, 2):
        raise DomainError(f"dims_integrated must be 0, 1 or 2, got {dims_integrated!r}")
    return _column_sc(_as_variant(variant), x, tau, dims_integrated, s)


def density_sc(variant, z: float, tau: float, r):
    """Density (sigma^-3) at radius r for a semi-classical variant.

    z = 1 is admitted only for SCINF, whose g_{3/2} profile stays finite;
    SC0 is refused there rather than regularized, and SC needs z < 1 for
    its ground-state term.
    """
    z = float(z)
    if not 0.0 < z <= 1.0:
        raise DomainError(f"fugacity must lie in (0, 1], got {z!r}")
    x = 0.0 if z == 1.0 else -math.log(z)
    return density_sc_x(variant, x, tau, r)


def condensate_fraction_sc(variant, atoms: float, temperature: float) -> float:
    """Ground-state fraction N0/N at temperature T (units hbar omega / k_B).

    SCINF and SC0 are exactly zero above their transition temperature and
    follow their saturation formulas below; SC solves its own constraint
    and is continuous through the transition.
    """
    v = _as_variant(variant)
    if check_positive("atom number", atoms) < 2:
        raise DomainError("need at least two atoms")
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


def high_n_asymptotics(atoms: float) -> HighNAsymptotics:
    """Analytic large-N threshold quantities.

    The first-order x* uses the thermodynamic tau_c; the refined value
    evaluates the logarithmic correction at the finite-size transition
    point of the SC family and is slightly smaller for tau* < 1.
    """
    if atoms < 10:
        raise DomainError("asymptotics need at least 10 atoms")
    z2 = bose.zeta_const(2.0)
    tau_c = (bose.zeta_const(3.0) / atoms) ** (1.0 / 3.0)
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
