"""Trap and state records plus the nonlinear solvers shared by all models.

Units follow the trap-unit convention in :mod:`trapgas.models`.

One fugacity convention is used for every model: z = e^{beta (mu - eps0)},
so z is always in (0, 1) and the ground-state population is exactly
z/(1-z).  Solvers work in x = -ln z, which keeps N0 = 1/(e^x - 1) accurate
arbitrarily close to saturation where z itself would round to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exact, semiclassical
from .bose import zeta_const
from .errors import ConvergenceError, DomainError
from .models import ModelKind, check_positive, lambda3
from .roots import solve_monotone_root

__all__ = [
    "GasState",
    "ModelKind",
    "ReducedUnits",
    "TrapSpec",
    "population_total",
    "saturated_population",
    "solve_fugacity",
    "solve_monotone_root",
    "transition_temperature",
]

_FUGACITY_RESIDUAL = 1e-10


@dataclass(frozen=True)
class TrapSpec:
    """Trap geometry.  ``frequencies`` switches on anisotropy.

    All results are expressed in units of the (geometric-mean) frequency;
    the anisotropy enters through the ratio of arithmetic to geometric mean
    frequency.
    """

    frequencies: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.frequencies is not None:
            if len(self.frequencies) != 3:
                raise DomainError("anisotropy needs three positive frequencies")
            for f in self.frequencies:
                check_positive("trap frequency", f)

    @property
    def is_isotropic(self) -> bool:
        if self.frequencies is None:
            return True
        wx, wy, wz = self.frequencies
        return wx == wy == wz

    @property
    def omega_bar(self) -> float:
        """Geometric mean frequency (sets tau and sigma)."""
        if self.frequencies is None:
            return 1.0
        wx, wy, wz = self.frequencies
        if wx == wy == wz:
            return wx
        return (wx * wy * wz) ** (1.0 / 3.0)

    @property
    def omega_tilde(self) -> float:
        """Arithmetic mean frequency (scales the finite-size term)."""
        if self.frequencies is None:
            return 1.0
        return sum(self.frequencies) / 3.0

    @property
    def aniso_ratio(self) -> float:
        if self.is_isotropic:
            return 1.0
        # AM/GM >= 1; clamp float noise
        return max(1.0, self.omega_tilde / self.omega_bar)


@dataclass(frozen=True)
class ReducedUnits:
    """A temperature point in trap units, tau = hbar omega / k_B T."""

    tau: float

    def __post_init__(self) -> None:
        check_positive("tau", self.tau)

    @classmethod
    def from_temperature(cls, temperature: float) -> "ReducedUnits":
        return cls(1.0 / check_positive("temperature", temperature))

    @property
    def temperature(self) -> float:
        """T in units of hbar omega / k_B."""
        return 1.0 / self.tau

    @property
    def lambda3(self) -> float:
        """Thermal de Broglie volume lambda^3 in sigma^3 units."""
        return lambda3(self.tau)


@dataclass(frozen=True)
class GasState:
    """A resolved thermodynamic point of one model.

    ``x`` is -ln z (0 for the saturated branch of SCINF/SC0); ``n0`` is the
    ground-state population, assigned by the condensate formula when the
    state is flagged condensed.
    """

    model: ModelKind
    atoms: float
    tau: float
    x: float
    n0: float
    condensed: bool = False
    aniso_ratio: float = 1.0

    @property
    def z(self) -> float:
        return math.exp(-self.x)

    @property
    def temperature(self) -> float:
        return 1.0 / self.tau


def _as_tau(tau) -> float:
    if isinstance(tau, ReducedUnits):
        return tau.tau
    return check_positive("tau", tau)


def _resolve_ratio(model: ModelKind, trap: TrapSpec | None, aniso_ratio: float | None):
    if trap is not None and aniso_ratio is not None:
        raise DomainError("pass either a trap or an explicit aniso ratio, not both")
    if trap is not None:
        ratio = trap.aniso_ratio
    else:
        ratio = 1.0 if aniso_ratio is None else float(aniso_ratio)
    if ratio != 1.0 and model == ModelKind.EX:
        raise DomainError("the exact model supports only isotropic traps")
    return ratio


def population_total(
    model: ModelKind, x: float, tau, aniso_ratio: float = 1.0
) -> float:
    """Atom number of ``model`` at x = -ln z and temperature tau."""
    model = ModelKind(model)
    tau = _as_tau(tau)
    ratio = _resolve_ratio(model, None, aniso_ratio)
    if model == ModelKind.EX:
        return exact.population_ex_x(x, tau)
    variant = semiclassical.ScVariant(model, ratio)
    return semiclassical.population_sc_x(variant, x, tau)


def saturated_population(model: ModelKind, tau, aniso_ratio: float = 1.0) -> float:
    """Excited-state capacity at z = 1 (defines the transition point)."""
    model = ModelKind(model)
    tau = _as_tau(tau)
    ratio = _resolve_ratio(model, None, aniso_ratio)
    if model == ModelKind.EX:
        return exact.excited_population_x(0.0, tau)
    variant = semiclassical.ScVariant(model, ratio)
    return semiclassical.saturated_population_sc(variant, tau)


def solve_fugacity(
    model: ModelKind,
    atoms: float,
    tau,
    trap: TrapSpec | None = None,
    aniso_ratio: float | None = None,
) -> GasState:
    """State with population_total == atoms at temperature tau.

    Models with a ground state (EX, SC) always admit a solution z in (0,1).
    SCINF and SC0 saturate: below their transition temperature the returned
    state is pinned at z = 1 and flagged condensed, with n0 holding the
    atoms the excited cloud cannot absorb.
    """
    model = ModelKind(model)
    atoms = check_positive("atom number", atoms)
    tau = _as_tau(tau)
    ratio = _resolve_ratio(model, trap, aniso_ratio)

    if not model.has_ground_state:
        capacity = saturated_population(model, tau, ratio)
        if atoms >= capacity:
            return GasState(
                model=model,
                atoms=atoms,
                tau=tau,
                x=0.0,
                n0=atoms - capacity,
                condensed=True,
                aniso_ratio=ratio,
            )

    def residual(x: float) -> float:
        return population_total(model, x, tau, ratio) - atoms

    x_root = solve_monotone_root(residual, 1e-12, 60.0)
    pop = population_total(model, x_root, tau, ratio)
    if abs(pop - atoms) > _FUGACITY_RESIDUAL * atoms:
        raise ConvergenceError(
            f"fugacity solve left a residual of {abs(pop - atoms) / atoms:.3e} "
            f"(model {model.value}, N={atoms}, tau={tau})"
        )
    n0 = 1.0 / math.expm1(x_root) if model.has_ground_state else 0.0
    return GasState(
        model=model,
        atoms=atoms,
        tau=tau,
        x=x_root,
        n0=n0,
        condensed=False,
        aniso_ratio=ratio,
    )


def transition_temperature(
    model: ModelKind,
    atoms: float,
    trap: TrapSpec | None = None,
    aniso_ratio: float | None = None,
) -> ReducedUnits:
    """tau* at which the saturated excited population equals ``atoms``.

    SC and SC0 share one saturation equation and return bit-identical
    values; SCINF has the closed form tau* = (zeta(3)/N)^{1/3}.
    """
    model = ModelKind(model)
    if check_positive("atom number", atoms) < 2.0:
        raise DomainError("transition temperature needs at least two atoms")
    ratio = _resolve_ratio(model, trap, aniso_ratio)
    tau_c = (zeta_const(3.0) / atoms) ** (1.0 / 3.0)
    if model == ModelKind.SCINF:
        semiclassical.ScVariant(model, ratio)  # validates the ratio it does not use
        return ReducedUnits(tau_c)

    def residual(tau: float) -> float:
        return saturated_population(model, tau, ratio) - atoms

    # All transition points sit within a few percent of tau_c.
    tau_star = solve_monotone_root(residual, tau_c / 4.0, tau_c * 4.0)
    return ReducedUnits(tau_star)
