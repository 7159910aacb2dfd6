"""Trap and state records plus the nonlinear solvers shared by all models.

Units follow the trap-unit convention in :mod:`trapgas.models`.

One fugacity convention is used for every model: z = e^{beta (mu - eps0)},
so z is always in (0, 1) and the ground-state population is exactly
z/(1-z).  Solvers work in x = -ln z, which keeps N0 = 1/(e^x - 1) accurate
arbitrarily close to saturation where z itself would round to 1.

Each solve is written once, as a generator coroutine (``_fugacity``,
``_transition``) around the one Newton coroutine ``roots._newton`` in ln x
(ln tau for T*) on ln N, sent each population and its slope from one
kernel pass.  The one driver, :func:`trapgas.roots.solve_lockstep`, runs
them on one kernel per solve kind (``_fugacities``, ``_transitions``): the
public solves hand it one problem, ``_solve_fugacity_many`` and
``_transition_many`` a list, which it runs in blocks of at most
``roots._BLOCK`` problems.  Per step the kernel calls the scalar body
while one problem is active, and for several the batched EX body or the
SC body per problem, with the scalar floats: a batched solve evaluates
each single solve's points and returns its floats.  The fugacity solve
starts from the near-saturation quadratic N = cap - zeta(2) x / tau^3 + 1/x.
No population kernel costs more at larger N (the exact one sums 39 levels
and an Euler-Maclaurin rest), so both solvers work at any N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import exact, semiclassical
from .bose import _ZETA
from .errors import ConvergenceError, DomainError
from .models import ModelKind, as_number, check_atoms, check_choice, check_instance, check_positive
from .models import check_tau, lambda3, occupation
from .roots import _newton, solve_lockstep

__all__ = [
    "GasState",
    "ModelKind",
    "ReducedUnits",
    "TrapSpec",
    "population_total",
    "saturated_population",
    "solve_fugacity",
    "transition_temperature",
]

_FUGACITY_RESIDUAL = 1e-10
#: Largest atom number of a T* solve.  From about N = 7e230 on, the tau-slope
#: of the capacity, -3 N / tau* = -3 N^{4/3} / zeta(3)^{1/3}, overflows.
_MAX_TRANSITION_ATOMS = 1e200


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
            try:
                shape = np.shape(self.frequencies)
            except ValueError:  # ragged, as ((1, 2), 3, 4)
                shape = None
            if shape != (3,):
                raise DomainError("anisotropy needs three positive frequencies")
            frequencies = tuple(check_positive("trap frequency", f) for f in self.frequencies)
            object.__setattr__(self, "frequencies", frequencies)

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
        object.__setattr__(self, "tau", check_tau(self.tau))

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
    state is flagged condensed.  The fields are stored converted (a
    ModelKind, floats and a bool), so a field that does not convert raises
    DomainError here rather than in an observable.
    """

    model: ModelKind
    atoms: float
    tau: float
    x: float
    n0: float
    condensed: bool = False
    aniso_ratio: float = 1.0

    def __post_init__(self) -> None:
        # The solvers' states arrive converted: the type tests keep them cheap.
        if type(self.model) is not ModelKind:
            object.__setattr__(self, "model", ModelKind(self.model))
        for name in ("atoms", "tau", "x", "n0", "aniso_ratio"):
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, as_number(name, value))
        if type(self.condensed) is not bool:
            flag = check_choice("condensed flag", self.condensed, (False, True))
            object.__setattr__(self, "condensed", bool(flag))

    @property
    def z(self) -> float:
        return math.exp(-self.x)

    @property
    def temperature(self) -> float:
        return 1.0 / self.tau


def _as_tau(tau) -> float:
    if isinstance(tau, ReducedUnits):
        return tau.tau
    return check_tau(tau)


def _resolve_ratio(model: ModelKind, trap: TrapSpec | None, aniso_ratio: float | None):
    if trap is not None and aniso_ratio is not None:
        raise DomainError("pass either a trap or an explicit aniso ratio, not both")
    if trap is not None:
        ratio = check_instance("trap", trap, TrapSpec).aniso_ratio
    else:
        ratio = 1.0 if aniso_ratio is None else as_number("aniso ratio", aniso_ratio)
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
        return exact.saturated_slope_ex(tau)[0]
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
    return _fugacities(model, [atoms], [tau], ratio)[0]


# The scalar solves' float arithmetic overflows to inf, or gives nan, with
# no warning; the batched solves' numpy arithmetic must do the same.
_AS_FLOATS = np.errstate(over="ignore", invalid="ignore")


@_AS_FLOATS
def _solve_fugacity_many(model: ModelKind, atoms, taus) -> list[GasState]:
    """:func:`solve_fugacity` at each pair of ``atoms`` and ``taus``, isotropic trap.

    Each is ``solve_fugacity``'s state, float for float, with its typed errors.
    """
    model = ModelKind(model)
    atoms = [check_positive("atom number", a) for a in atoms]
    taus = [_as_tau(t) for t in taus]
    return _fugacities(model, atoms, taus, 1.0)


def _fugacities(model: ModelKind, atoms: list, taus: list, ratio: float) -> list[GasState]:
    """The fugacity solves of checked pairs of ``atoms`` and ``taus``, in lockstep."""
    # EX's start uses SC's capacity, whose finite-size term is EX's.
    variant = semiclassical.ScVariant(ModelKind.SC if model == ModelKind.EX else model, ratio)
    if model == ModelKind.EX:
        population = exact.population_slope_ex_x
    else:
        population = functools.partial(semiclassical._population_slope_x, variant)

    def kernel(active: list[int], xs: list[float]):
        if len(active) == 1:
            return [population(xs[0], taus[active[0]])]
        if model != ModelKind.EX:
            return [population(x, taus[i]) for i, x in zip(active, xs)]
        pop, slope = exact._population_slopes(np.array(xs), np.array([taus[i] for i in active]))
        return zip(pop.tolist(), slope.tolist())

    return solve_lockstep((_fugacity(model, a, t, variant) for a, t in zip(atoms, taus)), kernel)


def _fugacity(model: ModelKind, atoms: float, tau: float, variant: semiclassical.ScVariant):
    """The fugacity solve of one state, a coroutine for ``roots.solve_lockstep``.

    It yields each x of ``roots._newton`` (with the ground-state slope rule
    for EX and SC), is sent the population and its x-slope there, and
    returns the :class:`GasState`.  A saturating model (SC0, SCINF) with
    atoms >= the capacity of ``variant`` returns at once, pinned at z = 1.
    A root whose population misses ``atoms`` by more than the residual
    bound raises ConvergenceError.
    """
    capacity, ratio = semiclassical.saturated_population_sc(variant, tau), variant.aniso_ratio
    if not model.has_ground_state and atoms >= capacity:
        n0 = atoms - capacity
        return GasState(model, atoms, tau, 0.0, n0, condensed=True, aniso_ratio=ratio)
    start = _fugacity_start(model, atoms, tau, capacity)
    x, pop = yield from _newton(start, atoms, model.has_ground_state)
    if abs(pop - atoms) > _FUGACITY_RESIDUAL * atoms:
        raise ConvergenceError(
            f"fugacity solve left a residual of {abs(pop - atoms) / atoms:.3e} "
            f"(model {model.value}, N={atoms}, tau={tau})"
        )
    n0 = occupation(x) if model.has_ground_state else 0.0
    return GasState(model, atoms, tau, x, n0, aniso_ratio=ratio)


def _transition(model: ModelKind, atoms: float):
    """The T* solve at ``atoms``, a coroutine for ``roots.solve_lockstep``.

    SCINF returns its closed form tau_c = (zeta(3)/N)^{1/3} at once.  The
    others yield each tau of ``roots._newton`` from tau_c (within a few
    percent of every T*), are sent the capacity and its tau-slope there,
    and return tau*, one ulp hotter while the capacity does not exceed N.
    """
    tau_c = semiclassical.thermodynamic_tau(atoms)
    if model == ModelKind.SCINF:
        return check_tau(tau_c)
    tau, capacity = yield from _newton(tau_c, atoms)
    while capacity <= atoms:  # one ulp hotter, to the unsaturated side
        tau = math.nextafter(tau, 0.0)
        capacity, _ = yield tau
    return tau


def transition_temperature(
    model: ModelKind,
    atoms: float,
    trap: TrapSpec | None = None,
    aniso_ratio: float | None = None,
) -> ReducedUnits:
    """tau* at which the saturated excited population equals ``atoms``.

    SC and SC0 share one saturation equation and return bit-identical
    values; SCINF has the closed form tau* = (zeta(3)/N)^{1/3}.  EX, SC and
    SC0 return tau* on the unsaturated side, where the capacity exceeds
    ``atoms`` (one ulp hotter where the root rounds the other way), so the
    gas at tau* is not yet condensed.  N runs from 2 to 1e200.
    """
    model = ModelKind(model)
    atoms = check_atoms(atoms, maximum=_MAX_TRANSITION_ATOMS)
    ratio = _resolve_ratio(model, trap, aniso_ratio)
    return ReducedUnits(_transitions(model, [atoms], ratio)[0])


@_AS_FLOATS
def _transition_many(model: ModelKind, atoms) -> np.ndarray:
    """:func:`transition_temperature`'s tau* for each of ``atoms``, isotropic trap.

    Each is the float ``transition_temperature`` returns, with the same
    typed errors.
    """
    model = ModelKind(model)
    atoms = [check_atoms(a, maximum=_MAX_TRANSITION_ATOMS) for a in atoms]
    return np.array(_transitions(model, atoms, 1.0))


def _transitions(model: ModelKind, atoms: list, ratio: float) -> list[float]:
    """The T* solves at checked ``atoms``, in lockstep."""
    if model == ModelKind.EX:
        capacity = exact.saturated_slope_ex
    else:  # built for SCINF too, since it validates the ratio SCINF does not use
        variant = semiclassical.ScVariant(model, ratio)
        capacity = functools.partial(semiclassical.saturated_slope_sc, variant)

    def kernel(active: list[int], taus: list[float]):
        if len(active) == 1 or model != ModelKind.EX:
            return list(map(capacity, taus))
        value, slope = exact._saturated_slopes(np.array([check_tau(t) for t in taus]))
        return zip(value.tolist(), slope.tolist())

    return solve_lockstep((_transition(model, a) for a in atoms), kernel)


def _fugacity_start(model: ModelKind, atoms: float, tau: float, capacity: float) -> float:
    """Near-saturation start: the positive root of N = capacity - a x + ground / x.

    a = zeta(2)/tau^3 is the slope of g_3/tau^3 at saturation, capacity the
    semi-classical one, and ground 1 for the models with a ground state
    (N0 = 1/x) or 0 for those without; each branch of the quadratic
    formula avoids cancellation on its side.
    """
    ground = 1.0 if model.has_ground_state else 0.0
    a = _ZETA[2.0] / tau**3
    b = atoms - capacity
    root = math.hypot(b, 2.0 * math.sqrt(a * ground))  # sqrt(b^2 + 4 a ground)
    # ground / ((b + root) / 2), halved term by term so that it cannot overflow
    return ground / (0.5 * b + 0.5 * root) if b >= 0.0 else (root - b) / (2.0 * a)
