"""Model tags, the trap-unit conventions every model shares, and the argument rules.

Units convention: the (geometric-mean) trap frequency omega fixes
everything.  Lengths are in sigma = sqrt(hbar / m omega), temperatures in
hbar omega/k_B (so tau = hbar omega / k_B T is the inverse reduced
temperature), densities in sigma^-3.  The thermal wavelength obeys
lambda^3 = (2 pi tau)^{3/2} sigma^3 exactly, and the ground state is the
unit-width Gaussian e^{-r^2} / pi^{3/2}.
"""

from __future__ import annotations

import math
import sys
from enum import Enum, EnumMeta

import numpy as np

from .errors import DomainError

PI_32 = math.pi ** 1.5

#: Largest admissible grid or sweep: profile points, sweep steps, recipe points.
MAX_POINTS = 100_000


def check_choice(name: str, value, choices):
    """``value`` as given; DomainError unless it is one of ``choices``."""
    try:
        hash(value)  # refuses an array or a list before any comparison
        if value in choices:
            return value
    except TypeError:
        pass
    raise DomainError(f"unknown {name} {value!r}; the choices are {list(choices)}")


def check_instance(name: str, value, kind: type):
    """``value`` as given; DomainError unless it is a ``kind`` (a state or a trap record)."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


class _TagLookup(EnumMeta):
    """Looks a model tag up through :func:`check_choice`, so that an array is refused."""

    def __call__(cls, value):
        if type(value) is cls:
            return value
        return super().__call__(check_choice("model tag", value, cls._value2member_map_))


class ModelKind(str, Enum, metaclass=_TagLookup):
    """Which equation set evaluates populations and densities."""

    EX = "ex"        # exact level sums
    SC = "sc"        # finite-size term + explicit ground state
    SC0 = "sc0"      # finite-size term only
    SCINF = "scinf"  # thermodynamic limit

    @property
    def has_ground_state(self) -> bool:
        return self in (ModelKind.EX, ModelKind.SC)


def as_number(name: str, value, array: bool = False):
    """``value`` as a float, or with ``array`` a float array of its own shape.

    DomainError where the conversion fails: float() also refuses arrays of
    one or more dimensions, so a scalar argument cannot be an array.
    """
    try:
        return np.asarray(value, dtype=float) if array else float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None


def check_positive(name: str, value) -> float:
    """``value`` as a float; DomainError unless it is a positive, finite number."""
    value = as_number(name, value)
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_finite(name: str, value, minimum: float) -> float:
    """``value`` as a float; DomainError unless it is finite and at least ``minimum``."""
    value = as_number(name, value)
    if not minimum <= value < math.inf:
        raise DomainError(f"{name} must be finite and >= {minimum:g}, got {value!r}")
    return value


def check_tau(tau) -> float:
    """``tau`` as a float; DomainError unless positive, with a finite, normal cube.

    Below that limit every multiple of tau the kernels form stays finite
    (the exact kernels reach about 120 tau).
    """
    tau = check_positive("tau", tau)
    try:
        cube = tau**3
    except OverflowError:  # a float power that overflows raises
        raise DomainError(f"tau^3 overflows at tau = {tau!r}") from None
    if cube < sys.float_info.min:
        raise DomainError(f"tau^3 underflows at tau = {tau!r}")
    return tau


def check_atoms(atoms, minimum: float = 2.0, maximum: float = math.inf) -> float:
    """``atoms`` as a float; DomainError unless it lies in [``minimum``, ``maximum``]."""
    atoms = check_positive("atom number", atoms)
    if atoms < minimum:
        raise DomainError(f"need at least {minimum:g} atoms, got {atoms!r}")
    if atoms > maximum:
        raise DomainError(f"need at most {maximum:g} atoms, got {atoms!r}")
    return atoms


def check_atom_grid(values) -> np.ndarray:
    """``values`` as a float array; DomainError unless it lists 1 to MAX_POINTS atom numbers."""
    atoms = as_number("every atom number", values, array=True)
    if atoms.ndim != 1 or not 1 <= atoms.size <= MAX_POINTS:
        raise DomainError(f"need a list of 1 to {MAX_POINTS} atom numbers; shape {atoms.shape}")
    for a in atoms.tolist():
        check_atoms(a)
    return atoms


def check_x(x, positive: bool = False) -> float:
    """``x`` = -ln z as a float; DomainError unless x >= 0, or x > 0 if ``positive``.

    x = 0 is saturation (z = 1), where a ground-state population diverges.
    """
    x = as_number("x", x)
    if not (x > 0.0 if positive else x >= 0.0):
        raise DomainError(f"need x {'>' if positive else '>='} 0, got {x!r}")
    return x


def x_from_z(z, saturated: bool = False) -> float:
    """x = -ln z; DomainError unless z lies in (0, 1), or in (0, 1] (x = 0) if ``saturated``."""
    z = as_number("fugacity", z)
    if not (0.0 < z < 1.0 or saturated and z == 1.0):
        raise DomainError(f"fugacity must lie in (0, 1{']' if saturated else ')'}, got {z!r}")
    return -math.log(z) if z < 1.0 else 0.0


def check_count(name: str, value, minimum: int, maximum: int) -> int:
    """``value`` as an int; DomainError unless it is an integer in [``minimum``, ``maximum``]."""
    if not (isinstance(value, (int, np.integer)) and minimum <= value <= maximum):
        raise DomainError(f"{name}: need an int >= {minimum}, at most {maximum}; got {value!r}")
    return int(value)


#: The largest float whose square is finite.
_S_MAX = math.sqrt(sys.float_info.max)


def check_coordinates(s) -> np.ndarray:
    """``s`` as a float array of its own shape; DomainError unless s >= 0, s^2 < inf.

    s^2 < inf is tested as s <= _S_MAX, without forming s^2.
    """
    s = as_number("radius or column coordinate", s, array=True)
    if not (s.min(initial=0.0) >= 0.0 and s.max(initial=0.0) <= _S_MAX):
        raise DomainError("radius or column coordinate needs s >= 0, s^2 < inf")
    return s


def pointwise(fn, values) -> np.ndarray:
    """fn at each point of a float array, one Python float at a time.

    The batched exact kernels take exp, log, expm1 and powers this way where
    they must give the scalar kernels' floats: numpy's vectorised versions
    differ from the math module's in the last bit at a few percent of
    points.
    """
    return np.array(list(map(fn, np.asarray(values, dtype=float).tolist())))


def occupation(x: float) -> float:
    """Bose occupation 1/(e^x - 1) at x > 0; e^{-x}, equal in floats, above x = 700."""
    return 1.0 / math.expm1(x) if x < 700.0 else math.exp(-x)


def lambda3(tau: float) -> float:
    """Thermal de Broglie volume lambda^3 in sigma^3 units."""
    return (2.0 * math.pi * tau) ** 1.5


def ground_column(n0: float, d: int, s):
    """Ground-state density of n0 atoms integrated over d axes, at coordinate s.

    Each integrated axis contributes a factor sqrt(pi); units are sigma^(d-3).
    """
    return ground_column_from(n0, d, np.exp(-(s**2)))


def ground_column_from(n0: float, d: int, e):
    """:func:`ground_column` from the Gaussian e = e^{-s^2}, for callers that share it."""
    return n0 * math.pi ** (0.5 * d) * e / PI_32
