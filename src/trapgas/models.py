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
from enum import Enum

import numpy as np

from .errors import DomainError

PI_32 = math.pi ** 1.5

#: Largest admissible grid or sweep: profile points, sweep steps, recipe points.
MAX_POINTS = 100_000


class ModelKind(str, Enum):
    """Which equation set evaluates populations and densities."""

    EX = "ex"        # exact level sums
    SC = "sc"        # finite-size term + explicit ground state
    SC0 = "sc0"      # finite-size term only
    SCINF = "scinf"  # thermodynamic limit

    @property
    def has_ground_state(self) -> bool:
        return self in (ModelKind.EX, ModelKind.SC)

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown model tag {value!r}; the tags are {[k.value for k in cls]}")


def check_positive(name: str, value) -> float:
    """``value`` as a float; DomainError unless it is a positive, finite number."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
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


def check_x(x, positive: bool = False):
    """``x`` = -ln z as given; DomainError unless x >= 0, or x > 0 if ``positive``.

    x = 0 is saturation (z = 1), where a ground-state population diverges.
    """
    if not (x > 0.0 if positive else x >= 0.0):
        raise DomainError(f"need x {'>' if positive else '>='} 0, got {x!r}")
    return x


def x_from_z(z, saturated: bool = False) -> float:
    """x = -ln z; DomainError unless z lies in (0, 1), or in (0, 1] (x = 0) if ``saturated``."""
    z = float(z)
    if not (0.0 < z < 1.0 or saturated and z == 1.0):
        raise DomainError(f"fugacity must lie in (0, 1{']' if saturated else ')'}, got {z!r}")
    return -math.log(z) if z < 1.0 else 0.0


def check_dims(dims, allowed: tuple[int, ...]) -> int:
    """DomainError unless ``dims`` (the number of integrated axes) is one of ``allowed``."""
    if dims not in allowed:
        raise DomainError(f"dims_integrated must be one of {allowed}, got {dims!r}")
    return dims


def _check_points(points, name: str = "points") -> int:
    """``points`` as given; DomainError unless it is an integer in [2, MAX_POINTS]."""
    if not (isinstance(points, (int, np.integer)) and 2 <= points <= MAX_POINTS):
        raise DomainError(f"{name} must be an integer in [2, {MAX_POINTS}], got {points!r}")
    return points


def check_levels(n_max) -> int:
    """``n_max`` as an int; DomainError unless it is a nonnegative integer."""
    if not (isinstance(n_max, (int, np.integer)) and n_max >= 0):
        raise DomainError(f"n_max must be a nonnegative integer, got {n_max!r}")
    return int(n_max)


#: The largest float whose square is finite.
_S_MAX = math.sqrt(sys.float_info.max)


def check_coordinates(s) -> np.ndarray:
    """``s`` as a float array, at least 1-d; DomainError unless s >= 0, s^2 < inf.

    s^2 < inf is tested as s <= _S_MAX, without forming s^2.
    """
    s_arr = np.asarray(s, dtype=float)
    if not s_arr.ndim:
        s_arr = s_arr.reshape(1)
    if not (s_arr.min(initial=0.0) >= 0.0 and s_arr.max(initial=0.0) <= _S_MAX):
        raise DomainError("radius or column coordinate needs s >= 0, s^2 < inf")
    return s_arr


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
