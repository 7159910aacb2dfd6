"""Model tags and the trap-unit conventions every model shares.

Units convention: the (geometric-mean) trap frequency omega fixes
everything.  Lengths are in sigma = sqrt(hbar / m omega), temperatures in
hbar omega/k_B (so tau = hbar omega / k_B T is the inverse reduced
temperature), densities in sigma^-3.  The thermal wavelength obeys
lambda^3 = (2 pi tau)^{3/2} sigma^3 exactly, and the ground state is the
unit-width Gaussian e^{-r^2} / pi^{3/2}.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DomainError

PI_32 = math.pi ** 1.5


class ModelKind(str, Enum):
    """Which equation set evaluates populations and densities."""

    EX = "ex"        # exact level sums
    SC = "sc"        # finite-size term + explicit ground state
    SC0 = "sc0"      # finite-size term only
    SCINF = "scinf"  # thermodynamic limit

    @property
    def has_ground_state(self) -> bool:
        return self in (ModelKind.EX, ModelKind.SC)


def check_positive(name: str, value) -> float:
    """``value`` as a float; DomainError unless it is positive and finite."""
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def lambda3(tau: float) -> float:
    """Thermal de Broglie volume lambda^3 in sigma^3 units."""
    return (2.0 * math.pi * tau) ** 1.5


def ground_column(n0: float, d: int, s):
    """Ground-state density of n0 atoms integrated over d axes, at coordinate s.

    Each integrated axis contributes a factor sqrt(pi); units are sigma^(d-3).
    """
    return n0 * math.pi ** (0.5 * d) * np.exp(-(s**2)) / PI_32
