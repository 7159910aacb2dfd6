"""Ideal Bose gas in an isotropic harmonic trap, near and below saturation.

Exact grand-canonical level sums plus three semi-classical approximations,
with observables (peak densities, column densities, profile decompositions,
density moments) and a CSV-emitting sweep CLI.
"""

__version__ = "0.1.0"

from .bose import BOSE_ORDERS, bose_g, bose_g_small_x, zeta_const
from .core import (
    GasState,
    ModelKind,
    ReducedUnits,
    TrapSpec,
    population_total,
    saturated_population,
    solve_fugacity,
    transition_temperature,
)
from .errors import ConvergenceError, DomainError, QuadratureError, TruncationError
from .exact import (
    column_density_ex,
    density_ex,
    eigenfunction_oracle,
    level_populations_ex,
    population_ex,
)
from .observables import (
    DensityProfile,
    PeakReport,
    density_moment,
    dip_height,
    integrated_peak_fraction,
    peak_report,
    profile,
)
from .semiclassical import (
    DEGENERACY_LIMIT,
    HighNAsymptotics,
    ScVariant,
    condensate_fraction_sc,
    density_sc,
    high_n_asymptotics,
    population_sc,
)

__all__ = [
    "BOSE_ORDERS",
    "ConvergenceError",
    "DEGENERACY_LIMIT",
    "DensityProfile",
    "DomainError",
    "GasState",
    "HighNAsymptotics",
    "ModelKind",
    "PeakReport",
    "QuadratureError",
    "ReducedUnits",
    "ScVariant",
    "TrapSpec",
    "TruncationError",
    "bose_g",
    "bose_g_small_x",
    "column_density_ex",
    "condensate_fraction_sc",
    "density_ex",
    "density_moment",
    "density_sc",
    "dip_height",
    "eigenfunction_oracle",
    "high_n_asymptotics",
    "integrated_peak_fraction",
    "level_populations_ex",
    "peak_report",
    "population_ex",
    "population_sc",
    "population_total",
    "profile",
    "saturated_population",
    "solve_fugacity",
    "transition_temperature",
    "zeta_const",
]
