"""Figure-reproduction recipes: each emits one CSV data set.

The recipes pin the scan parameters used throughout the package
documentation (atom numbers, the profile temperature 93.37, the 2000-atom
step of the profile family) as defaults; the sweep CLI exposes the same
machinery with free parameters.

Columns per figure:

1. condensate fraction vs temperature, N = 1e3, all four models
   -> T, N0_frac_ex, N0_frac_sc, N0_frac_sc0, N0_frac_scinf
2. relative transition-temperature shifts vs atom number
   -> N, rel_shift_Tc, rel_shift_Tsc
3. threshold degeneracy parameter vs atom number
   -> N, deg_param_sc, deg_param_ex
4. condensate and peak-density fractions vs T, N = 1e6 (ex and sc)
   -> T, N0_frac_ex, peak_frac_ex, N0_frac_sc, peak_frac_sc
5. same as 4 with N = 1e3
6. total density profiles at T = 93.37 for N = 0.990e6 .. 1.004e6
   -> r_over_sigma, rho_N990000, ..., rho_N1004000
7. ground-state share of the threshold peak for 1D/2D/3D images vs N
   -> N, peak_frac_1d_image, peak_frac_2d_image, peak_frac_3d
"""

from __future__ import annotations

import numpy as np

from . import observables
from .core import ReducedUnits, solve_fugacity, transition_temperature
from .errors import DomainError
from .models import ModelKind
from .tables import SweepTable, meta

PROFILE_TEMPERATURE = 93.37
PROFILE_ATOM_RANGE = (990_000.0, 1_004_000.0, 2_000.0)


def _temperature_grid(model: ModelKind, atoms: float, points: int = 200):
    t_star = transition_temperature(model, atoms).temperature
    return np.linspace(0.5 * t_star, 1.5 * t_star, points)


def figure1(atoms: float = 1e3, points: int = 200) -> SweepTable:
    from .semiclassical import condensate_fraction_sc

    table = SweepTable(
        ["T", "N0_frac_ex", "N0_frac_sc", "N0_frac_sc0", "N0_frac_scinf"],
        meta(figure=1, atoms=atoms),
    )
    for t in _temperature_grid(ModelKind.EX, atoms, points):
        ex = solve_fugacity(ModelKind.EX, atoms, ReducedUnits.from_temperature(t))
        table.add_row(
            t,
            ex.n0 / atoms,
            condensate_fraction_sc(ModelKind.SC, atoms, t),
            condensate_fraction_sc(ModelKind.SC0, atoms, t),
            condensate_fraction_sc(ModelKind.SCINF, atoms, t),
        )
    return table


def figure2(n_grid=None) -> SweepTable:
    if n_grid is None:
        n_grid = np.logspace(2, 7, 26)
    table = SweepTable(["N", "rel_shift_Tc", "rel_shift_Tsc"], meta(figure=2))
    for atoms in n_grid:
        t_ex = transition_temperature(ModelKind.EX, atoms).temperature
        t_sc = transition_temperature(ModelKind.SC, atoms).temperature
        t_c = transition_temperature(ModelKind.SCINF, atoms).temperature
        table.add_row(atoms, (t_c - t_ex) / t_ex, (t_sc - t_ex) / t_ex)
    return table


def figure3(n_grid=None) -> SweepTable:
    if n_grid is None:
        n_grid = np.logspace(2, 8, 25)
    table = SweepTable(["N", "deg_param_sc", "deg_param_ex"], meta(figure=3))
    for atoms in n_grid:
        rows = []
        for model in (ModelKind.SC, ModelKind.EX):
            units = transition_temperature(model, atoms)
            state = solve_fugacity(model, atoms, units)
            rows.append(observables.peak_report(state).degeneracy_parameter)
        table.add_row(atoms, *rows)
    return table


def _fraction_sweep(figure: int, atoms: float, points: int) -> SweepTable:
    table = SweepTable(
        ["T", "N0_frac_ex", "peak_frac_ex", "N0_frac_sc", "peak_frac_sc"],
        meta(figure=figure, atoms=atoms),
    )
    for t in _temperature_grid(ModelKind.EX, atoms, points):
        units = ReducedUnits.from_temperature(t)
        cells = [t]
        for model in (ModelKind.EX, ModelKind.SC):
            state = solve_fugacity(model, atoms, units)
            report = observables.peak_report(state)
            cells.extend([report.n0_fraction, report.peak_fraction])
        table.add_row(*cells)
    return table


def figure4(atoms: float = 1e6, points: int = 200) -> SweepTable:
    return _fraction_sweep(4, atoms, points)


def figure5(atoms: float = 1e3, points: int = 200) -> SweepTable:
    return _fraction_sweep(5, atoms, points)


def figure6(
    temperature: float = PROFILE_TEMPERATURE,
    atom_range: tuple[float, float, float] = PROFILE_ATOM_RANGE,
    r_max: float = 20.0,
    points: int = 201,
) -> SweepTable:
    lo, hi, step = atom_range
    atom_values = np.arange(lo, hi + 0.5 * step, step)
    grid = np.linspace(0.0, r_max, points)
    units = ReducedUnits.from_temperature(temperature)
    columns = ["r_over_sigma"] + [f"rho_N{int(n)}" for n in atom_values]
    table = SweepTable(columns, meta(figure=6, temperature=temperature))
    profiles = []
    for atoms in atom_values:
        state = solve_fugacity(ModelKind.EX, atoms, units)
        profiles.append(observables.total_density(state, grid))
    for i, r in enumerate(grid):
        table.add_row(r, *[rho[i] for rho in profiles])
    return table


def figure7(n_grid=None) -> SweepTable:
    if n_grid is None:
        n_grid = np.logspace(2, 8, 25)
    table = SweepTable(
        ["N", "peak_frac_1d_image", "peak_frac_2d_image", "peak_frac_3d"],
        meta(figure=7),
    )
    for atoms in n_grid:
        units = transition_temperature(ModelKind.EX, atoms)
        state = solve_fugacity(ModelKind.EX, atoms, units)
        report = observables.peak_report(state)
        table.add_row(
            atoms,
            observables.integrated_peak_fraction(state, 2),
            observables.integrated_peak_fraction(state, 1),
            report.peak_fraction,
        )
    return table


_RECIPES = {
    1: figure1,
    2: figure2,
    3: figure3,
    4: figure4,
    5: figure5,
    6: figure6,
    7: figure7,
}


def make_figure(figure_id: int) -> SweepTable:
    recipe = _RECIPES.get(figure_id)
    if recipe is None:
        raise DomainError(f"figure id must be 1..7, got {figure_id!r}")
    return recipe()
