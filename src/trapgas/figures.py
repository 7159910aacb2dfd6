"""Figure-reproduction recipes: each emits one CSV data set.

The recipes pin the scan parameters used throughout the package
documentation (atom numbers, the profile temperature 93.37, the 2000-atom
step of the profile family) as defaults; the sweep CLI exposes the same
machinery with free parameters.  The recipes over a list of atom numbers
(2, 3, 6 and 7) solve all its T* and threshold states in lockstep
(``core._transition_many``, ``core._solve_fugacity_many``), and figure 1
solves its EX and SC states over the temperature grid the same way, one
lockstep solve per model: each state is the scalar solve's own coroutine,
so it evaluates the points and gives the floats of the scalar solves the
sweeps of figures 4 and 5 use.  Figures 3 and 7
then take the peak reports and integrated peak fractions of all their EX
states from one batched exact sum at the origin, and those of their SC
states on the semi-classical float path (``observables._at_origin``).
Figure 6's eight profiles share one tau and grid, so one exact sum gives
them all (``exact._columns``).  Every value is the scalar calls' float.

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

from . import exact, observables
from .core import ReducedUnits, _solve_fugacity_many, _transition_many
from .core import solve_fugacity, transition_temperature
from .errors import ConvergenceError, DomainError, TruncationError
from .models import MAX_POINTS, ModelKind, as_number, check_atom_grid, check_atoms, check_choice
from .models import check_count, check_positive
from .tables import SweepTable, meta

PROFILE_TEMPERATURE = 93.37
PROFILE_ATOM_RANGE = (990_000.0, 1_004_000.0, 2_000.0)


def _temperature_grid(atoms, points: int):
    """``atoms`` as a float, and ``points`` temperatures from 0.5 to 1.5 T* of EX."""
    atoms = check_atoms(atoms)
    points = check_count("points", points, 2, MAX_POINTS)
    t_star = transition_temperature(ModelKind.EX, atoms).temperature
    return atoms, np.linspace(0.5 * t_star, 1.5 * t_star, points)


def figure1(atoms: float = 1e3, points: int = 200) -> SweepTable:
    from .semiclassical import condensate_fraction_sc

    atoms, grid = _temperature_grid(atoms, points)
    table = SweepTable(
        ["T", "N0_frac_ex", "N0_frac_sc", "N0_frac_sc0", "N0_frac_scinf"],
        meta(figure=1, atoms=atoms),
    )
    taus = [ReducedUnits.from_temperature(t).tau for t in grid]
    ex, sc = (
        _solve_fugacity_many(model, [atoms] * len(taus), taus)
        for model in (ModelKind.EX, ModelKind.SC)
    )
    for t, ex_state, sc_state in zip(grid, ex, sc):
        table.add_row(
            t,
            ex_state.n0 / atoms,
            sc_state.n0 / atoms,
            condensate_fraction_sc(ModelKind.SC0, atoms, t),
            condensate_fraction_sc(ModelKind.SCINF, atoms, t),
        )
    return table


def figure2(n_grid=None) -> SweepTable:
    n_grid = check_atom_grid(np.logspace(2, 7, 26) if n_grid is None else n_grid)
    table = SweepTable(["N", "rel_shift_Tc", "rel_shift_Tsc"], meta(figure=2))
    t_ex, t_sc, t_c = (
        1.0 / _transition_many(model, n_grid)
        for model in (ModelKind.EX, ModelKind.SC, ModelKind.SCINF)
    )
    for row in zip(n_grid, (t_c - t_ex) / t_ex, (t_sc - t_ex) / t_ex):
        table.add_row(*row)
    return table


def _threshold_states(model: ModelKind, n_grid):
    """The state of ``model`` at its own T* for each atom number."""
    return _solve_fugacity_many(model, n_grid, _transition_many(model, n_grid))


def figure3(n_grid=None) -> SweepTable:
    n_grid = check_atom_grid(np.logspace(2, 8, 25) if n_grid is None else n_grid)
    table = SweepTable(["N", "deg_param_sc", "deg_param_ex"], meta(figure=3))
    sc, ex = (
        observables._at_origin(_threshold_states(model, n_grid))[0]
        for model in (ModelKind.SC, ModelKind.EX)
    )
    for atoms, *reports in zip(n_grid, sc, ex):
        table.add_row(atoms, *(report.degeneracy_parameter for report in reports))
    return table


def _fraction_sweep(models, atoms: float, temperatures, metadata, warn=None) -> SweepTable:
    """Condensate and peak-density fractions of each model at each temperature.

    A state whose solve or report raises a typed error is handed to
    ``warn(model, t, exc)`` and leaves its two cells empty; without
    ``warn`` the error propagates.
    """
    columns = [f"{kind}_frac_{model.value}" for model in models for kind in ("N0", "peak")]
    table = SweepTable(["T", *columns], metadata)
    for t in temperatures:
        cells = [t]
        for model in models:
            try:
                units = ReducedUnits.from_temperature(t)
                report = observables.peak_report(solve_fugacity(model, atoms, units))
                cells += [report.n0_fraction, report.peak_fraction]
            except (DomainError, ConvergenceError, TruncationError) as exc:
                if warn is None:
                    raise
                warn(model, t, exc)
                cells += [None, None]
        table.add_row(*cells)
    return table


def figure4(atoms: float = 1e6, points: int = 200) -> SweepTable:
    atoms, grid = _temperature_grid(atoms, points)
    return _fraction_sweep((ModelKind.EX, ModelKind.SC), atoms, grid, meta(figure=4, atoms=atoms))


def figure5(atoms: float = 1e3, points: int = 200) -> SweepTable:
    atoms, grid = _temperature_grid(atoms, points)
    return _fraction_sweep((ModelKind.EX, ModelKind.SC), atoms, grid, meta(figure=5, atoms=atoms))


def figure6(
    temperature: float = PROFILE_TEMPERATURE,
    atom_range: tuple[float, float, float] = PROFILE_ATOM_RANGE,
    r_max: float = 20.0,
    points: int = 201,
) -> SweepTable:
    bounds = as_number("every atom range value", atom_range, array=True)
    if bounds.shape != (3,):
        raise DomainError(f"atom range must be (lo, hi, step), got {atom_range!r}")
    lo, hi = (check_positive("atom number", n) for n in bounds[:2])
    step = check_positive("atom step", bounds[2])
    if not 0.0 <= (hi - lo) / step <= MAX_POINTS - 1:
        raise DomainError(f"atom range needs lo <= hi and at most {MAX_POINTS} values")
    atom_values = np.arange(lo, hi + 0.5 * step, step)
    points = check_count("points", points, 2, MAX_POINTS)
    grid = np.linspace(0.0, check_positive("r_max", r_max), points)
    units = ReducedUnits.from_temperature(temperature)
    columns = ["r_over_sigma"] + [f"rho_N{int(n)}" for n in atom_values]
    table = SweepTable(columns, meta(figure=6, temperature=temperature))
    states = _solve_fugacity_many(ModelKind.EX, atom_values, [units.tau] * atom_values.size)
    profiles = exact._columns([s.x for s in states], [s.tau for s in states], (0,), grid)
    profiles = profiles[0].T.tolist()
    for r, row in zip(grid, profiles):
        table.add_row(r, *row)
    return table


def figure7(n_grid=None) -> SweepTable:
    n_grid = check_atom_grid(np.logspace(2, 8, 25) if n_grid is None else n_grid)
    table = SweepTable(
        ["N", "peak_frac_1d_image", "peak_frac_2d_image", "peak_frac_3d"],
        meta(figure=7),
    )
    # Integrating 2 axes leaves a 1D image, 1 axis a 2D image.
    columns = observables._at_origin(_threshold_states(ModelKind.EX, n_grid), (2, 1, 0))
    for atoms, image_1d, image_2d, report in zip(n_grid, *columns):
        table.add_row(atoms, image_1d, image_2d, report.peak_fraction)
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
    return _RECIPES[check_choice("figure id", figure_id, _RECIPES)]()
