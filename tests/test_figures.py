import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trapgas as tg
from trapgas import core, exact, figures, semiclassical
from trapgas.errors import DomainError
from trapgas.models import MAX_POINTS
from trapgas.models import ModelKind as M

GOLDEN_DIR = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def columns(table):
    return {name: np.array([row[i] for row in table.rows])
            for i, name in enumerate(table.columns)}


class TestFigure2:
    def test_sc_shift_below_one_percent_above_400_atoms(self):
        table = figures.figure2(n_grid=np.array([450.0, 1e3, 1e4, 1e6]))
        data = columns(table)
        assert np.all(data["rel_shift_Tsc"] < 0.01)
        assert np.all(data["rel_shift_Tsc"] > 0.0)
        assert np.all(data["rel_shift_Tc"] > data["rel_shift_Tsc"])


class TestFigure3:
    def test_degeneracy_columns(self):
        table = figures.figure3(n_grid=np.array([1e3, 1e6]))
        data = columns(table)
        # both model families sit well above the uncorrected 2.612 and the
        # sc curve runs above the exact one
        assert np.all(data["deg_param_ex"] > 2.612375 + 3.0)
        assert np.all(data["deg_param_sc"] > data["deg_param_ex"])
        assert data["deg_param_ex"][1] == pytest.approx(6.2, abs=0.1)


class TestFigure45:
    def test_peak_fraction_rises_through_half_near_transition(self):
        # right at T* the peak fraction is already past one half while the
        # population fraction is still at the 1e-3 scale
        units = tg.transition_temperature(M.EX, 1e6)
        report = tg.peak_report(tg.solve_fugacity(M.EX, 1e6, units))
        assert 0.5 < report.peak_fraction < 0.8
        assert report.n0_fraction < 5e-3
        table = figures.figure4(points=60)
        data = columns(table)
        assert np.all(np.diff(data["peak_frac_ex"]) < 0.0)  # decreasing in T
        assert data["peak_frac_ex"][0] > 0.9 > 0.5 > data["peak_frac_ex"][-1]

    def test_small_cloud_variant_uses_1e3(self):
        table = figures.figure5(points=12)
        assert table.metadata["atoms"] == "1000.0"

    def test_figure_id_does_not_follow_atom_number(self):
        assert figures.figure4(atoms=1e3, points=2).metadata["figure"] == "4"


class TestFigure6:
    def test_profile_family_layout(self):
        table = figures.figure6(points=41, r_max=10.0)
        assert table.columns[0] == "r_over_sigma"
        assert table.columns[1] == "rho_N990000"
        assert table.columns[-1] == "rho_N1004000"
        assert len(table.columns) == 9  # 8 atom numbers, 2000-atom steps
        data = columns(table)
        # only the centre is sensitive to the atom number: the profiles for
        # the highest and lowest N differ at r = 0 and collapse by r ~ 5
        lo, hi = data["rho_N990000"], data["rho_N1004000"]
        assert hi[0] > lo[0] * 1.5
        far = data["r_over_sigma"] > 5.0
        assert np.allclose(hi[far], lo[far], rtol=0.02)

    @pytest.mark.parametrize("r_max", [math.inf, math.nan, -1.0, 0.0])
    def test_bad_r_max_raises_domain_error_before_any_solve(self, r_max, monkeypatch):
        # inf used to reach np.linspace (a RuntimeWarning), and -1 and nan
        # were refused only by the kernel, after the eight solves.
        solves = counted(monkeypatch, figures, "_solve_fugacity_many")
        with pytest.raises(DomainError, match="r_max"):
            figures.figure6(r_max=r_max)
        assert solves == []


class TestFigure7:
    def test_row_at_1e4(self):
        table = figures.figure7(n_grid=np.array([1e4]))
        row = dict(zip(table.columns, table.rows[0]))
        assert row["peak_frac_1d_image"] == pytest.approx(0.06, abs=0.02)
        assert row["peak_frac_2d_image"] == pytest.approx(0.26, abs=0.03)
        assert row["peak_frac_3d"] > row["peak_frac_2d_image"] > row["peak_frac_1d_image"]


def counted(monkeypatch, module, name):
    """The calls of ``module.name`` from now on, as a list of argument tuples."""
    calls, kernel = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or kernel(*a))
    return calls


@pytest.mark.parametrize("recipe", [figures.figure3, figures.figure7])
def test_threshold_observables_are_batched(recipe, monkeypatch):
    # Figures 3 and 7 take every EX peak report and integrated peak
    # fraction from one batched exact sum, never one scalar sum per state.
    scalar = counted(monkeypatch, exact, "_excited_gauss_sum")
    batched = counted(monkeypatch, exact, "_excited_gauss_sums")
    recipe(n_grid=np.logspace(2, 8, 7))
    assert scalar == []
    sizes = [len(args[0]) for args in batched]  # fig 3's SC batch has no EX state
    assert 7 in sizes and sum(sizes) == 7


def test_profile_family_is_one_shared_tau_sum(monkeypatch):
    # Figure 6's eight profiles share one tau and grid: one Gaussian sum
    # for all of them, never one per state.
    scalar = counted(monkeypatch, exact, "_excited_gauss_sum")
    shared = counted(monkeypatch, exact, "_excited_gauss_sums")
    figures.figure6(points=41)
    assert scalar == []
    assert [len(args[0]) for args in shared] == [8]


def test_semiclassical_peak_reports_take_the_float_path(monkeypatch):
    # Figure 3's SC peak reports make no grid or density call.
    grid = [counted(monkeypatch, semiclassical, name) for name in ("density_sc_x", "_column_sc")]
    point = counted(monkeypatch, semiclassical, "_column_sc_at")
    figures.figure3(n_grid=np.logspace(2, 8, 7))
    assert grid == [[], []]
    assert len(point) == 7


@pytest.mark.parametrize(
    "recipe,kwargs",
    [
        (figures.figure1, {"points": -1}),
        (figures.figure4, {"points": -1}),
        (figures.figure5, {"points": 1}),
        (figures.figure5, {"points": 2.0}),
        (figures.figure1, {"points": MAX_POINTS + 1}),
        (figures.figure6, {"points": -1}),
        (figures.figure6, {"points": MAX_POINTS + 1}),
        (figures.figure6, {"atom_range": (990_000.0, 1_004_000.0, 0.0)}),
        (figures.figure6, {"atom_range": (990_000.0, 1_004_000.0, -2_000.0)}),
        (figures.figure6, {"atom_range": (1_004_000.0, 990_000.0, 2_000.0)}),
        (figures.figure6, {"atom_range": (2.0, 1e12, 1.0)}),
        (figures.figure6, {"atom_range": (2.0, float("nan"), 1.0)}),
        (figures.figure6, {"atom_range": ("a", 1e6, 2e3)}),
        (figures.figure6, {"atom_range": (990_000.0, 1_004_000.0)}),
        (figures.figure6, {"atom_range": (990_000.0, [1_004_000.0], 2_000.0)}),
        (figures.figure6, {"atom_range": None}),
        (figures.figure6, {"atom_range": (0.0, 1_004_000.0, 2_000.0)}),
    ],
)
def test_bad_recipe_sizes_are_refused_before_any_solve(recipe, kwargs, monkeypatch):
    # A step of 0 used to raise ZeroDivisionError, and a negative point
    # count numpy's ValueError.
    for name in ("transition_temperature", "_solve_fugacity_many", "solve_fugacity"):
        monkeypatch.setattr(figures, name, lambda *a, **k: pytest.fail("state solved"))
    with pytest.raises(DomainError):
        recipe(**kwargs)


@pytest.mark.parametrize("recipe", [figures.figure2, figures.figure3, figures.figure7])
@pytest.mark.parametrize(
    "n_grid",
    [5.0, [], [[1e3, 1e4]], ["a"], [1e3, 1.5], np.full(MAX_POINTS + 1, 1e3)],
    ids=["scalar", "empty", "2-d", "text", "too-few-atoms", "too-many"],
)
def test_bad_atom_grid_is_refused_before_any_solve(recipe, n_grid, monkeypatch):
    # A scalar used to raise TypeError from the solver, and [] to give a
    # table with no rows.
    for name in ("_transition_many", "_solve_fugacity_many"):
        monkeypatch.setattr(figures, name, lambda *a, **k: pytest.fail("state solved"))
    with pytest.raises(DomainError):
        recipe(n_grid=n_grid)


class TestFigure1:
    def test_two_lockstep_solves_and_no_scalar_solve(self, monkeypatch):
        scalar = [counted(monkeypatch, module, "solve_fugacity") for module in (figures, core)]
        batched = counted(monkeypatch, figures, "_solve_fugacity_many")
        figures.figure1(points=7)
        assert scalar == [[], []]
        assert [(model, len(atoms), len(taus)) for model, atoms, taus in batched] == [
            (M.EX, 7, 7), (M.SC, 7, 7)
        ]

    @pytest.mark.parametrize("atoms", [2.0, 1e3, 1e6])
    def test_rows_are_the_scalar_solves_floats(self, atoms):
        rows = figures.figure1(atoms, points=37).rows
        for t, *fractions in rows:
            ex = tg.solve_fugacity(M.EX, atoms, tg.ReducedUnits.from_temperature(t))
            expected = [ex.n0 / atoms] + [
                tg.condensate_fraction_sc(model, atoms, t) for model in (M.SC, M.SC0, M.SCINF)
            ]
            assert fractions == expected  # the same floats, not close ones

    def test_atoms_are_converted_at_entry(self):
        # A string atom number used to reach the cells: TypeError (float / str).
        table = figures.figure1(atoms="1e3", points=3)
        assert table.rows == figures.figure1(atoms=1e3, points=3).rows
        assert table.metadata["atoms"] == "1000.0"


@pytest.mark.parametrize("recipe", [figures.figure4, figures.figure5])
def test_sweep_metadata_holds_the_converted_atom_number(recipe):
    # It used to hold the argument as given: "# atoms=1e3".
    table = recipe(atoms="1e3", points=2)
    assert table.metadata["atoms"] == "1000.0"
    assert table.rows == recipe(atoms=1e3, points=2).rows


def test_bad_figure_id():
    with pytest.raises(DomainError):
        figures.make_figure(0)
    with pytest.raises(DomainError):
        figures.make_figure(8)


@pytest.mark.parametrize("figure_id", [1, 4, 5])
def test_golden_byte_identical(figure_id):
    # 2, 3, 6 and 7 are pinned through the CLI in test_cli.py
    produced = figures.make_figure(figure_id).to_csv().encode("ascii")
    assert produced == (GOLDEN_DIR / f"fig{figure_id}.csv").read_bytes()


def test_make_figures_script_writes_golden_bytes(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_figures.py"), "--repeat", "1", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"fig{k}" for k in range(1, 8)]
    assert all("best" in line and "median" in line for line in lines)
    for k in (2, 3, 6, 7):  # the batched recipes; 1, 4 and 5 are pinned above
        assert (tmp_path / f"fig{k}.csv").read_bytes() == (GOLDEN_DIR / f"fig{k}.csv").read_bytes()
