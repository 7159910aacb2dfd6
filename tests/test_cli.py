import math
from pathlib import Path

import numpy as np
import pytest

import trapgas as tg
from trapgas.cli import main
from trapgas.errors import ConvergenceError
from trapgas.models import ModelKind as M

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestTransition:
    def test_prints_six_significant_digits(self, capsys):
        assert main(["transition", "--model", "ex", "--atoms", "1e6"]) == 0
        out = capsys.readouterr().out.strip()
        expected = tg.transition_temperature(M.EX, 1e6).temperature
        assert out == f"T*={expected:.6g}"

    def test_scinf_quoted_value(self, capsys):
        assert main(["transition", "--model", "scinf", "--atoms", "1e3"]) == 0
        assert capsys.readouterr().out.strip() == "T*=9.40499"

    def test_csv_row(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(
            ["transition", "--model", "sc", "--atoms", "1e4", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[-2] == "atoms,tau_star,T_star"

    def test_exact_rejects_anisotropy(self, capsys):
        code = main(
            ["transition", "--model", "ex", "--atoms", "1e6", "--aniso", "1,1,2"]
        )
        assert code == 2
        assert "isotropic" in capsys.readouterr().err

    def test_anisotropic_semiclassical(self, capsys):
        assert main(
            ["transition", "--model", "sc", "--atoms", "1e4", "--aniso", "1,1,2"]
        ) == 0
        t_aniso = float(capsys.readouterr().out.strip().removeprefix("T*="))
        assert t_aniso < tg.transition_temperature(M.SC, 1e4).temperature


class TestFugacity:
    def test_record(self, capsys):
        assert main(
            ["fugacity", "--model", "ex", "--atoms", "1e4", "--temp", "25.0"]
        ) == 0
        out = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        state = tg.solve_fugacity(M.EX, 1e4, tg.ReducedUnits.from_temperature(25.0))
        assert float(out["z"]) == pytest.approx(state.z, rel=1e-10)
        assert float(out["N0"]) == pytest.approx(state.n0, rel=1e-8)
        assert out["condensed"] == "no"

    def test_condensed_branch(self, capsys):
        t_c = tg.transition_temperature(M.SCINF, 1e5).temperature
        assert main(
            ["fugacity", "--model", "scinf", "--atoms", "1e5", "--temp", str(0.5 * t_c)]
        ) == 0
        out = capsys.readouterr().out
        assert "condensed=yes" in out
        assert "z=1" in out


class TestProfileCommand:
    def test_header_and_ground_normalization(self, tmp_path, capsys):
        out = tmp_path / "prof.csv"
        t_star = tg.transition_temperature(M.EX, 1e4).temperature
        assert main(
            [
                "profile", "--model", "ex", "--atoms", "1e4",
                "--temp", f"{t_star!r}", "--rmax", "12", "--points", "481",
                "--out", str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "r_over_sigma,total,ground,first_excited,other_excited"
        data = np.loadtxt(lines[header_idx + 1 :], delimiter=",")
        r, ground = data[:, 0], data[:, 2]
        integral = np.trapezoid(4.0 * math.pi * r**2 * ground, r)
        state = tg.solve_fugacity(M.EX, 1e4, 1.0 / t_star)
        assert integral == pytest.approx(state.n0, rel=0.01)

    def test_condensed_scinf_exits_2(self, tmp_path, capsys):
        t_c = tg.transition_temperature(M.SCINF, 1e6).temperature
        code = main(
            [
                "profile", "--model", "scinf", "--atoms", "1e6",
                "--temp", str(0.8 * t_c), "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 2

    def test_bad_points(self, tmp_path, capsys):
        code = main(
            [
                "profile", "--model", "ex", "--atoms", "1e3",
                "--temp", "8.0", "--points", "1", "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 2

    def test_points_above_admissible_maximum_exit_2(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(
            [
                "profile", "--model", "ex", "--atoms", "1e3", "--temp", "8.0",
                "--points", "100001", "--out", str(out),
            ]
        )
        assert code == 2
        assert "100000" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_columns_and_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--model", "ex,sc", "--atoms", "1e3",
                "--tmin", "6", "--tmax", "11", "--steps", "6", "--out", str(out),
            ]
        ) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "T,N0_frac_ex,peak_frac_ex,N0_frac_sc,peak_frac_sc"
        assert len(lines) == 7

    def test_failed_points_leave_empty_cells(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        t_star = tg.transition_temperature(M.SC0, 1e3).temperature
        assert main(
            [
                "sweep", "--model", "sc0", "--atoms", "1e3",
                "--tmin", str(0.6 * t_star), "--tmax", str(1.4 * t_star),
                "--steps", "9", "--out", str(out),
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "warning" in err
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert any(row.endswith(",,") or ",," in row for row in rows)

    def test_empty_range_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--model", "ex", "--atoms", "1e3",
                "--tmin", "11", "--tmax", "6", "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 2

    def test_bad_steps(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--model", "ex", "--atoms", "1e3",
                "--tmin", "6", "--tmax", "11", "--steps", "1",
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 2


class TestFigureCommand:
    def test_bad_id_exits_2(self, tmp_path, capsys):
        assert main(["figure", "--figure", "9", "--out", str(tmp_path)]) == 2

    def test_unwritable_directory_exits_4(self, capsys):
        code = main(["figure", "--figure", "2", "--out", "/proc/definitely/nope"])
        assert code == 4

    def test_determinism(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["figure", "--figure", "2", "--out", str(a)]) == 0
        assert main(["figure", "--figure", "2", "--out", str(b)]) == 0
        assert (a / "fig2.csv").read_bytes() == (b / "fig2.csv").read_bytes()

    @pytest.mark.parametrize("figure_id", [2, 3, 6, 7])
    def test_golden_byte_identical(self, figure_id, tmp_path, capsys):
        assert main(["figure", "--figure", str(figure_id), "--out", str(tmp_path)]) == 0
        produced = (tmp_path / f"fig{figure_id}.csv").read_bytes()
        golden = (GOLDEN_DIR / f"fig{figure_id}.csv").read_bytes()
        assert produced == golden


@pytest.mark.parametrize(
    "argv",
    [
        ["transition", "--model", "sc", "--atoms", "1e4", "--aniso", "nan,1,1"],
        ["transition", "--model", "sc", "--atoms", "1e4", "--aniso", "inf,1,1"],
        ["fugacity", "--model", "ex", "--atoms", "nan", "--temp", "20"],
        ["fugacity", "--model", "sc", "--atoms", "nan", "--temp", "20"],
        ["transition", "--model", "ex", "--atoms", "nan"],
        ["transition", "--model", "ex", "--atoms", "inf"],
        ["profile", "--model", "ex", "--atoms", "1e3", "--temp", "8", "--rmax", "inf"],
        ["sweep", "--atoms", "1e3", "--tmin", "6", "--tmax", "inf", "--steps", "3"],
    ],
)
def test_non_finite_input_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] in ("profile", "sweep"):
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


class TestExitCodeMapping:
    def test_convergence_maps_to_3(self, monkeypatch, capsys):
        import trapgas.cli as cli

        def boom(args):
            raise ConvergenceError("synthetic bracket failure")

        monkeypatch.setattr(cli, "cmd_transition", boom)
        assert cli.main(["transition", "--model", "ex", "--atoms", "10"]) == 3

    def test_argparse_errors_use_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transition", "--atoms"])
        assert excinfo.value.code == 2
