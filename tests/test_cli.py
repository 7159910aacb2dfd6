import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trapgas as tg
from trapgas import cli, figures
from trapgas.cli import build_parser, main
from trapgas.errors import ConvergenceError
from trapgas.models import MAX_POINTS
from trapgas.models import ModelKind as M

GOLDEN_DIR = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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

    @pytest.mark.parametrize("model", ["ex", "sc"])
    def test_radius_with_overflowing_square_exits_2(self, model, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(
            [
                "profile", "--model", model, "--atoms", "1e3", "--temp", "10",
                "--rmax", "1e200", "--points", "3", "--out", str(out),
            ]
        )
        assert code == 2
        assert "s^2 < inf" in capsys.readouterr().err
        assert not out.exists()


class TestDegeneracyCommand:
    @pytest.mark.parametrize("model", ["ex", "sc", "scinf"])
    def test_prints_peak_degeneracy(self, model, capsys):
        assert main(["degeneracy", "--model", model, "--atoms", "1e4"]) == 0
        assert capsys.readouterr().out.startswith("rho0_lambda3=")

    @pytest.mark.parametrize("atoms", ["100", "1e4", "1e6"])
    def test_sc0_exits_2_naming_the_divergence(self, atoms, capsys):
        # SC0 sits at x ~ 1e-16 at its own T*, where g_{1/2} diverges and
        # the peak density is set by rounding.
        assert main(["degeneracy", "--model", "sc0", "--atoms", atoms]) == 2
        assert "g_{1/2} diverges" in capsys.readouterr().err


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

    def test_underflowing_temperatures_warn_and_leave_every_model_empty(self, tmp_path, capsys):
        # At T = 1 the condensed SC0 and SCINF states have no density; above
        # T ~ 1e102, tau^3 underflows for every model.
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--model", "ex,sc,sc0,scinf", "--atoms", "1e3",
                "--tmin", "1", "--tmax", "1e120", "--steps", "7", "--out", str(out),
            ]
        ) == 0
        no_density = (
            "defines no condensate density; its profile is unavailable below the "
            "transition temperature"
        )
        expected = [f"warning: {m} failed at T=1: model {m} {no_density}"
                    for m in ("sc0", "scinf")]
        for t, tau in [("1.66667e+119", "6e-120"), ("3.33333e+119", "3e-120"),
                       ("5e+119", "2e-120"), ("6.66667e+119", "1.5e-120"),
                       ("8.33333e+119", "1.2e-120"), ("1e+120", "1e-120")]:
            expected += [f"warning: {m} failed at T={t}: tau^3 underflows at tau = {tau}"
                         for m in ("ex", "sc", "sc0", "scinf")]
        assert capsys.readouterr().err.splitlines() == expected
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0][1:] == [f"{kind}_frac_{m}" for m in ("ex", "sc", "sc0", "scinf")
                               for kind in ("N0", "peak")]
        assert rows[1][0] == "1.00000000e+00"
        assert all(rows[1][1:5]) and rows[1][5:] == [""] * 4
        assert [row[0] for row in rows[2:]] == [
            "1.66666667e+119", "3.33333333e+119", "5.00000000e+119",
            "6.66666667e+119", "8.33333333e+119", "1.00000000e+120",
        ]
        assert [row[1:] for row in rows[2:]] == [[""] * 8] * 6

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

    def test_steps_above_admissible_maximum_exit_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(figures, "solve_fugacity", lambda *a, **k: pytest.fail("state solved"))
        out = tmp_path / "s.csv"
        code = main(
            [
                "sweep", "--model", "ex", "--atoms", "1e3", "--tmin", "6", "--tmax", "11",
                "--steps", str(MAX_POINTS + 1), "--out", str(out),
            ]
        )
        assert code == 2
        assert str(MAX_POINTS) in capsys.readouterr().err
        assert not out.exists()


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


@pytest.mark.parametrize("command", ["transition", "fugacity", "degeneracy", "profile"])
def test_unknown_model_tag_exits_2(command, tmp_path, capsys):
    # These used to exit 1 with a ValueError traceback; sweep already exited 2.
    out = tmp_path / "out.csv"
    argv = [command, "--model", "foo", "--atoms", "1e3"]
    if command in ("fugacity", "profile"):
        argv += ["--temp", "10"]
    if command == "profile":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert "unknown model tag 'foo'" in capsys.readouterr().err
    assert not out.exists()


def test_frozen_exact_profile_exits_0(tmp_path, capsys):
    # tau = 800: the first-excited occupation used to overflow math.expm1 (exit 1).
    out = tmp_path / "p.csv"
    argv = ["profile", "--model", "ex", "--atoms", "1e3", "--temp", "0.00125", "--out", str(out)]
    assert main(argv) == 0
    assert out.exists()


@pytest.mark.parametrize("model", ["ex", "sc", "sc0", "scinf"])
def test_temperature_whose_tau_cube_overflows_exits_2(model, capsys):
    # tau = 1e200: SC used to escape as an untyped OverflowError (exit 1).
    argv = ["fugacity", "--model", model, "--atoms", "1e6", "--temp", "1e-200"]
    assert main(argv) == 2
    assert "tau^3 overflows" in capsys.readouterr().err


class TestExitCodeMapping:
    def test_convergence_maps_to_3(self, monkeypatch, capsys):
        def boom(args):
            raise ConvergenceError("synthetic bracket failure")

        monkeypatch.setattr(cli, "cmd_transition", boom)
        assert cli.main(["transition", "--model", "ex", "--atoms", "10"]) == 3

    def test_parser_is_built_once(self, monkeypatch, capsys, tmp_path):
        cli._parser()
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert cli.main(["transition", "--model", "sc", "--atoms", "1e3"]) == 0
        assert cli.main(["figure", "--figure", "2", "--out", str(tmp_path)]) == 0

    def test_argparse_errors_use_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transition", "--atoms"])
        assert excinfo.value.code == 2

    def test_removed_tol_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transition", "--atoms", "1e3", "--tol", "1e-12"])
        assert excinfo.value.code == 2


def readme_cli_commands() -> list[list[str]]:
    """The ``trapgas`` commands of the README's CLI block, one argv each."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands, pending = [], ""
    for line in block.splitlines():
        line = pending + line.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        words = shlex.split(line)
        if words and words[0] == "trapgas":
            commands.append(words[1:])
    return commands


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert len(commands) >= 7
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: trapgas {shlex.join(argv)}")


def _loaded_by_import(package):
    """Modules of ``package`` that a fresh ``import trapgas`` loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, trapgas; "
        f"print([m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


@pytest.mark.parametrize("package", ["scipy", "mpmath", "numpy.polynomial"])
def test_import_loads_no_scipy(package):
    # numpy is the only runtime dependency; scipy and mpmath are for the tests
    # alone.  numpy.polynomial serves only the moments' Gauss-Legendre rule,
    # which loads it when first used.  Tables built at import use plain numpy.
    assert _loaded_by_import(package) == "[]"
