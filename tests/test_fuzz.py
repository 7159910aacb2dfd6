"""Fuzz of the public API and of the CLI: a value or a typed error, nothing else.

Every callable in ``trapgas.__all__`` is called with each argument drawn
from valid values mixed with bad ones: strings and None; nan, +-inf, 0,
negatives and 1e308; ragged lists, and 0-d and 2-d arrays.  A call returns
a finite value of its documented type and shape, or raises one of the four
typed errors, and warns nothing.  ``cli.main`` ends every run with exit
code 0, 2, 3 or 4 (argparse's own exit counts as 2), with no traceback.
"""

import contextlib
import dataclasses
import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import trapgas as tg
from trapgas import cli
from trapgas.errors import ConvergenceError, DomainError, QuadratureError, TruncationError

TYPED = (ConvergenceError, DomainError, QuadratureError, TruncationError)
FUZZ = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BAD = st.sampled_from([
    "a", "", "1", None, True, 0, -1, 1e308, -1e308,
    [1.0, [2.0]], [[0.5, 1.0], [1.5]],
    np.array(0.5), np.array([[0.5, 1.0], [1.5, 2.0]]), np.array([0.5, 1.0]),
]) | st.floats()  # nan, +-inf, 0, negatives, subnormals, huge

STATES = [
    tg.solve_fugacity("ex", 1e3, 1.0 / 12.0),  # above T* (about 9.4)
    tg.solve_fugacity("ex", 1e3, 1.0 / 6.0),
    tg.solve_fugacity("sc", 1e3, 1.0 / 12.0),
    tg.solve_fugacity("sc0", 1e3, 1.0 / 6.0),  # condensed: no density
    tg.solve_fugacity("scinf", 1e3, 1.0 / 12.0),
]
MODELS = ["ex", "sc", "sc0", "scinf", tg.ModelKind.SC]
VARIANTS = ["sc", "sc0", "scinf", tg.ScVariant("sc", 1.2)]
ATOMS = [1e3, 50.0, 2e4]
TAUS = [0.1, 0.5]
Z = [0.5, 0.9]
GRIDS = [0.0, 1.5, [0.0, 1.0, 2.0], np.linspace(0.0, 4.0, 5)]


def finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def number(result, args):
    assert isinstance(result, float) and math.isfinite(result)


def column(grid_at):
    """A float for a scalar coordinate, an array of the grid's shape for a grid."""

    def check(result, args):
        shape = np.shape(args[grid_at])
        if shape:
            assert isinstance(result, np.ndarray) and result.shape == shape
        else:
            assert isinstance(result, float)
        assert finite(result)

    return check


def record(kind, finite_fields=True):
    """An instance of ``kind``; with ``finite_fields``, every number field finite."""

    def check(result, args):
        assert isinstance(result, kind)
        if finite_fields:
            fields = [getattr(result, f.name) for f in dataclasses.fields(result)]
            assert finite(*(v for v in fields if isinstance(v, (float, np.ndarray))))

    return check


def levels(result, args):
    assert isinstance(result, list) and len(result) == args[2] + 1
    assert all(n == i and finite(g, pop) for i, (n, g, pop) in enumerate(result))


def trap(result, args):
    assert isinstance(result, tg.TrapSpec)
    freqs = result.frequencies
    assert freqs is None or (len(freqs) == 3 and all(type(f) is float for f in freqs))
    assert math.isfinite(result.aniso_ratio)


def variant(result, args):
    assert isinstance(result, tg.ScVariant) and isinstance(result.kind, tg.ModelKind)
    assert type(result.aniso_ratio) is float and 1.0 <= result.aniso_ratio < math.inf


def state(result, args):
    assert isinstance(result, tg.GasState) and isinstance(result.model, tg.ModelKind)
    numbers = (result.atoms, result.tau, result.x, result.n0, result.aniso_ratio)
    assert all(type(v) is float for v in numbers) and type(result.condensed) is bool


def units(result, args):
    assert isinstance(result, tg.ReducedUnits) and type(result.tau) is float
    assert finite(result.tau, result.temperature)


def error(result, args):
    assert isinstance(result, Exception)


#: name -> (valid values of each positional argument, check of the result)
SIGNATURES = {
    "ConvergenceError": ([["no root"]], error),
    "DomainError": ([["bad argument"]], error),
    "QuadratureError": ([["no accuracy"]], error),
    "TruncationError": ([["too many terms"]], error),
    "ModelKind": ([MODELS], lambda result, args: isinstance(result, tg.ModelKind)),
    "ReducedUnits": ([TAUS], units),
    "ScVariant": ([MODELS, [1.0, 1.3]], variant),
    "TrapSpec": ([[None, (1.0, 1.0, 2.0), ("1", "2", "3")]], trap),
    "GasState": ([MODELS, ATOMS, TAUS, [0.1, "0.5"], [1.0], [False, True, 1], [1.0, 1.2]], state),
    # Plain records: they store what they are given.
    "DensityProfile": ([GRIDS] * 5 + [[0, 1]] + [STATES], record(tg.DensityProfile, False)),
    "PeakReport": ([[1.0]] * 5, record(tg.PeakReport, False)),
    "HighNAsymptotics": ([[1.0]] * 4, record(tg.HighNAsymptotics, False)),
    "bose_g": ([list(tg.BOSE_ORDERS), [0.0, 0.3, 1.0]], number),
    "bose_g_small_x": ([list(tg.BOSE_ORDERS), [1e-6, 0.5, 1.0]], number),
    "zeta_const": ([[3.0, 1.5, -0.5]], number),
    "population_total": ([MODELS, [0.0, 0.01, 0.5], TAUS + [tg.ReducedUnits(0.2)], [1.0, 1.2]],
                         number),
    "saturated_population": ([MODELS, TAUS + [tg.ReducedUnits(0.2)], [1.0, 1.2]], number),
    "solve_fugacity": ([MODELS, ATOMS, TAUS, [None, tg.TrapSpec((1.0, 1.0, 2.0))], [None, 1.2]],
                       record(tg.GasState)),
    "transition_temperature": ([MODELS, ATOMS, [None, tg.TrapSpec((1.0, 2.0, 3.0))], [None]],
                               record(tg.ReducedUnits)),
    "density_ex": ([Z, TAUS, GRIDS], column(2)),
    "column_density_ex": ([Z, TAUS, [1, 2, 3], [0.0] + GRIDS], column(3)),
    "population_ex": ([Z, TAUS], number),
    "level_populations_ex": ([Z, TAUS, [0, 5, 40]], levels),
    "eigenfunction_oracle": ([Z, [0.5, 1.0], [0.0, 1.5], [10, 30]], number),
    "density_sc": ([VARIANTS, Z + [1.0], TAUS, GRIDS], column(3)),
    "population_sc": ([VARIANTS, Z + [1.0], TAUS], number),
    "condensate_fraction_sc": ([VARIANTS, ATOMS, [5.0, 12.0]], number),
    "high_n_asymptotics": ([ATOMS], record(tg.HighNAsymptotics)),
    "profile": ([STATES, [[0.0, 1.0, 2.0], np.linspace(0.0, 4.0, 5)], [0, 1, 2]],
                record(tg.DensityProfile)),
    "peak_report": ([STATES], record(tg.PeakReport)),
    "dip_height": ([STATES], number),
    "integrated_peak_fraction": ([STATES, [1, 2]], number),
    "density_moment": ([STATES, [2, 3]], number),
}


def test_table_covers_every_public_callable():
    public = {name for name in tg.__all__ if callable(getattr(tg, name))}
    assert set(SIGNATURES) == public


def argument(values):
    """One of ``values`` three times in four, otherwise a bad value.

    st.one_of drops a strategy it already holds, so the three are distinct.
    """
    return st.one_of(*(st.sampled_from(values) for _ in range(3)), BAD)


#: name -> the positional arguments
ARGUMENTS = {
    name: st.tuples(*map(argument, valid)) for name, (valid, _) in SIGNATURES.items()
}


# One example calls every callable, so 200 examples make 200 calls of each.
# Hypothesis costs about 1 ms per example (2-core VM): one example per call
# would pay that 34 times over.
@FUZZ
@seed(2005)
@given(calls=st.fixed_dictionaries(ARGUMENTS))
def test_public_callables_return_a_value_or_a_typed_error(calls):
    for name, args in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = getattr(tg, name)(*args)
            except TYPED:
                continue
        SIGNATURES[name][1](result, args)


OUT = "{out}"
BAD_NUMBERS = ["0", "-1", "nan", "inf", "1e308", "1e-300", "a", ""]
#: flag -> (valid values, bad values); an omitted flag counts as bad
OPTIONS = {
    "--model": (["ex", "sc", "sc0", "scinf", "ex,sc"], ["foo", ""]),
    "--atoms": (["1e3", "50", "2e4"], BAD_NUMBERS),
    "--aniso": (["1,1,2", "1,2,3"], ["1,2", "a,1,1", "nan,1,1", "1,1,1,1", ""]),
    "--temp": (["6", "12", "2.5"], BAD_NUMBERS),
    "--rmax": (["4", "10"], BAD_NUMBERS),
    "--points": (["2", "5"], ["0", "-1", "100001", "2.5", "a"]),
    "--dims": (["0", "1", "2"], ["3", "a"]),
    "--tmin": (["6", "9"], BAD_NUMBERS),
    "--tmax": (["10", "12"], BAD_NUMBERS),
    "--steps": (["2", "3"], ["0", "100001", "x"]),
    # Figures 1, 4 and 5 sweep 200 temperatures each: too slow for a fuzz.
    "--figure": (["2", "3", "6", "7"], ["0", "8", "a"]),
    "--out": ([OUT + "/out.csv", OUT], [OUT + "/missing/out.csv", OUT + "/out.csv/x"]),
}
COMMANDS = {
    "transition": ["--model", "--atoms", "--aniso", "--out"],
    "fugacity": ["--model", "--atoms", "--aniso", "--temp"],
    "degeneracy": ["--model", "--atoms", "--aniso"],
    "profile": ["--model", "--atoms", "--aniso", "--temp", "--rmax", "--points", "--dims",
                "--out"],
    "sweep": ["--model", "--atoms", "--tmin", "--tmax", "--steps", "--out"],
    "figure": ["--figure", "--out"],
}


@st.composite
def command_lines(draw):
    """A command and its options, each valid three times in four, then maybe a stray token."""
    command = draw(st.sampled_from([*COMMANDS, "--version", "bogus"]))
    argv = [command]
    for flag in COMMANDS.get(command, []):
        valid, bad = OPTIONS[flag]
        value = draw(st.one_of(*(st.sampled_from(valid) for _ in range(3)),
                               st.sampled_from([None, *bad])))
        if value is not None:
            argv += [flag, value]
    return argv + draw(st.sampled_from([[], [], [], [], ["--bogus"], ["x"]]))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """A scratch directory, and the working directory: ``figure`` writes there by default."""
    path = tmp_path_factory.mktemp("fuzz")
    cwd = os.getcwd()
    os.chdir(path)
    yield str(path)
    os.chdir(cwd)


@FUZZ
@seed(2005)
@given(argv=command_lines())
def test_cli_exits_with_a_documented_code(out_dir, argv):
    argv = [arg.replace(OUT, out_dir) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors, --version
                code = exc.code
    assert code in (0, 2, 3, 4), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
