"""Command-line front end.

Commands: transition, fugacity, profile, sweep, figure, degeneracy.
All I/O is in trap units (temperatures in hbar omega / k_B, lengths in
sigma, densities in sigma^-3).  Exit codes: 0 success, 2 domain error or
bad arguments, 3 convergence failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__, figures, observables
from .core import ReducedUnits, TrapSpec, solve_fugacity, transition_temperature
from .errors import ConvergenceError, DomainError, QuadratureError, TruncationError
from .exact import REL_TOL
from .models import ModelKind, _check_points, check_positive
from .tables import SweepTable, meta


def _parse_models(text: str) -> tuple[ModelKind, ...]:
    return tuple(ModelKind(tag.strip()) for tag in text.split(","))


def _parse_aniso(text: str | None) -> TrapSpec:
    if text is None:
        return TrapSpec()
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError("--aniso needs three comma-separated frequencies")
    try:
        freqs = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"bad --aniso value {text!r}") from exc
    return TrapSpec(frequencies=freqs)


def cmd_transition(args) -> int:
    trap = _parse_aniso(args.aniso)
    model = ModelKind(args.model)
    units = transition_temperature(model, args.atoms, trap=trap)
    print(f"T*={units.temperature:.6g}")
    if args.out is not None:
        table = SweepTable(
            ["atoms", "tau_star", "T_star"],
            meta(command="transition", model=model.value),
        )
        table.add_row(args.atoms, units.tau, units.temperature)
        table.write_csv(args.out)
    return 0


def cmd_fugacity(args) -> int:
    trap = _parse_aniso(args.aniso)
    model = ModelKind(args.model)
    units = ReducedUnits.from_temperature(args.temp)
    state = solve_fugacity(model, args.atoms, units, trap=trap)
    print(f"z={state.z:.12g}")
    print(f"x={state.x:.12g}")
    print(f"N0={state.n0:.10g}")
    print(f"condensed={'yes' if state.condensed else 'no'}")
    return 0


def cmd_degeneracy(args) -> int:
    trap = _parse_aniso(args.aniso)
    model = ModelKind(args.model)
    if model == ModelKind.SC0:
        raise DomainError("sc0 peak density at T* is set by rounding: g_{1/2} diverges")
    units = transition_temperature(model, args.atoms, trap=trap)
    state = solve_fugacity(model, args.atoms, units, trap=trap)
    report = observables.peak_report(state)
    print(f"rho0_lambda3={report.degeneracy_parameter:.6g}")
    return 0


def cmd_profile(args) -> int:
    trap = _parse_aniso(args.aniso)
    model = ModelKind(args.model)
    _check_points(args.points, "--points")
    check_positive("--rmax", args.rmax)
    units = ReducedUnits.from_temperature(args.temp)
    state = solve_fugacity(model, args.atoms, units, trap=trap)
    grid = np.linspace(0.0, args.rmax, args.points)
    prof = observables.profile(state, grid, args.dims)
    table = SweepTable(
        ["r_over_sigma", "total", "ground", "first_excited", "other_excited"],
        meta(
            command="profile",
            model=model.value,
            atoms=args.atoms,
            temperature=args.temp,
            dims_integrated=args.dims,
        ),
    )
    for row in zip(grid, prof.total, prof.ground, prof.first_excited, prof.other_excited):
        table.add_row(*row)
    table.write_csv(args.out)
    return 0


def cmd_sweep(args) -> int:
    models = _parse_models(args.model)
    check_positive("atom number", args.atoms)
    _check_points(args.steps, "--steps")
    t_min = check_positive("--tmin", args.tmin)
    t_max = check_positive("--tmax", args.tmax)
    if not t_min < t_max:
        raise DomainError("empty sweep range: need t-min < t-max")
    metadata = meta(
        command="sweep",
        models=",".join(m.value for m in models),
        atoms=args.atoms,
        rel_tol=REL_TOL,
    )

    def warn(model, t, exc):
        print(f"warning: {model.value} failed at T={t:g}: {exc}", file=sys.stderr)

    temperatures = np.linspace(t_min, t_max, args.steps)
    figures._fraction_sweep(models, args.atoms, temperatures, metadata, warn).write_csv(args.out)
    return 0


def cmd_figure(args) -> int:
    table = figures.make_figure(args.figure)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table.write_csv(out_dir / f"fig{args.figure}.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapgas",
        description="Ideal Bose gas in an isotropic harmonic trap "
        "(exact level sums and semi-classical approximations).",
    )
    parser.add_argument("--version", action="version", version=f"trapgas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, temp=False):
        p.add_argument("--model", default="ex", help="ex|sc|sc0|scinf")
        p.add_argument("--atoms", type=float, required=True, help="atom number N")
        p.add_argument("--aniso", default=None, metavar="WX,WY,WZ",
                       help="anisotropic trap frequencies")
        if temp:
            p.add_argument("--temp", type=float, required=True,
                           help="temperature in hbar*omega/k_B")

    p = sub.add_parser("transition", help="transition temperature T*")
    common(p)
    p.add_argument("--out", default=None, help="optional CSV output path")

    p = sub.add_parser("fugacity", help="solve z at fixed N and T")
    common(p, temp=True)

    p = sub.add_parser("degeneracy", help="threshold degeneracy parameter")
    common(p)

    p = sub.add_parser("profile", help="decomposed density profile CSV")
    common(p, temp=True)
    p.add_argument("--rmax", type=float, default=10.0, help="grid end in sigma")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--dims", type=int, choices=(0, 1, 2), default=0,
                   help="number of integrated axes")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("sweep", help="temperature sweep of fractions")
    p.add_argument("--model", default="ex", help="comma list of model tags")
    p.add_argument("--atoms", type=float, required=True)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("figure", help="emit a pinned figure data set")
    p.add_argument("--figure", type=int, required=True, help="figure id 1..7")
    p.add_argument("--out", default=".", help="output directory")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up per call, so it can be replaced
    try:
        return command(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, TruncationError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
