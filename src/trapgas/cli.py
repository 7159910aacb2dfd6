"""Command-line front end.

Commands: transition, fugacity, profile, sweep, figure, degeneracy.
All I/O is in trap units (temperatures in hbar omega / k_B, lengths in
sigma, densities in sigma^-3).  Exit codes: 0 success, 2 domain error or
bad arguments, 3 convergence failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, figures, observables
from .core import ReducedUnits, TrapSpec, solve_fugacity, transition_temperature
from .errors import ConvergenceError, DomainError, QuadratureError, TruncationError
from .exact import DEFAULT_CONTROL, LSumControl
from .models import ModelKind, check_positive
from .tables import SweepTable, meta

#: Largest admissible profile grid.
MAX_POINTS = 100_000


def _parse_models(text: str) -> tuple[ModelKind, ...]:
    try:
        return tuple(ModelKind(tag.strip()) for tag in text.split(","))
    except ValueError as exc:
        raise DomainError(f"unknown model tag in {text!r}") from exc


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


def _control(args) -> LSumControl:
    if getattr(args, "tol", None) is None:
        return DEFAULT_CONTROL
    return LSumControl(rel_tol=args.tol)


def cmd_transition(args) -> int:
    trap = _parse_aniso(args.aniso)
    model = ModelKind(args.model)
    units = transition_temperature(model, args.atoms, trap=trap, control=_control(args))
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
    state = solve_fugacity(model, args.atoms, units, trap=trap, control=_control(args))
    print(f"z={state.z:.12g}")
    print(f"x={state.x:.12g}")
    print(f"N0={state.n0:.10g}")
    print(f"condensed={'yes' if state.condensed else 'no'}")
    return 0


def cmd_degeneracy(args) -> int:
    trap = _parse_aniso(args.aniso)
    model = ModelKind(args.model)
    control = _control(args)
    units = transition_temperature(model, args.atoms, trap=trap, control=control)
    state = solve_fugacity(
        model, args.atoms, units, trap=trap, control=control
    )
    report = observables.peak_report(state, control)
    print(f"rho0_lambda3={report.degeneracy_parameter:.6g}")
    return 0


def cmd_profile(args) -> int:
    trap = _parse_aniso(args.aniso)
    model = ModelKind(args.model)
    if not 2 <= args.points <= MAX_POINTS:
        raise DomainError(f"--points must lie in [2, {MAX_POINTS}]")
    check_positive("--rmax", args.rmax)
    control = _control(args)
    units = ReducedUnits.from_temperature(args.temp)
    state = solve_fugacity(model, args.atoms, units, trap=trap, control=control)
    grid = np.linspace(0.0, args.rmax, args.points)
    prof = observables.profile(state, grid, args.dims, control)
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
    for i in range(grid.size):
        table.add_row(
            grid[i],
            prof.total[i],
            prof.ground[i],
            prof.first_excited[i],
            prof.other_excited[i],
        )
    table.write_csv(args.out)
    return 0


def cmd_sweep(args) -> int:
    models = _parse_models(args.model)
    check_positive("atom number", args.atoms)
    if args.steps < 2:
        raise DomainError("a sweep needs at least 2 steps")
    t_min = check_positive("--tmin", args.tmin)
    t_max = check_positive("--tmax", args.tmax)
    if not t_min < t_max:
        raise DomainError("empty sweep range: need t-min < t-max")
    control = _control(args)
    columns = ["T"]
    for model in models:
        columns += [f"N0_frac_{model.value}", f"peak_frac_{model.value}"]
    table = SweepTable(
        columns,
        meta(
            command="sweep",
            models=",".join(m.value for m in models),
            atoms=args.atoms,
            rel_tol=control.rel_tol,
        ),
    )
    for t in np.linspace(t_min, t_max, args.steps):
        cells: list = [t]
        for model in models:
            try:
                state = solve_fugacity(
                    model, args.atoms, ReducedUnits.from_temperature(t), control=control
                )
                report = observables.peak_report(state, control)
                cells += [report.n0_fraction, report.peak_fraction]
            except (DomainError, ConvergenceError, TruncationError) as exc:
                print(
                    f"warning: {model.value} failed at T={t:g}: {exc}",
                    file=sys.stderr,
                )
                cells += [None, None]
        table.add_row(*cells)
    table.write_csv(args.out)
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
        p.add_argument("--tol", type=float, default=None,
                       help="level-sum relative truncation tolerance")
        if temp:
            p.add_argument("--temp", type=float, required=True,
                           help="temperature in hbar*omega/k_B")

    p = sub.add_parser("transition", help="transition temperature T*")
    common(p)
    p.add_argument("--out", default=None, help="optional CSV output path")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("fugacity", help="solve z at fixed N and T")
    common(p, temp=True)
    p.set_defaults(func=cmd_fugacity)

    p = sub.add_parser("degeneracy", help="threshold degeneracy parameter")
    common(p)
    p.set_defaults(func=cmd_degeneracy)

    p = sub.add_parser("profile", help="decomposed density profile CSV")
    common(p, temp=True)
    p.add_argument("--rmax", type=float, default=10.0, help="grid end in sigma")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--dims", type=int, choices=(0, 1, 2), default=0,
                   help="number of integrated axes")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("sweep", help="temperature sweep of fractions")
    p.add_argument("--model", default="ex", help="comma list of model tags")
    p.add_argument("--atoms", type=float, required=True)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="emit a pinned figure data set")
    p.add_argument("--figure", type=int, required=True, help="figure id 1..7")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
