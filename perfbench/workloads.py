"""The benchmark workloads: seeded inputs, the timed operation, checks.

Each workload is a closed loop with one client: ``inputs(seed)`` draws the
operation list from the seed alone, ``run(op)`` is the timed call into the
package's public API, ``collect(op, raw)`` turns its raw result into the
output to check, and ``check(op, out)`` returns the problems found in that
output (an empty list when it is correct).  Only ``run`` is timed.

Seeded parameters are drawn by stratified sampling: the range is cut into
one slice per operation and the seed places each draw near the middle of
its slice, so every seed gets the same mix of heavy and light operations
and nearly the same total work.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

# Package functions are called through their modules so that the tracer,
# which rebinds module attributes, sees every call.
from trapgas import cli, core, figures, observables
from trapgas.models import ModelKind

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

#: Documented columns of the figures that have no golden file.
FIGURE_COLUMNS = {
    1: ["T", "N0_frac_ex", "N0_frac_sc", "N0_frac_sc0", "N0_frac_scinf"],
    4: ["T", "N0_frac_ex", "peak_frac_ex", "N0_frac_sc", "peak_frac_sc"],
    5: ["T", "N0_frac_ex", "peak_frac_ex", "N0_frac_sc", "peak_frac_sc"],
}
GOLDEN_FIGURES = (2, 3, 6, 7)


#: Share of its slice over which the seed moves a stratified draw.  Near T*
#: the cost of an EX state changes steeply with N and T: draws spread over
#: whole slices made the work of an EX pass differ by about 10% between seeds.
JITTER = 0.25


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One draw in the middle ``JITTER`` of each of ``count`` slices of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + (i + 0.5 + JITTER * (rng.random() - 0.5)) * width for i in range(count)]


def _cloud_grid(temperature: float, points: int) -> np.ndarray:
    """Grid out to three thermal radii sqrt(2T) (trap units)."""
    return np.linspace(0.0, 3.0 * math.sqrt(2.0 * temperature), points)


def _profile_problems(prof, label: str) -> list[str]:
    parts = (prof.total, prof.ground, prof.first_excited, prof.other_excited)
    scale = float(np.max(np.abs(prof.total)))
    problems = []
    if not all(np.all(np.isfinite(p)) for p in parts):
        return [f"{label}: profile is not finite"]
    if any(np.any(p < -1e-12 * scale) for p in parts):
        problems.append(f"{label}: profile component is negative")
    parts_sum = prof.ground + prof.first_excited + prof.other_excited
    if np.any(np.abs(parts_sum - prof.total) > 1e-12 * scale):
        problems.append(f"{label}: components do not sum to the total")
    return problems


def _positive_finite(value: float, label: str, allow_zero: bool = False) -> list[str]:
    ok = math.isfinite(value) and (value >= 0.0 if allow_zero else value > 0.0)
    return [] if ok else [f"{label}: {value!r} is not a finite positive number"]


def _population_problems(state, label: str) -> list[str]:
    pop = core.population_total(state.model, state.x, state.tau, state.aniso_ratio)
    if abs(pop - state.atoms) > 1e-10 * state.atoms:
        return [f"{label}: population residual {pop - state.atoms:.3e}"]
    return []


class Workload:
    """Defaults shared by the workloads; ``workdir`` holds their scratch files."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def warm_up(self) -> None:
        """One-time work before the first timed operation (part of set-up)."""

    def collect(self, op: dict, raw):
        return raw


class Figures(Workload):
    """All seven figure recipes, one ``trapgas figure`` command per operation.

    The command runs in-process through ``cli.main``, so the argparse and
    CSV-writing path of the ``cli`` layer is timed with the recipe.
    """

    def warm_up(self) -> None:
        figures.figure2(n_grid=[1e2]).to_csv()

    def inputs(self, seed: int) -> list[dict]:
        order = list(range(1, 8))
        random.Random(seed).shuffle(order)
        return [{"figure": k} for k in order]

    def run(self, op: dict) -> int:
        argv = ["figure", "--figure", str(op["figure"]), "--out", str(self.workdir)]
        return cli.main(argv)

    def collect(self, op: dict, raw: int) -> str:
        if raw != 0:
            raise RuntimeError(f"trapgas figure exited with {raw}")
        # Removed once read, so a later pass cannot pass off a stale file.
        path = self.workdir / f"fig{op['figure']}.csv"
        out = path.read_text(encoding="ascii")
        path.unlink()
        return out

    def check(self, op: dict, out: str) -> list[str]:
        k = op["figure"]
        if k in GOLDEN_FIGURES:
            golden = (GOLDEN_DIR / f"fig{k}.csv").read_text(encoding="ascii")
            return [] if out == golden else [f"fig{k}: CSV differs from golden"]
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        if not lines or lines[0].split(",") != FIGURE_COLUMNS[k]:
            return [f"fig{k}: header is not {FIGURE_COLUMNS[k]}"]
        rows = lines[1:]
        if len(rows) != 200:
            return [f"fig{k}: {len(rows)} rows, expected 200"]
        for row in rows:
            cells = [float(c) for c in row.split(",")]
            if len(cells) != len(FIGURE_COLUMNS[k]) or not all(
                math.isfinite(c) for c in cells
            ):
                return [f"fig{k}: row {row!r} is not finite"]
            if not all(0.0 <= c <= 1.0 for c in cells[1:]):
                return [f"fig{k}: fraction outside [0, 1] in {row!r}"]
        return []


class ExThreshold(Workload):
    """Exact-model states near threshold: T* solve, fugacity, profiles, dip, moment."""

    STATES = 11
    POINTS = 201
    # Strata of T/T* paired with the strata of log10 N (ascending), fixed so
    # that every seed has the same mix: five heavy states below threshold
    # spread over N, five light ones above it, and the stratum straddling
    # T* (where the cost falls steeply with T) at the smallest N, where the
    # cost hardly depends on T.  The seed moves each state near the middle
    # of its cell.
    T_STRATUM_OF_N_STRATUM = (5, 6, 0, 7, 1, 8, 2, 9, 3, 10, 4)

    def warm_up(self) -> None:
        self.run({"atoms": 1e3, "t_ratio": 1.0, "points": 5})

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        log_n = _strata(rng, self.STATES, 6.0, 10.0)
        ratios = _strata(rng, self.STATES, 0.98, 1.02)
        return [
            {
                "atoms": 10.0**lg,
                "t_ratio": ratios[self.T_STRATUM_OF_N_STRATUM[i]],
                "points": self.POINTS,
            }
            for i, lg in enumerate(log_n)
        ]

    def run(self, op: dict) -> dict:
        atoms = op["atoms"]
        t_star = core.transition_temperature(ModelKind.EX, atoms).temperature
        temperature = op["t_ratio"] * t_star
        state = core.solve_fugacity(
            ModelKind.EX, atoms, core.ReducedUnits.from_temperature(temperature)
        )
        grid = _cloud_grid(temperature, op["points"])
        return {
            "state": state,
            "profiles": [observables.profile(state, grid, d) for d in (0, 1, 2)],
            "dip": observables.dip_height(state),
            "moment": observables.density_moment(state, 2),
        }

    def check(self, op: dict, out: dict) -> list[str]:
        label = f"ex N={op['atoms']:.4g} T/T*={op['t_ratio']:.4f}"
        problems = _population_problems(out["state"], label)
        for d, prof in enumerate(out["profiles"]):
            problems += _profile_problems(prof, f"{label} dims={d}")
        problems += _positive_finite(out["dip"], f"{label} dip", allow_zero=True)
        problems += _positive_finite(out["moment"], f"{label} moment")
        return problems


class ScColumns(Workload):
    """Semi-classical states above threshold: solves, column profiles, moments."""

    MODELS = (ModelKind.SC, ModelKind.SC0, ModelKind.SCINF)
    TRAPS = (None, (1.0, 1.0, 2.0), (1.0, 2.0, 3.0))
    POINTS = 41

    def warm_up(self) -> None:
        self.run({"model": "sc", "trap": None, "atoms": 1e2, "t_ratio": 1.2, "points": 3})

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        cells = [(m, t) for t in self.TRAPS for m in self.MODELS]
        log_n = _strata(rng, len(cells), 3.0, 8.0)
        ratios = _strata(rng, len(cells), 1.05, 1.5)
        rng.shuffle(ratios)
        return [
            {
                "model": model.value,
                "trap": trap,
                "atoms": 10.0**lg,
                "t_ratio": ratio,
                "points": self.POINTS,
            }
            for (model, trap), lg, ratio in zip(cells, log_n, ratios)
        ]

    def run(self, op: dict) -> dict:
        model = ModelKind(op["model"])
        trap = core.TrapSpec(frequencies=op["trap"]) if op["trap"] else None
        t_star = core.transition_temperature(model, op["atoms"], trap=trap).temperature
        temperature = op["t_ratio"] * t_star
        state = core.solve_fugacity(
            model, op["atoms"], core.ReducedUnits.from_temperature(temperature), trap=trap
        )
        grid = _cloud_grid(temperature, op["points"])
        return {
            "state": state,
            "profiles": [observables.profile(state, grid, d) for d in (1, 2)],
            "moments": [observables.density_moment(state, p) for p in (2, 3)],
        }

    def check(self, op: dict, out: dict) -> list[str]:
        import mpmath

        state = out["state"]
        label = f"{op['model']} N={op['atoms']:.4g} trap={op['trap']}"
        problems = _population_problems(state, label)
        tau, ratio = state.tau, state.aniso_ratio
        lam3 = (2.0 * math.pi * tau) ** 1.5
        z = mpmath.exp(-mpmath.mpf(state.x))
        finite_size = 0.0 if state.model == ModelKind.SCINF else 1.5 * tau * ratio
        for d, prof in zip((1, 2), out["profiles"]):
            problems += _profile_problems(prof, f"{label} dims={d}")
            closed = (2.0 * math.pi / tau) ** (0.5 * d) * (
                float(mpmath.polylog(1.5 + 0.5 * d, z))
                + finite_size * float(mpmath.polylog(0.5 + 0.5 * d, z))
            ) / lam3
            if state.model == ModelKind.SC:
                closed += state.n0 * math.pi ** (0.5 * d) / math.pi**1.5
            if abs(prof.total[0] / closed - 1.0) > 1e-7:
                problems.append(
                    f"{label} dims={d}: column at s=0 is {prof.total[0]!r}, "
                    f"closed form {closed!r}"
                )
        split = core.population_total(
            ModelKind.SC, state.x, tau, ratio
        ) - core.population_total(ModelKind.SC0, state.x, tau, ratio)
        ground = 1.0 / math.expm1(state.x)
        if abs(split - ground) > 1e-12 * state.atoms + 1e-12 * ground:
            problems.append(f"{label}: N_sc - N_sc0 = {split!r}, z/(1-z) = {ground!r}")
        for p, moment in zip((2, 3), out["moments"]):
            problems += _positive_finite(moment, f"{label} moment p={p}")
        return problems


class Threshold(Workload):
    """The ``ExThreshold`` states, then the ``ScColumns`` states, in one pass.

    One workload instead of two halves the number of benchmark runs, so
    each run can measure twice as long on a host whose speed drifts.
    """

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.parts = {"ex": ExThreshold(workdir), "sc": ScColumns(workdir)}

    def warm_up(self) -> None:
        for part in self.parts.values():
            part.warm_up()

    def inputs(self, seed: int) -> list[dict]:
        return [
            dict(op, part=name)
            for name, part in self.parts.items()
            for op in part.inputs(seed)
        ]

    def run(self, op: dict) -> dict:
        return self.parts[op["part"]].run(op)

    def check(self, op: dict, out: dict) -> list[str]:
        return self.parts[op["part"]].check(op, out)


WORKLOADS = {
    "figures": Figures,
    "threshold": Threshold,
}
