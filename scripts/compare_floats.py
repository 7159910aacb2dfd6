#!/usr/bin/env python3
"""Compare this tree's kernels, observables, solves and figures with another copy's, bit for bit.

Usage: python scripts/compare_floats.py PARENT_SRC

PARENT_SRC is the ``src`` directory of the other copy (say, an unpacked
``git archive`` of the parent commit).  It is imported as the package
``trapgas_parent``, beside this tree's ``trapgas``.  Over a seeded set of EX
states, stratified in N (3 to 1e11) and T/T* (0.3 to 3), the script
compares:

- ``exact._excited_gauss_sum`` (d = 0..3, grids of 1 to 400 points, and
  saturated clouds, x = 0);
- ``exact._columns`` at s = 0 (d = 0, 1, 2), in batches of mixed states,
  against the other copy's scalar ``density_ex_x`` and
  ``column_density_ex_x``;
- ``exact._columns`` of families on grids: several atom numbers at one
  tau, mixed with states at other temperatures;
- the public EX observables of every state: ``observables.profile`` at
  d = 0, 1, 2 on a grid of 1 to 201 points out to 3 sqrt(2T) (all four
  components), ``dip_height``, ``density_moment`` at p = 2 and 3 and every
  field of ``peak_report``.  Both sides take this tree's solved states;
- ``exact._excited_gauss_sum`` (d = 0, 1, 2) on far grids of 2 to 400
  points, out to about 40 sqrt(T) near threshold, whose far ends lie
  where every head Gaussian e^{-a_l s^2} and e^{-s^2} underflow: in
  ascending order, and (drawn after every other part's inputs) reversed
  and shuffled;
- the semi-classical models SC, SC0 and SCINF at each state's N and
  T/T*, isotropic and in the traps (1, 1, 2) and (1, 2, 3), both sides
  taking this tree's solved states: ``column_density_sc_x`` at d = 0, 1, 2
  on a grid of 1 to 400 points and at a scalar s, every field of
  ``peak_report``, ``observables._at_origin`` at d = 0, 1, 2 and
  ``density_moment`` at p = 2 and 3.  A call that raises compares the
  name of its error class;
- the solves, each side solving for itself: ``transition_temperature``
  and ``solve_fugacity`` of all four models at each state's N and T/T*
  (SC and SC0 also in the traps (1, 1, 2) and (1, 2, 3)), and
  ``core._transition_many`` and ``core._solve_fugacity_many`` over
  batches of mixed N and T/T*, condensed SC0 and SCINF states among them:
  tau*, x, n0 and ``condensed`` of every state;
- the population kernels at each state's tau, at its x, at a second x
  drawn log-uniformly in [1e-9, 100] (after every other part's inputs)
  and at x = 0: ``core.population_total`` and ``core.saturated_population``
  of all four models, ``exact.excited_population_x``,
  ``exact.population_slope_ex_x`` and ``exact.saturated_slope_ex``, and
  ``semiclassical.population_slope_sc_x`` and
  ``semiclassical.saturated_slope_sc`` of SC, SC0 and SCINF (SC and SC0,
  with ``core``'s two, also in the traps (1, 1, 2) and (1, 2, 3)): values
  and slopes, or the name of the error class where x is not admissible;
- the figure recipes, each side building its own tables: every cell of
  the rows of all seven at their defaults, and of figures 1, 4 and 5 at
  N = 2, 1e3, 1e6 and 1e9 with a few temperatures (or the name of the
  error class a recipe raises).

The other copy's side uses only functions whose signatures are stable,
and takes its states as its own ``GasState`` records.
It prints, for each part, the values compared, the mismatches (values
whose bits differ, signed zeros too) and the worst distance in ulps, and
exits 1 on any mismatch.  The golden CSVs hold 9 digits; this is the
check on the last bits.
"""

import argparse
import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import trapgas as tg  # noqa: E402
from trapgas import core, exact, figures, observables, semiclassical  # noqa: E402
from trapgas.models import ModelKind  # noqa: E402

LOG_N_STRATA = [(0.5, 2.0), (2.0, 4.0), (4.0, 6.0), (6.0, 8.0), (8.0, 10.0), (10.0, 11.0)]
T_RATIO_STRATA = [(0.3, 0.9), (0.9, 0.99), (0.99, 1.01), (1.01, 1.1), (1.1, 3.0)]
PER_STRATUM = 34  # states per (N, T/T*) stratum: 1,020 in all
SEED = 2005
PEAK_FIELDS = ("rho0_peak", "rho_total_peak", "degeneracy_parameter", "n0_fraction",
               "peak_fraction")
#: Atom numbers and temperature points of the extra tables of figures 1, 4 and 5.
FIGURE_ATOMS = (2.0, 1e3, 1e6, 1e9)
FIGURE_POINTS = 9
#: Anisotropy ratios of the traps (1, 1, 2) and (1, 2, 3).
TRAP_RATIOS = tuple(tg.TrapSpec(f).aniso_ratio for f in ((1.0, 1.0, 2.0), (1.0, 2.0, 3.0)))


def load_parent(src: Path):
    """The exact, observables, core, semiclassical and figures modules of ``src``/trapgas.

    The package is imported as ``trapgas_parent``.
    """
    init = src / "trapgas" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "trapgas_parent", init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["trapgas_parent"] = module
    spec.loader.exec_module(module)
    return tuple(
        importlib.import_module(f"trapgas_parent.{m}")
        for m in ("exact", "observables", "core", "semiclassical", "figures")
    )


def strata_draws(rng):
    """(N, T/T*) pairs drawn log-uniformly within each stratum."""
    draws = []
    for lo, hi in LOG_N_STRATA:
        for t_lo, t_hi in T_RATIO_STRATA:
            for _ in range(PER_STRATUM):
                atoms = round(10.0 ** rng.uniform(lo, hi))
                draws.append((atoms, math.exp(rng.uniform(math.log(t_lo), math.log(t_hi)))))
    return draws


def strata_states(draws):
    """The solved EX state at each (N, T/T*) pair."""
    states = []
    for atoms, ratio in draws:
        tau = tg.transition_temperature(ModelKind.EX, atoms).tau / ratio
        states.append(tg.solve_fugacity(ModelKind.EX, atoms, tau))
    return states


def solved(module, model, draws, trap=None) -> list:
    """One copy's T* and fugacity solves of ``model`` at each (N, T/T*) pair.

    ``module`` is that copy's ``core``.  The temperatures come from this
    tree's T*, so both copies solve at the same tau; each returns tau*, x,
    n0 and ``condensed`` per pair.
    """
    own_trap = None if trap is None else module.TrapSpec(trap.frequencies)
    values = []
    for atoms, ratio in draws:
        tau = tg.transition_temperature(model, atoms, trap).tau / ratio
        state = module.solve_fugacity(model.value, atoms, tau, own_trap)
        tau_star = module.transition_temperature(model.value, atoms, own_trap).tau
        values.append([tau_star, state.x, state.n0, float(state.condensed)])
    return values


def batch_solved(module, model, batch) -> list:
    """One copy's batched T* and fugacity solves of ``model`` over ``batch``'s pairs."""
    atoms = [a for a, _ in batch]
    taus = [tg.transition_temperature(model, a).tau / r for a, r in batch]
    states = module._solve_fugacity_many(model.value, atoms, taus)
    tau_star = module._transition_many(model.value, atoms).tolist()
    return [[t, s.x, s.n0, float(s.condensed)] for t, s in zip(tau_star, states)]


def grid(rng, tau: float) -> np.ndarray:
    """An ascending grid of 1 to 400 points out to a few thermal radii."""
    points = int(rng.integers(1, 401))
    far = max(4.0 * math.sqrt(2.0 / tau), 8.0)
    return np.linspace(0.0, far * rng.uniform(0.2, 1.0), points)


def far_grid(rng, tau: float) -> np.ndarray:
    """An ascending grid of 2 to 400 points past where a_1 s^2 = 800 (a_1 = tanh(tau/2)).

    Every head row has a_l >= a_1 and a_1 <= 1, so there e^{-a_l s^2} and
    e^{-s^2} underflow; for small tau the grid ends near 40 sqrt(T).
    """
    far = math.sqrt(800.0 / math.tanh(0.5 * tau)) * rng.uniform(1.0, 1.2)
    return np.linspace(0.0, far, int(rng.integers(2, 401)))


def own_state(core_module, state):
    """``state`` as a ``GasState`` of the copy whose ``core`` is ``core_module``."""
    fields = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
    return core_module.GasState(**fields)


def observed(module, state, grid) -> list:
    """The EX observables of ``state`` from one copy's ``observables`` module."""
    values = []
    for d in (0, 1, 2):
        prof = module.profile(state, grid, d)
        values += [prof.total, prof.ground, prof.first_excited, prof.other_excited]
    values.append([module.dip_height(state), *(module.density_moment(state, p) for p in (2, 3))])
    report = module.peak_report(state)
    values.append([getattr(report, name) for name in PEAK_FIELDS])
    return values


def outcome(fn):
    """fn()'s floats, or the name of the error class it raises.

    Each copy has its own typed errors; they derive from ValueError and RuntimeError.
    """
    try:
        return np.asarray(fn(), dtype=float)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def semiclassical_values(sc, obs, state, cloud, s) -> list:
    """The semi-classical columns and observables of ``state`` from one copy's modules."""
    variant = sc.ScVariant(state.model, state.aniso_ratio)
    values = []
    for d in (0, 1, 2):
        for where in (cloud, s):
            values.append(outcome(lambda: sc.column_density_sc_x(variant, state.x, state.tau,
                                                                   d, where)))
    values.append(outcome(lambda: [getattr(obs.peak_report(state), f) for f in PEAK_FIELDS]))
    values.append(outcome(lambda: [getattr(r, f) for r in obs._at_origin([state], (0,))[0]
                                   for f in PEAK_FIELDS]))
    values.append(outcome(lambda: obs._at_origin([state], (1, 2))))
    values += [outcome(lambda: obs.density_moment(state, p)) for p in (2, 3)]
    return values


def population_values(core_module, ex, sc, xs, tau) -> list:
    """One copy's population kernels at tau and each x of ``xs``, from its modules."""
    values = [outcome(lambda: ex.saturated_slope_ex(tau))]
    for x in xs:
        values.append(outcome(lambda: ex.excited_population_x(x, tau)))
        values.append(outcome(lambda: ex.population_slope_ex_x(x, tau)))
    for model in ModelKind:
        ratios = (1.0,) if model in (ModelKind.EX, ModelKind.SCINF) else (1.0, *TRAP_RATIOS)
        for ratio in ratios:
            values.append(outcome(lambda: core_module.saturated_population(model.value, tau,
                                                                           ratio)))
            values += [outcome(lambda: core_module.population_total(model.value, x, tau, ratio))
                       for x in xs]
            if model == ModelKind.EX:
                continue
            variant = sc.ScVariant(model.value, ratio)
            values.append(outcome(lambda: sc.saturated_slope_sc(variant, tau)))
            values += [outcome(lambda: sc.population_slope_sc_x(variant, x, tau)) for x in xs]
    return values


def figure_cells(module) -> list:
    """The rows of one copy's figure tables, from its ``figures`` module."""
    values = [outcome(lambda: module.make_figure(k).rows) for k in range(1, 8)]
    for atoms in FIGURE_ATOMS:
        for recipe in (module.figure1, module.figure4, module.figure5):
            values.append(outcome(lambda: recipe(atoms, FIGURE_POINTS).rows))
    return values


def ulps(a, b) -> np.ndarray:
    """Distance in representable floats between a and b, elementwise."""
    ordered = []
    for v in (a, b):
        i = np.asarray(v, dtype=float).view(np.int64)
        ordered.append(np.where(i < 0, np.iinfo(np.int64).min - i, i))
    return np.abs(ordered[0] - ordered[1])


class Tally:
    def __init__(self):
        self.values, self.mismatches, self.worst = 0, 0, 0

    def add(self, got, ref):
        if isinstance(got, str) or isinstance(ref, str):  # an error class's name
            self.values += 1
            self.mismatches += not (isinstance(got, str) and got == ref)
            return
        got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
        distance = ulps(got, ref)
        self.values += distance.size
        # Bit patterns, so that -0.0 against +0.0 (0 ulp apart) is a mismatch too.
        self.mismatches += int(np.count_nonzero(got.view(np.int64) != ref.view(np.int64)))
        self.worst = max(self.worst, int(distance.max(initial=0)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the other copy")
    args = parser.parse_args(argv)
    parent, parent_observables, parent_core, parent_sc, parent_figures = load_parent(
        args.parent_src
    )
    rng = np.random.default_rng(SEED)
    draws = strata_draws(rng)
    states = strata_states(draws)
    tallies = {name: Tally() for name in ("scalar grids", "origins", "families", "observables",
                                        "far grids", "semiclassical", "solves", "populations",
                                        "figures")}

    for state in states:
        x, tau = state.x, state.tau
        for v in (x, 0.0):
            for d in (0, 1, 2, 3):
                s = 0.0 if d == 3 else grid(rng, tau)
                tallies["scalar grids"].add(
                    exact._excited_gauss_sum(v, tau, d, s), parent._excited_gauss_sum(v, tau, d, s)
                )

    order = rng.permutation(len(states)).tolist()
    for start in range(0, len(order), 25):
        batch = [states[i] for i in order[start:start + 25]]
        xs, taus = [s.x for s in batch], [s.tau for s in batch]
        got = exact._columns(xs, taus, (0, 1, 2), 0.0)[:, :, 0]
        ref = [[parent.density_ex_x(x, tau, 0.0) for x, tau in zip(xs, taus)]]
        ref += [[parent.column_density_ex_x(x, tau, d, 0.0) for x, tau in zip(xs, taus)]
                for d in (1, 2)]
        tallies["origins"].add(got, ref)

    for start in range(0, len(order), 40):
        tau = states[order[start]].tau
        shared = [tg.solve_fugacity(ModelKind.EX, 10.0 ** rng.uniform(0.5, 11.0), tau)
                  for _ in range(int(rng.integers(1, 9)))]
        others = [states[i] for i in order[start + 1:start + 1 + int(rng.integers(0, 5))]]
        xs = [s.x for s in shared + others]
        taus = [s.tau for s in shared + others]
        s = grid(rng, tau)
        got = exact._columns(xs, taus, (0, 1, 2), s)
        ref = [[parent.density_ex_x(x, t, s) for x, t in zip(xs, taus)]]
        ref += [[parent.column_density_ex_x(x, t, d, s) for x, t in zip(xs, taus)]
                for d in (1, 2)]
        tallies["families"].add(got, ref)

    for state in states:
        cloud = np.linspace(0.0, 3.0 * math.sqrt(2.0 / state.tau), int(rng.integers(1, 202)))
        got = observed(observables, state, cloud)
        ref = observed(parent_observables, own_state(parent_core, state), cloud)
        for a, b in zip(got, ref):
            tallies["observables"].add(a, b)

    for state in states:
        for d in (0, 1, 2):
            s = far_grid(rng, state.tau)
            tallies["far grids"].add(exact._excited_gauss_sum(state.x, state.tau, d, s),
                                     parent._excited_gauss_sum(state.x, state.tau, d, s))

    for model in (ModelKind.SC, ModelKind.SC0, ModelKind.SCINF):
        for trap in (None, tg.TrapSpec((1.0, 1.0, 2.0)), tg.TrapSpec((1.0, 2.0, 3.0))):
            for atoms, ratio in draws:
                tau = tg.transition_temperature(model, atoms, trap).tau / ratio
                state = tg.solve_fugacity(model, atoms, tau, trap)
                cloud = grid(rng, tau)
                s = float(rng.uniform(0.0, 3.0 * math.sqrt(2.0 / tau)))
                got = semiclassical_values(semiclassical, observables, state, cloud, s)
                ref = semiclassical_values(parent_sc, parent_observables,
                                           own_state(parent_core, state), cloud, s)
                for a, b in zip(got, ref):
                    tallies["semiclassical"].add(a, b)

    for model in ModelKind:
        traps = [None]
        if model in (ModelKind.SC, ModelKind.SC0):
            traps += [tg.TrapSpec((1.0, 1.0, 2.0)), tg.TrapSpec((1.0, 2.0, 3.0))]
        for trap in traps:
            tallies["solves"].add(solved(core, model, draws, trap),
                                  solved(parent_core, model, draws, trap))
        pairs = [draws[i] for i in rng.permutation(len(draws)).tolist()]
        for start in range(0, len(pairs), 25):
            batch = pairs[start:start + 25]
            tallies["solves"].add(batch_solved(core, model, batch),
                                  batch_solved(parent_core, model, batch))

    # Drawn after the other parts' inputs, so that each of those stays the same.
    for state in states:
        for d in (0, 1, 2):
            for s in (far_grid(rng, state.tau)[::-1], rng.permutation(far_grid(rng, state.tau))):
                tallies["far grids"].add(exact._excited_gauss_sum(state.x, state.tau, d, s),
                                         parent._excited_gauss_sum(state.x, state.tau, d, s))

    for state in states:
        xs = (state.x, 10.0 ** rng.uniform(-9.0, 2.0), 0.0)
        got = population_values(core, exact, semiclassical, xs, state.tau)
        ref = population_values(parent_core, parent, parent_sc, xs, state.tau)
        for a, b in zip(got, ref):
            tallies["populations"].add(a, b)

    for a, b in zip(figure_cells(figures), figure_cells(parent_figures)):
        tallies["figures"].add(a, b)

    print(f"{len(states)} states (seed {SEED}), against {args.parent_src}")
    for name, tally in tallies.items():
        print(f"{name}: {tally.values} values, {tally.mismatches} mismatches, "
              f"worst {tally.worst} ulp")
    return 1 if any(t.mismatches for t in tallies.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
