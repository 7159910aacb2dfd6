"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``trapgas`` module from the
outside (the package itself is not modified).  Every call becomes a span
``[name, start, end, parent, size]`` kept in memory; ``size`` carries the
grid length, the profile's integrated dimensions or the number of function
evaluations, depending on the span.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from pathlib import Path

#: The ``src/trapgas`` modules that do work (``models`` and ``errors`` do none).
LAYERS = (
    "bose",
    "exact",
    "semiclassical",
    "roots",
    "core",
    "observables",
    "figures",
    "tables",
    "cli",
)

# Which argument carries the work size of a call: (position, keyword).
_SIZE_ARGS = {
    "exact.excited_density_x": (2, "r"),
    "exact.excited_column_x": (3, "s"),
    "semiclassical.density_sc_x": (3, "r"),
    "observables.profile": (2, "dims_integrated"),
}

# Kernel groups of the exact and semiclassical layers: span names whose self
# time is pooled, and the span that counts the work (calls or points).
_GROUPS = {
    "exact.population": (
        ("exact.population_ex", "exact.population_ex_x", "exact.excited_population_x"),
        "exact.excited_population_x",
    ),
    "exact.density": (
        ("exact.density_ex", "exact.density_ex_x", "exact.excited_density_x"),
        "exact.excited_density_x",
    ),
    "exact.column": (
        ("exact.column_density_ex", "exact.column_density_ex_x", "exact.excited_column_x"),
        "exact.excited_column_x",
    ),
    "semiclassical.population": (
        (
            "semiclassical.population_sc",
            "semiclassical.population_sc_x",
            "semiclassical.saturated_population_sc",
        ),
        None,
    ),
    "semiclassical.density": (
        ("semiclassical.density_sc", "semiclassical.density_sc_x"),
        "semiclassical.density_sc_x",
    ),
}

_ROOT_PARENTS = {"core.solve_fugacity": "fugacity", "core.transition_temperature": "tstar"}
_QUAD = "observables.quad"


def _size(value) -> int:
    """Number of grid points in a scalar or array argument."""
    return max(1, int(getattr(value, "size", 1)))


class Tracer:
    """Records spans around every public ``trapgas`` function once installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, size_arg=None, counts_evals: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            size = 0
            if size_arg is not None:
                pos, key = size_arg
                if len(args) > pos:
                    size = args[pos]
                else:
                    size = kwargs.get(key, 0)
                if key != "dims_integrated":
                    size = _size(size)
            if counts_evals:
                # The first argument is the function being solved or
                # integrated; count how often the layer calls it.
                counted = [0]
                inner = args[0]

                def evaluated(*a, **k):
                    counted[0] += 1
                    return inner(*a, **k)

                args = (evaluated,) + args[1:]
            record = [name, 0.0, 0.0, parent, size]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if counts_evals:
                    record[4] = counted[0]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function and rebind each reference in trapgas."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"trapgas.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = self._wrap(
                    name,
                    obj,
                    size_arg=_SIZE_ARGS.get(name),
                    counts_evals=name == "roots.solve_monotone_root",
                )
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "trapgas" and not mod_name.startswith("trapgas."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    # dispatch tables such as figures._RECIPES
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]
        tables = importlib.import_module("trapgas.tables")
        for method in ("add_row", "to_csv", "write_csv"):
            original = getattr(tables.SweepTable, method)
            setattr(
                tables.SweepTable, method, self._wrap(f"tables.{method}", original)
            )
        observables = importlib.import_module("trapgas.observables")
        observables.integrate = _TracedIntegrate(
            observables.integrate, self._wrap(_QUAD, observables.integrate.quad,
                                              counts_evals=True)
        )

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


class _TracedIntegrate:
    """Stand-in for ``scipy.integrate`` inside ``trapgas.observables``."""

    def __init__(self, module, quad) -> None:
        self._module = module
        self.quad = quad

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def write_spans(path: Path, spans: list[list]) -> None:
    lines = [f"{n}\t{s!r}\t{e!r}\t{p}\t{z}" for n, s, e, p, z in spans]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")


class SpanStats:
    """Per-name call counts, sizes and self times pooled over span lists."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.size: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.wall_s: dict[str, float] = {}
        self.profile_self_s = {0: 0.0, 1: 0.0, 2: 0.0}
        self.evals = {"fugacity": [], "tstar": []}
        self.calls_small_x = 0
        self.bose_calls = 0

    def add(self, spans: list[list]) -> None:
        durations = [end - start for _, start, end, _, _ in spans]
        self_times = list(durations)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                self_times[parent] -= durations[i]
        # Quadrature runs inside the observable that called it: fold its
        # self time back into the caller.
        for i, (name, _, _, parent, _) in enumerate(spans):
            if name == _QUAD and parent >= 0:
                self_times[parent] += self_times[i]
                self_times[i] = 0.0
        for i, (name, _, _, parent, size) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.size[name] = self.size.get(name, 0) + size
            self.self_s[name] = self.self_s.get(name, 0.0) + self_times[i]
            self.wall_s[name] = self.wall_s.get(name, 0.0) + durations[i]
            if name == "observables.profile":
                self.profile_self_s[size] += self_times[i]
            elif name == "roots.solve_monotone_root":
                kind = _ROOT_PARENTS.get(spans[parent][0]) if parent >= 0 else None
                if kind is not None:
                    self.evals[kind].append(size)
            elif name.startswith("bose."):
                if parent < 0 or not spans[parent][0].startswith("bose."):
                    self.bose_calls += 1
                if name == "bose.bose_g_small_x":
                    self.calls_small_x += 1

    def _sum(self, table: dict, names) -> float:
        return sum(table.get(n, 0) for n in names)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one pass (see BENCHMARK.json ``per_layer``).

        Every workload reports all of them: counts and self times are
        measured, and read 0 where a workload never reaches the layer.
        """
        m: dict[str, float] = {}
        for group, (names, counter) in _GROUPS.items():
            m[f"{group}.self_s"] = self._sum(self.self_s, names)
            if group == "exact.population":
                m[f"{group}.calls"] = self.calls.get(counter, 0)
            elif counter is not None:
                m[f"{group}.points"] = self.size.get(counter, 0)
        evals = self.evals["fugacity"] + self.evals["tstar"]
        m["roots.solves"] = len(evals)
        for kind, values in self.evals.items():
            m[f"roots.evals_per_solve.{kind}.median"] = (
                statistics.median(values) if values else 0
            )
            m[f"roots.evals_per_solve.{kind}.max"] = max(values, default=0)
        for fn in ("solve_fugacity", "transition_temperature"):
            m[f"core.{fn}.calls"] = self.calls.get(f"core.{fn}", 0)
            m[f"core.{fn}.self_s"] = self.self_s.get(f"core.{fn}", 0.0)
        m["bose.calls"] = self.bose_calls
        m["bose.calls_small_x"] = self.calls_small_x
        for dims, self_s in self.profile_self_s.items():
            m[f"observables.profile_d{dims}.self_s"] = self_s
        m["observables.quad_calls"] = self.calls.get(_QUAD, 0)
        m["observables.integrand_evals"] = self.size.get(_QUAD, 0)
        m["observables.dip.self_s"] = self.self_s.get("observables.dip_height", 0.0)
        m["observables.moment.self_s"] = self.self_s.get("observables.density_moment", 0.0)
        m["observables.peak_report.self_s"] = self.self_s.get("observables.peak_report", 0.0)
        m["tables.to_csv.self_s"] = self.self_s.get("tables.to_csv", 0.0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self_s(layer)
        return m

    def details(self) -> dict[str, float]:
        """Metrics that exist only where their work occurs in the pass.

        Cost per call or per point of the kernels that were called, and the
        time of each figure recipe that ran.  A workload that never reaches
        one has no such metric (a ratio over no calls is undefined).
        """
        m: dict[str, float] = {}
        for group, unit in (("exact.population", "call"), ("exact.density", "point"),
                            ("exact.column", "point")):
            names, counter = _GROUPS[group]
            work = self.calls if unit == "call" else self.size
            done = work.get(counter, 0)
            if done:
                m[f"{group}.us_per_{unit}"] = 1e6 * self._sum(self.self_s, names) / done
        if self.bose_calls:
            m["bose.us_per_call"] = 1e6 * self.layer_self_s("bose") / self.bose_calls
        for k in range(1, 8):
            if f"figures.figure{k}" in self.wall_s:
                m[f"figures.fig{k}.wall_s"] = self.wall_s[f"figures.figure{k}"]
        return m


def detail_unit(name: str) -> str:
    """Unit of a metric of ``SpanStats.details`` or of a raw time."""
    if ".us_per_" in name:
        return "us"
    return "ms" if name.endswith("_ms") else "s"
