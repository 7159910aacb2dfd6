"""Self-test of the benchmark: its checks catch wrong outputs, it still runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _failed(workload, op, good, bad) -> int:
    """Failures counted over one correct and one perturbed output."""
    failed, _ = worker.count_failures(workload, [(op, good, None), (op, bad, None)])
    return failed


def test_figures_catch_changed_csv(tmp_path):
    wl = workloads.Figures(tmp_path)
    op = {"figure": 2}
    good = wl.collect(op, wl.run(op))
    assert wl.check(op, good) == []
    assert _failed(wl, op, good, good.replace("1.75410207e-01", "1.75410208e-01")) == 1
    op = {"figure": 5}
    good = wl.collect(op, wl.run(op))
    last = good.splitlines()[-1]
    assert _failed(wl, op, good, good.replace(last, last.rsplit(",", 1)[0] + ",nan")) == 1


def test_ex_threshold_catches_residual_and_profile(tmp_path):
    wl = workloads.ExThreshold(tmp_path)
    op = {"atoms": 1e6, "t_ratio": 0.99, "points": 21}
    good = wl.run(op)
    assert wl.check(op, good) == []
    state = good["state"]
    off_state = dict(good, state=dataclasses.replace(state, x=state.x * (1 + 1e-6)))
    assert _failed(wl, op, good, off_state) == 1
    prof = good["profiles"][1]
    bumped = dataclasses.replace(prof, other_excited=prof.other_excited * (1 + 1e-9))
    off_profile = dict(good, profiles=[good["profiles"][0], bumped, good["profiles"][2]])
    assert _failed(wl, op, good, off_profile) == 1
    assert _failed(wl, op, good, dict(good, dip=float("nan"))) == 1


def test_sc_columns_catch_column_off_closed_form(tmp_path):
    wl = workloads.ScColumns(tmp_path)
    op = {"model": "sc", "trap": (1.0, 1.0, 2.0), "atoms": 1e4, "t_ratio": 1.2,
          "points": 5}
    good = wl.run(op)
    assert wl.check(op, good) == []
    prof = good["profiles"][0]
    total = prof.total.copy()
    total[0] *= 1 + 1e-6
    other = prof.other_excited + (total - prof.total)
    bumped = dataclasses.replace(prof, total=total, other_excited=other)
    assert _failed(wl, op, good, dict(good, profiles=[bumped, good["profiles"][1]])) == 1


def test_partial_pass_is_dropped_and_latencies_pooled(tmp_path):
    class Sleepy(workloads.Workload):
        def run(self, op):
            time.sleep(op)
            return op

    # The deadline falls in the second pass: its first operation is run
    # (and checked) but only the whole first pass is timed.
    result = worker.measure(Sleepy(tmp_path), [0.2, 0.05, 0.05], 0.4)
    assert len(result["outputs"]) == 4
    assert [len(t) for t in result["raw"]] == [1, 1, 1]
    assert worker.op_p50_ms([[0.20, 0.21], [0.9], [0.22, 0.23]]) == 1e3 * 0.22


def test_scaled_latency_follows_the_smoothed_reference(tmp_path):
    # One slow reference among steady ones is smoothed away; a host that is
    # twice as slow throughout halves the scale.
    assert hostspeed.smoothed([1.0, 1.0, 9.0, 1.0, 1.0]) == [1.0] * 5
    ref = hostspeed.NOMINAL_REF_S
    assert hostspeed.scale(0.5, 2.0 * ref) == 0.25

    class Steady(workloads.Workload):
        def run(self, op):
            return op

    result = worker.measure(Steady(tmp_path), [1, 2, 3], 0.0)
    assert len(result["refs"]) == 3 and len(result["raw"]) == 3
    for raw, scaled, ref in zip(result["raw"], result["scaled"],
                                hostspeed.smoothed(result["refs"])):
        assert scaled == [hostspeed.scale(raw[0], ref)]


def test_inputs_depend_only_on_the_seed(tmp_path):
    for cls in workloads.WORKLOADS.values():
        wl = cls(tmp_path)
        assert wl.inputs(7) == wl.inputs(7)
    ex = workloads.ExThreshold(tmp_path)
    assert ex.inputs(7) != ex.inputs(8)
    atoms = np.log10([op["atoms"] for op in ex.inputs(7)])
    assert atoms.min() >= 6.0 and atoms.max() <= 10.0


def _smoke(trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )


def _table(stdout: str) -> dict[tuple[str, str], str]:
    rows = {}
    for line in stdout.splitlines():
        workload, name, value = line.split()[:3]
        rows[workload, name] = value
    return rows


def test_smoke_runs_every_workload_with_every_metric():
    proc = _smoke(0)
    assert proc.returncode == 0, proc.stderr
    rows = _table(proc.stdout)
    for workload in workloads.WORKLOADS:
        assert rows[workload, "failed"] == "0/1"
        for metric in SPEC["end_to_end"]:
            assert float(rows[workload, metric["name"]]) > 0.0
        for raw in ("raw.setup_s", "raw.wall_s", "raw.op_p50_ms", "host.ref_ms"):
            assert float(rows[workload, raw]) > 0.0


def test_traced_smoke_repeats_exact_counts():
    first, second = _smoke(1), _smoke(1)
    assert first.returncode == 0 and second.returncode == 0, first.stderr
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    a, b = _table(first.stdout), _table(second.stdout)
    for workload in workloads.WORKLOADS:
        names = {name for (w, name) in a if w == workload} - {"failed"}
        assert per_layer <= names
        for name in counts:
            assert a[workload, name] == b[workload, name], (workload, name)
    # Metrics that only exist where their work occurs are left out elsewhere.
    assert ("threshold", "exact.population.us_per_call") in a
    assert any(name.startswith("figures.fig") for (w, name) in a if w == "figures")
    assert not any(name.startswith("figures.fig") for (w, name) in a if w != "figures")


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
