"""Layered benchmark for trapgas.

One run measures one workload:

    python3 perfbench/run.py --workload figures --seed 1 --trace 0

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  It times the
set-up of fresh interpreters (``import trapgas`` plus the workload's
warm-up; the median of ``SETUP_SAMPLES`` starts), runs the workload in a
child process for ``--seconds`` and prints, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  The traced run first prints, one line each,
the metrics that exist only on that workload (workload, name, value, unit):
cost per call of the kernels it reaches and each figure recipe's time; the
untimed run prints its raw times and the host's reference time that way.
The exit code is 1 when a correctness check failed and 2 when the
benchmark could not run at all.

``--workload all`` runs every workload in turn and prints one line per
metric (workload, name, value, unit) instead of JSON.  ``--smoke`` runs one
operation per workload, for a quick check that everything still works.

Every time metric is scaled to the nominal host speed of ``hostspeed``:
the host's own speed drifts too much between runs for raw times to resolve
a regression.  ``wall_s`` and ``op_p50_ms`` scale each operation by the
reference timed beside it, ``setup_s`` by the median reference of the run.
The raw times are printed before the JSON line.

numpy, BLAS and OpenMP are pinned to one thread in every child.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("figures", "threshold")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0

THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed correctness check)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; return it with its set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start: {line!r}")
    return proc, setup


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    cmd = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    setups = []

    def time_setups(count: int) -> None:
        for _ in range(count):
            proc, setup = start_worker(cmd + ["--setup-only"])
            proc.communicate(timeout=CHILD_TIMEOUT_S)
            setups.append(setup)

    # Set-up samples are split around the measured run, so that they span
    # the same stretch of time as the run itself.
    extra_setups = 0 if (trace or smoke) else SETUP_SAMPLES - 1
    time_setups(extra_setups // 2)
    proc, setup = start_worker(cmd + (["--smoke"] if smoke else []))
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    time_setups(extra_setups - extra_setups // 2)
    result = json.loads(out.strip().splitlines()[-1])
    metrics, details = result["metrics"], result["details"]
    if not trace:
        # Scaled by the host speed over the run: the starts are spread
        # around it, and single start-ups do not follow the reference.
        setup = statistics.median(setups)
        ref_s = 1e-3 * details["host.ref_ms"]
        metrics = {"setup_s": hostspeed.scale(setup, ref_s), **metrics}
        details = {"raw.setup_s": setup, **details}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
        "details": {
            name: {"value": value, "unit": tracing.detail_unit(name)}
            for name, value in details.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trapgas" / "__init__.py").is_file():
        print(f"error: no trapgas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        correct = correct and result["correct"]
        rows = result.pop("details")
        if args.workload == "all":
            print(f"{name:<13} {'failed':<42} {result['failed']}/{result['attempted']}")
            rows = {**result["metrics"], **rows}
        for metric, entry in rows.items():
            print(f"{name:<13} {metric:<42} {entry['value']:.6g} {entry['unit']}")
        if args.workload != "all":
            print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
