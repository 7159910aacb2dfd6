"""Record and re-check the benchmark's baseline in ``perfbench/baseline.json``.

    python3 perfbench/baseline.py spread --workload figures --seeds 1-10
    python3 perfbench/baseline.py counts --seed 1

``spread`` runs the end-to-end benchmark once per seed, for ``run_seconds``
of BENCHMARK.json, and prints, for each metric, the median and the quartile
spread (Q3 - Q1) / median, the figure every bound in BENCHMARK.json is
compared with, and the same for the raw times printed beside them.
``counts`` makes one traced run (one pass) per workload on
one seed and checks that its exact counts (metrics with unit ``count``)
equal the recorded ones, which an earlier run on that seed wrote.
``--record`` writes the new figures into baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
WORKLOADS = ("figures", "threshold")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(args: list[str]) -> tuple[dict, dict[str, float]]:
    """The result line of one benchmark run and the lines printed before it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run {args} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    details = {line.split()[1]: float(line.split()[2]) for line in lines[:-1]}
    return json.loads(lines[-1]), details


def _load() -> dict:
    return json.loads(BASELINE.read_text())


def _save(baseline: dict) -> None:
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")


def spread(workload: str, seeds: list[int], record: bool) -> int:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        result, details = _run(["--workload", workload, "--seed", str(seed),
                                "--trace", "0"])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        for name, value in details.items():
            values.setdefault(name, []).append(value)
        print(seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median}
        print(f"{workload} {name}: median {median:.6g} spread {(q3 - q1) / median:.4f}")
    if record:
        baseline = _load()
        entry = baseline["workloads"][workload]
        entry["end_to_end"] = summary
        entry["end_to_end_seeds"] = seeds
        _save(baseline)
    return 0


def counts(seed: int, record: bool) -> int:
    baseline = _load()
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    mismatched = False
    for workload in WORKLOADS:
        result, _ = _run(["--workload", workload, "--seed", str(seed),
                          "--seconds", "0", "--trace", "1"])
        measured = {name: entry["value"] for name, entry in result["metrics"].items()
                    if units[name] == "count"}
        entry = baseline["workloads"][workload]
        recorded = entry.get("counts") if entry.get("counts_seed") == seed else None
        for name, value in measured.items():
            note = ""
            if not record and (recorded is None or recorded.get(name) != value):
                note = f"recorded {None if recorded is None else recorded.get(name)}"
                mismatched = True
            print(f"{workload:<13} {name:<42} {value:>10g} {note}")
        if record:
            entry["counts"], entry["counts_seed"] = measured, seed
    if record:
        _save(baseline)
    return 1 if mismatched else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--record", action="store_true")
    p = sub.add_parser("counts")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "spread":
        return spread(args.workload, _seeds(args.seeds), args.record)
    return counts(args.seed, args.record)


if __name__ == "__main__":
    sys.exit(main())
