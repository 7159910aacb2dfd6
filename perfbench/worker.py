"""Child process of the benchmark: set up one workload, run it, check it.

``run.py`` starts this script in a fresh interpreter and times it up to the
``READY`` line, which is printed once ``trapgas`` is imported and the
workload's one-time warm-up is done.  The worker then draws its inputs from
the seed, runs passes over them until ``--seconds`` have elapsed, checks
every output outside the timed region and prints one JSON line.

With ``--trace 1`` the first half of the time runs untraced and the second
half under the span tracer; the JSON then holds the per-layer metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports trapgas: part of the timed set-up)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402

WORK_ROOT = ROOT / ".bench_build" / "perfbench"


def measure(workload, ops, seconds: float, on_pass=None) -> dict:
    """Closed loop over passes of ``ops`` until ``seconds`` elapse.

    The first pass always runs whole; a later pass stops at the deadline
    and its latencies are dropped, so that every operation has one latency
    per whole pass.  The host's reference is timed before every operation,
    outside the operation's own time.  Returns each operation's raw and
    scaled latencies (see ``hostspeed``; one list per operation, one entry
    per whole pass), the reference times and the collected outputs of
    every operation run; an operation that raises is kept as its traceback.
    """
    clock = time.perf_counter
    outputs, refs, timed = [], [], []
    passes = 0
    deadline = clock() + seconds
    while not (passes and clock() >= deadline):
        for op in ops:
            if passes and clock() >= deadline:
                break
            refs.append(hostspeed.time_reference())
            error = None
            start = clock()
            try:
                raw = workload.run(op)
            except Exception:
                error = traceback.format_exc()
            timed.append(clock() - start)
            if error is None:
                try:
                    outputs.append((op, workload.collect(op, raw), None))
                except Exception:
                    outputs.append((op, None, traceback.format_exc()))
            else:
                outputs.append((op, None, error))
        else:
            passes += 1
            if on_pass is not None:
                on_pass()
    whole = passes * len(ops)
    scaled = [hostspeed.scale(t, ref)
              for t, ref in zip(timed[:whole], hostspeed.smoothed(refs)[:whole])]
    return {
        "raw": [timed[i:whole:len(ops)] for i in range(len(ops))],
        "scaled": [scaled[i::len(ops)] for i in range(len(ops))],
        "refs": refs,
        "outputs": outputs,
    }


def wall_s(latencies: list[list[float]]) -> float:
    """Median time of one pass: the sum of its operations' latencies."""
    return statistics.median(sum(one_pass) for one_pass in zip(*latencies))


def op_p50_ms(latencies: list[list[float]]) -> float:
    """Median latency of one operation, pooled over the operations and passes."""
    return 1e3 * statistics.median(t for op in latencies for t in op)


def count_failures(workload, outputs) -> tuple[int, list[str]]:
    """Operations that raised or failed their check, with the reasons."""
    failed, reasons = 0, []
    for op, out, error in outputs:
        if error is None:
            try:
                problems = workload.check(op, out)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            failed += 1
            reasons.extend(problems)
    return failed, reasons


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_traced(name: str, workload, ops, seconds: float, seed: int):
    """Untraced half, then traced half; per-layer metrics per traced pass.

    Returns the per-layer metrics (every workload has all of them), the
    details that exist only on this workload (see ``SpanStats.details``)
    and the outputs to check.
    """
    untraced = measure(workload, ops, seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    per_pass: list[dict] = []
    details_per_pass: list[dict] = []
    first_spans: list[list] = []

    def on_pass() -> None:
        stats = tracing.SpanStats()
        spans = tracer.take()
        stats.add(spans)
        if not first_spans:
            first_spans.extend(spans)
        per_pass.append(stats.metrics())
        details_per_pass.append(stats.details())

    traced = measure(workload, ops, seconds / 2.0, on_pass=on_pass)
    metrics = {
        key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]
    }
    # Every pass runs the same operations, so every pass has the same details.
    details = {
        key: statistics.median(p[key] for p in details_per_pass)
        for key in details_per_pass[0]
    }
    metrics["trace.overhead_frac"] = (
        wall_s(traced["raw"]) / wall_s(untraced["raw"]) - 1.0
    )
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(WORK_ROOT / f"spans-{name}-seed{seed}.tsv", first_spans)
    outputs = untraced["outputs"] + traced["outputs"]
    return metrics, details, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over the first operation only")
    args = parser.parse_args(argv)

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](workdir)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workload.inputs(args.seed)
        seconds = args.seconds
        if args.smoke:
            ops, seconds = ops[:1], 0.0
        if args.trace:
            metrics, details, outputs = run_traced(
                args.workload, workload, ops, seconds, args.seed
            )
        else:
            result = measure(workload, ops, seconds)
            outputs = result["outputs"]
            metrics = {
                "wall_s": wall_s(result["scaled"]),
                "op_p50_ms": op_p50_ms(result["scaled"]),
                "peak_rss_mb": peak_rss_mb(),
            }
            details = {
                "raw.wall_s": wall_s(result["raw"]),
                "raw.op_p50_ms": op_p50_ms(result["raw"]),
                "host.ref_ms": 1e3 * statistics.median(result["refs"]),
            }
        failed, reasons = count_failures(workload, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"attempted": len(outputs), "failed": failed, "metrics": metrics,
                      "details": details}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
