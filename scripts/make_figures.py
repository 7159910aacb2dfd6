#!/usr/bin/env python3
"""Regenerate all figure data sets (CSV) into a target directory, and time each recipe.

Usage: python scripts/make_figures.py [--repeat N] [out_dir]

Every figure is built N times (default 1) in this process, in interleaved
rounds of all seven, and its CSV is written once, after the first round.
The script then prints the best and the median time of each recipe; the
writing is not timed.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

from trapgas import figures

FIGURE_IDS = range(1, 8)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", type=Path, default=Path("figures_out"))
    parser.add_argument("--repeat", type=int, default=1, help="builds of each figure (>= 1)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat needs at least 1, got {args.repeat}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    times = {k: [] for k in FIGURE_IDS}
    written = {}
    for _ in range(args.repeat):
        for figure_id in FIGURE_IDS:
            started = time.perf_counter()
            table = figures.make_figure(figure_id)
            times[figure_id].append(time.perf_counter() - started)
            if figure_id not in written:
                path = table.write_csv(args.out_dir / f"fig{figure_id}.csv")
                written[figure_id] = f"{len(table.rows)} rows -> {path}"
    for figure_id, spent in times.items():
        print(f"fig{figure_id}: {written[figure_id]} (best {min(spent) * 1e3:.2f} ms, "
              f"median {statistics.median(spent) * 1e3:.2f} ms of {args.repeat})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
