"""Host speed: a fixed reference computation timed next to the workload.

The benchmark runs on a few cores of a shared host whose speed for the same
CPU work drifts by 10-50% over seconds to minutes as other tenants come and
go.  That drift, not the inputs, set the run-to-run spread of raw times.
So the benchmark times ``reference()``, a fixed piece of interpreter and
numpy work that does not touch ``trapgas``, right before every timed
operation, and reports times scaled to a host on which ``reference()``
takes ``NOMINAL_REF_S``:

    scaled = raw * NOMINAL_REF_S / reference time

A change to ``trapgas`` moves the raw time and not the reference time, so
it moves the scaled time by the same share.  ``NOMINAL_REF_S`` is about
the median reference time of a 2-core Xeon VM at 2.0 GHz on a shared host
(Python 3.11, numpy 2.4), so on that machine medians of scaled and raw
times over many runs stay within about 15% of each other.  The raw times
are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median reference time of a 2-core Xeon VM at 2.0 GHz (seconds).
NOMINAL_REF_S = 6.5e-3

#: References on each side of an operation pooled into its host speed.
WINDOW = 4

_SMALL = np.linspace(0.0, 1.0, 2000)
# A quarter of a block of the exact model's l-sum kernels: 1024 terms on a
# 201-point grid.
_TERMS = np.linspace(0.0, 1.0, 1024)
_GRID = np.linspace(0.0, 1.0, 201)


def reference() -> float:
    """Fixed work of three kinds, each about a third of the time.

    The package spends its time in the interpreter (solvers, quadrature
    callbacks), in numpy calls on short arrays and in numpy calls on arrays
    of megabytes (the exact l-sums at large N).  Other tenants slow these
    by different shares: the interpreter and short arrays by the CPU they
    take, the long arrays also by the memory bandwidth they use.  A
    reference made of only one kind left a drift of 10% between runs in
    the scaled times of the other kinds.
    """
    total = 0.0
    for i in range(15000):
        total += (i * 0.5) % 3.0
    for _ in range(250):
        total += float(np.exp(-_SMALL).sum())
    total += float(np.exp(-np.outer(_TERMS, _GRID)).sum())
    return total


def time_reference() -> float:
    """Wall time of one run of ``reference()``."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def smoothed(refs: list[float]) -> list[float]:
    """Median of the references within ``WINDOW`` places of each one.

    One reference takes a few milliseconds and picks up the jitter of a
    single interrupt; the drift it is meant to follow spans seconds.
    """
    return [
        statistics.median(refs[max(0, k - WINDOW): k + WINDOW + 1])
        for k in range(len(refs))
    ]


def scale(raw: float, ref: float) -> float:
    """``raw`` seconds at the nominal host speed, given the reference time beside it."""
    return raw * NOMINAL_REF_S / ref
