"""Fixed-node Gauss-Legendre quadrature on panels, with a node-doubling check."""

from __future__ import annotations

import functools

import numpy as np

#: Nodes per panel of the coarse rule; the returned value uses twice as many.
_NODES = 48


@functools.cache
def _rule(n: int):
    # Imported here, so that importing the package does not load numpy.polynomial.
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def quad(f, edges) -> tuple[float, float]:
    """Integral of f over [edges[0], edges[-1]], and an estimate of its error.

    f maps an array of abscissae to an array of values, pointwise: it is
    called once, on the nodes of both rules on every panel
    [edges[i], edges[i+1]].  The value is the sum of the 2 _NODES-point
    Gauss-Legendre rules on the panels; the error estimate is its distance
    from the _NODES-point sum.
    """
    panels = list(zip(edges[:-1], edges[1:]))
    rules = [_rule(n) for n in (_NODES, 2 * _NODES)]
    values = f(np.concatenate([
        0.5 * (a + b) + 0.5 * (b - a) * nodes for nodes, _ in rules for a, b in panels
    ]))
    sums, start = [], 0
    for _, weights in rules:
        total = 0.0
        for a, b in panels:
            total += 0.5 * (b - a) * float(weights @ values[start:start + weights.size])
            start += weights.size
        sums.append(total)
    coarse, fine = sums
    return fine, abs(fine - coarse)
