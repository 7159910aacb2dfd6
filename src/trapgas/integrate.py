"""Fixed-node Gauss-Legendre quadrature on panels, with a node-doubling check."""

from __future__ import annotations

import functools

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

    f maps an array of abscissae to an array of values and is called once
    per panel [edges[i], edges[i+1]] and rule.  The value is the sum of the
    2 _NODES-point Gauss-Legendre rules on the panels; the error estimate is
    its distance from the _NODES-point sum.
    """
    values = []
    for n in (_NODES, 2 * _NODES):
        nodes, weights = _rule(n)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            total += half * float(weights @ f(0.5 * (a + b) + half * nodes))
        values.append(total)
    coarse, fine = values
    return fine, abs(fine - coarse)
