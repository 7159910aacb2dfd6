#!/usr/bin/env python3
"""Print the ``_ZETA`` literal block of ``src/trapgas/bose.py``.

The table holds the Riemann zeta function at every multiple of 1/2 from
3 down to -19.5, leaving out the pole at 1: the Bose orders and the
arguments nu - k of their near-saturation expansions.  Each value is
computed by the installed mpmath at 40 digits and rounded to the nearest
float.  At the negative integers zeta is exact: 0 at the even ones and
-B_{n+1}/(n+1) at the odd ones, printed as that fraction.

    python3 scripts/zeta_table.py
"""

from fractions import Fraction

import mpmath as mp

#: Table orders, high to low: 3.0, 2.5, 2.0, 1.5, 0.5, 0.0, -0.5, ..., -19.5.
ORDERS = tuple(k / 2 for k in range(6, -40, -1) if k != 2)


def literal(order: float) -> str:
    """The Python source of zeta(order) as it appears in the table."""
    if order < 0 and order == int(order):
        n = -int(order)
        if n % 2 == 0:
            return "0.0"
        p, q = mp.bernfrac(n + 1)
        value = Fraction(-int(p), int(q) * (n + 1))  # zeta(-n) = -B_{n+1} / (n+1)
        return f"{value.numerator}.0 / {value.denominator}.0"
    with mp.workdps(40):
        return repr(float(mp.zeta(mp.mpf(order))))


def main() -> None:
    print("_ZETA = {")
    for order in ORDERS:
        print(f"    {order!r}: {literal(order)},")
    print("}")


if __name__ == "__main__":
    main()
