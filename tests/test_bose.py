import functools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapgas import bose
from trapgas.errors import DomainError, TruncationError

import oracles

ORDERS = bose.BOSE_ORDERS


def test_zeta_constants():
    assert bose.zeta_const(3.0) == pytest.approx(1.202056903159594, abs=1e-15)
    assert bose.zeta_const(1.5) == pytest.approx(2.612375348685488, abs=1e-15)
    assert bose.zeta_const(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-15)
    with pytest.raises(DomainError):
        bose.zeta_const(4.0)


def test_series_empty_and_saturation_values():
    assert bose.bose_g(1.5, 0.0) == 0.0
    assert bose.bose_g(1.5, 1.0) == pytest.approx(2.612375348685488, abs=1e-12)
    assert bose.bose_g(3.0, 1.0) == pytest.approx(1.202056903159594, abs=1e-12)


@pytest.mark.parametrize("nu", ORDERS)
@pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
def test_series_consistency_against_reference(nu, z):
    assert bose.bose_g(nu, z) == pytest.approx(oracles.mp_bose_series(nu, z), abs=1e-12)


def test_half_order_near_one_matches_deep_partial_summation():
    value = bose.bose_g(0.5, math.exp(-1e-3))
    assert value == pytest.approx(oracles.G_HALF_AT_EXP_MINUS_1E3, rel=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        bose.bose_g(0.5, 1.0)
    with pytest.raises(DomainError):
        bose.bose_g(1.5, 1.0000001)
    with pytest.raises(DomainError):
        bose.bose_g(1.5, -0.1)
    with pytest.raises(DomainError):
        bose.bose_g(4.0, 0.5)
    with pytest.raises(DomainError):
        bose.bose_g(1.0, 1.0)
    with pytest.raises(DomainError):
        bose.bose_g_small_x(1.5, 0.0)
    with pytest.raises(DomainError):
        bose.bose_g_small_x(1.5, -1e-3)
    with pytest.raises(DomainError):
        bose.bose_g_small_x(1.5, math.nan)


@pytest.mark.parametrize("x", [1.0000001, 1.5, 2.0, math.inf])
def test_small_x_refuses_x_above_switch(x):
    # 1.5 used to give 504.4 for g_{3/2}, whose value there is 4.54e-5, and inf nan.
    with pytest.raises(DomainError, match="bose_g_x"):
        bose.bose_g_small_x(1.5, x)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_nan_x_names_x(nu):
    with pytest.raises(DomainError, match="x >= 0"):
        bose.bose_g_x(nu, math.nan)


def test_small_x_examples():
    # leading singular behaviour of the 1/2 order
    x = 1e-10
    assert bose.bose_g_small_x(0.5, x) - math.sqrt(math.pi / x) == pytest.approx(
        bose.zeta_const(0.5), abs=1e-4
    )
    # linear coefficient of g_3 near saturation is -zeta(2)
    x = 1e-4
    assert bose.bose_g_small_x(3.0, x) == pytest.approx(
        oracles.G_THREE_AT_EXP_MINUS_1E4, rel=1e-14
    )
    assert bose.bose_g_small_x(3.0, x) == pytest.approx(
        bose.zeta_const(3.0) - bose.zeta_const(2.0) * x, abs=1e-7
    )
    assert bose.bose_g_small_x(2.0, x) == pytest.approx(
        oracles.G_TWO_AT_EXP_MINUS_1E4, rel=1e-14
    )
    assert bose.bose_g_small_x(0.5, 1e-6) == pytest.approx(
        oracles.G_HALF_AT_EXP_MINUS_1E6, rel=1e-13
    )
    assert bose.bose_g_small_x(1.5, 1e-6) == pytest.approx(
        oracles.G_THREEHALF_AT_EXP_MINUS_1E6, rel=1e-13
    )


@pytest.mark.parametrize("nu", ORDERS)
@pytest.mark.parametrize("exponent", [-8, -7, -6, -5, -4, -3, -2, -1.3, -1])
def test_expansion_matches_lerch_reference_on_window(nu, exponent):
    import mpmath as mp

    x = 10.0**exponent
    with mp.workdps(40):
        ref = float(mp.polylog(mp.mpf(nu), mp.e ** (-mp.mpf(x))))
    value = bose.bose_g_small_x(nu, x)
    assert value == pytest.approx(ref, abs=1e-10 * max(1.0, abs(ref)))


@pytest.mark.parametrize("nu", ORDERS)
@pytest.mark.parametrize("x", [0.03, 0.06, 0.09, 0.1, 0.5, 0.9, bose.X_SWITCH])
def test_expansion_agrees_with_tightened_series_on_overlap(nu, x, monkeypatch):
    # _series sizes the sum from _SERIES_LOG = ln(1 / _SERIES_REL).
    monkeypatch.setattr(bose, "_SERIES_LOG", math.log(1e17))
    series = bose.direct_series(nu, math.exp(-x))
    assert abs(bose.bose_g_small_x(nu, x) - series) <= 1e-10


def test_overlong_series_is_refused_before_summing():
    # x = 1e-7 asks for 3.7e8 terms, past _SERIES_MAX_TERMS.
    start = time.perf_counter()
    with pytest.raises(TruncationError):
        bose.direct_series(1.5, math.exp(-1e-7))
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "x",
    [1e-12, 1e-3, 0.0999, 0.1, 0.1001, 0.37, 0.9999, bose.X_SWITCH, 1.0001, 5.0, 40.0,
     800.0, math.inf],
)
def test_g123_equals_three_single_calls(x):
    # Both sides of X_SWITCH, bit for bit.
    singles = tuple(bose.bose_g_x(nu, x) for nu in (1.0, 2.0, 3.0))
    assert bose.bose_g123_x(x) == singles


def _near(x, ulps):
    """x and the ulps floats on each side of it."""
    out = [x]
    for direction in (0.0, math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


#: 20,001 x from 1e-12 to 1e3, and X_SWITCH and 1e-3 with 4 ulp on each side.
G123_POINTS = np.geomspace(1e-12, 1e3, 20_001).tolist() + _near(bose.X_SWITCH, 4) + _near(1e-3, 4)


def test_fused_g123_equals_three_calls_on_a_dense_set(monkeypatch):
    # One fused loop on each side of X_SWITCH, which never falls back to
    # the single-order expansion.
    singles = [tuple(bose.bose_g_x(nu, x) for nu in (1.0, 2.0, 3.0)) for x in G123_POINTS]
    monkeypatch.setattr(bose, "bose_g_small_x", None)
    assert [bose.bose_g123_x(x) for x in G123_POINTS] == singles


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_g123_needs_positive_x(x):
    with pytest.raises(DomainError):
        bose.bose_g123_x(x)


@pytest.mark.parametrize("nu", ORDERS)
def test_continuity_at_switch(nu):
    below = bose.bose_g(nu, math.exp(-(bose.X_SWITCH - 1e-9)))
    above = bose.bose_g(nu, math.exp(-(bose.X_SWITCH + 1e-9)))
    assert abs(below - above) < 1e-6


@pytest.mark.parametrize("nu,lower", [(1.5, 0.5), (3.0, 2.0)])
@pytest.mark.parametrize("z", [0.3, 0.7])
def test_derivative_identity(nu, lower, z):
    h = 1e-6
    derivative = (bose.bose_g(nu, z + h) - bose.bose_g(nu, z - h)) / (2.0 * h)
    assert z * derivative == pytest.approx(bose.bose_g(lower, z), rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    nu=st.sampled_from(ORDERS),
    z1=st.floats(min_value=0.0, max_value=0.99),
    z2=st.floats(min_value=0.0, max_value=0.99),
)
def test_monotone_in_fugacity(nu, z1, z2):
    lo, hi = sorted((z1, z2))
    assert bose.bose_g(nu, lo) <= bose.bose_g(nu, hi) + 1e-13


@pytest.mark.parametrize("nu", ORDERS)
@pytest.mark.parametrize(
    "x", [1e-9, 1e-4, 0.01, 0.0999, 0.1, 0.1001, 0.5, math.log(2.0), 0.7, 0.9999,
          bose.X_SWITCH, 1.0001, 2.0, 10.0, 30.0]
)
def test_new_orders_match_polylog(nu, x):
    # Both sides of X_SWITCH and deep into the Boltzmann tail, where a
    # naive -log(-expm1(-x)) for g_1 loses four digits.
    import mpmath as mp

    with mp.workdps(60):
        ref = float(mp.polylog(mp.mpf(nu), mp.exp(-mp.mpf(x))))
    assert bose.bose_g_x(nu, x) == pytest.approx(ref, rel=1e-13)


# The dense sweep of the bose.py docstring: 25 x log-spaced from 1e-9 to
# 0.0999, 40 from 0.1 to 63 and 300 evenly spaced over [0.05, 4], which
# straddles X_SWITCH.
SWEEP_X = np.concatenate(
    [np.geomspace(1e-9, 0.0999, 25), np.geomspace(0.1, 63.0, 40), np.linspace(0.05, 4.0, 300)]
)
#: The accuracy the bose.py docstring states, relative to 40-digit mpmath.
STATED_REL_ERROR = 2.2e-15


@functools.cache
def sweep_reference(nu):
    import mpmath as mp

    with mp.workdps(40):
        return np.array(
            [float(mp.polylog(mp.mpf(nu), mp.exp(-mp.mpf(float(x))))) for x in SWEEP_X]
        )


@pytest.mark.parametrize("nu", ORDERS)
def test_dense_sweep_within_stated_accuracy(nu):
    ref = sweep_reference(nu)
    paths = {
        "scalar": np.array([bose.bose_g_x(nu, float(x)) for x in SWEEP_X]),
        "array": bose._g_array(nu, SWEEP_X),
    }
    if nu in (1.0, 2.0, 3.0):
        g123 = np.array([bose.bose_g123_x(float(x)) for x in SWEEP_X])
        paths["g123"] = g123[:, int(nu) - 1]
    for name, values in paths.items():
        worst = np.max(np.abs(values - ref) / np.abs(ref))
        assert worst <= STATED_REL_ERROR, (name, worst)


@pytest.mark.parametrize("nu", ORDERS)
def test_array_matches_scalar(nu):
    # Within 4 ulp: numpy's exp and log are not the math module's, and the
    # expansion of g_2 cancels near x = 1.  x = 0 (zeta(nu) for nu > 1) and
    # x >= 700 ride along; the suite turns any RuntimeWarning into an error.
    rng = np.random.default_rng(13)
    x = np.concatenate(
        [SWEEP_X, rng.uniform(0.0, 8.0, 4000), [700.0, 745.0, 800.0, 1e300, math.inf]]
    )
    if nu > 1.0:
        x = np.concatenate([[0.0], x])
    array = bose._g_array(nu, x)
    scalar = np.array([bose.bose_g_x(nu, float(v)) for v in x])
    ulp = np.spacing(np.abs(scalar))
    assert np.all(np.abs(array - scalar) <= 4.0 * ulp)
    if nu > 1.0:
        assert array[0] == bose.zeta_const(nu)


def test_array_series_across_chunks():
    # More far points than one chunk of the summed power table.
    x = np.linspace(1.0, 30.0, 2 * bose._SERIES_CHUNK + 5)
    array = bose._g_array(2.5, x)
    head = bose._g_array(2.5, x[: bose._SERIES_CHUNK + 3])
    assert np.array_equal(array[: head.size], head)
    scalar = np.array([bose.bose_g_x(2.5, float(v)) for v in x[::97]])
    assert np.all(np.abs(array[::97] - scalar) <= 4.0 * np.spacing(scalar))


def test_zeta_table_within_one_ulp_of_mpmath():
    # scripts/zeta_table.py prints this table from mpmath.
    import mpmath as mp

    orders = [k / 2 for k in range(6, -40, -1) if k != 2]
    assert sorted(bose._ZETA, reverse=True) == orders
    with mp.workdps(40):
        for order, value in bose._ZETA.items():
            ref = float(mp.zeta(mp.mpf(order)))
            assert abs(value - ref) <= math.ulp(ref), order
