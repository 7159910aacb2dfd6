import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapgas import bose
from trapgas.errors import DomainError

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
@pytest.mark.parametrize("x", [0.03, 0.06, 0.09, bose.X_SWITCH])
def test_expansion_agrees_with_tightened_series_on_overlap(nu, x, monkeypatch):
    monkeypatch.setattr(bose, "_SERIES_REL", 1e-17)
    monkeypatch.setattr(bose, "_SERIES_TAIL", 1e-16)
    series = bose.direct_series(nu, math.exp(-x))
    assert abs(bose.bose_g_small_x(nu, x) - series) <= 1e-10


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


@pytest.mark.parametrize("nu", [1.0, 2.5])
@pytest.mark.parametrize(
    "x", [1e-9, 1e-4, 0.01, 0.0999, bose.X_SWITCH, 0.1001, 0.5, math.log(2.0), 0.7,
          2.0, 10.0, 30.0]
)
def test_new_orders_match_polylog(nu, x):
    # g_1 and g_{5/2} feed the closed-form semi-classical columns; check
    # both sides of X_SWITCH and deep into the Boltzmann tail, where a
    # naive -log(-expm1(-x)) for g_1 loses four digits.
    import mpmath as mp

    with mp.workdps(60):
        ref = float(mp.polylog(mp.mpf(nu), mp.exp(-mp.mpf(x))))
    assert bose.bose_g_x(nu, x) == pytest.approx(ref, rel=1e-13)
