import math

import pytest
from hypothesis import given, strategies as st

from microgrid_auction.utility import LogUtility

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
quantities = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)


def test_value_closed_form():
    u = LogUtility(x=2.0, y=3.0)
    assert u.value(0.0) == 0.0
    assert u.value(1.0) == pytest.approx(2.0 * math.log(4.0), rel=1e-15)


def test_marginal_matches_numeric_derivative():
    u = LogUtility(x=1.3, y=0.7)
    h = 1e-7
    for q in (0.0, 0.5, 2.0, 17.0):
        numeric = (u.value(q + h) - u.value(max(q - h, 0.0))) / (h + min(q, h))
        assert u.marginal(q) == pytest.approx(numeric, rel=1e-5)


def test_inverse_marginal_roundtrip():
    u = LogUtility(x=1.1, y=1.4)
    top = u.marginal(0.0)
    for m in (top, top / 2, 0.01):
        q = u.inverse_marginal(m)
        assert u.marginal(q) == pytest.approx(m, rel=1e-12)
    # above the marginal-at-zero ceiling the best response is no quantity
    assert u.inverse_marginal(top * 1.5) == 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        LogUtility(x=0.0, y=1.0)
    with pytest.raises(ValueError):
        LogUtility(x=1.0, y=-2.0)


@given(x=positive, y=positive, q1=quantities, q2=quantities)
def test_marginal_decreasing(x, y, q1, q2):
    u = LogUtility(x=x, y=y)
    lo, hi = sorted((q1, q2))
    assert u.marginal(lo) >= u.marginal(hi)


@given(x=positive, y=positive, q=quantities)
def test_value_nonnegative_and_increasing(x, y, q):
    u = LogUtility(x=x, y=y)
    assert u.value(q) >= 0.0
    assert u.value(q + 1.0) > u.value(q)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, -1.0])
def test_quantities_must_be_finite_and_nonnegative(bad):
    u = LogUtility(x=1.0, y=2.0)
    with pytest.raises(ValueError, match="quantity must be finite and >= 0"):
        u.value(bad)
    with pytest.raises(ValueError, match="quantity must be finite and >= 0"):
        u.marginal(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
def test_marginal_values_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="marginal value must be positive and finite"):
        LogUtility(x=1.0, y=2.0).inverse_marginal(bad)


def test_negative_zero_is_a_valid_quantity():
    u = LogUtility(x=1.0, y=2.0)
    assert u.value(-0.0) == 0.0
    assert u.marginal(-0.0) == 2.0
