import math
import sys

import pytest
from hypothesis import example, given, strategies as st

from microgrid_auction.market import BuyerState
from microgrid_auction.utility import LogUtility, demands, marginals, supplies, values

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


# The list rules against LogUtility, bit for bit (float.hex tells -0.0 from
# 0.0), over every finite parameter pair whose choke price x*y is positive
# and finite, down to subnormals and up to x*y near the largest float.
FMAX = sys.float_info.max
# y*b/p overflows for the buyer of test_planner_takes_a_cap_kink_whose_y_b_
# over_p_overflows (x bidding x at p = 0.25): marginal(b/p) is then 0.0, and
# the planner takes its kink as x/(b/p + 1/y) instead.
CAP_KINK_X, CAP_KINK_Y = 1.1089155930442293e188, 1.2011709478848512e120
all_positive = st.floats(min_value=5e-324, max_value=FMAX)
parameters = st.tuples(all_positive, all_positive).filter(lambda xy: 0.0 < xy[0] * xy[1] <= FMAX)
all_quantities = st.one_of(st.just(-0.0), st.floats(min_value=0.0, max_value=FMAX))


def _hex(values):
    return [v.hex() for v in values]


@given(st.lists(st.tuples(parameters, all_quantities), max_size=8))
@example([((1.0, 2.0), -0.0), ((3.0, 0.5), 0.0)])
@example([((1.0, FMAX), 1.0), ((FMAX / 4.0, 4.0), 2.0), ((2.0, FMAX / 2.0), FMAX)])
@example([((CAP_KINK_X, CAP_KINK_Y), CAP_KINK_X / 0.25)])
def test_values_are_the_utility_value_bit_for_bit(draws):
    agents = [BuyerState(x, y) for (x, y), _ in draws]
    quantities = [q for _, q in draws]
    expected = [LogUtility(x, y).value(q) for (x, y), q in draws]
    assert _hex(values(agents, quantities)) == _hex(expected)


@given(st.lists(st.tuples(parameters, all_quantities), max_size=8))
@example([((1.0, 2.0), -0.0), ((3.0, 0.5), 0.0)])
@example([((1.0, FMAX), 1.0), ((FMAX / 4.0, 4.0), 2.0), ((2.0, FMAX / 2.0), FMAX)])
@example([((CAP_KINK_X, CAP_KINK_Y), CAP_KINK_X / 0.25)])
def test_marginals_are_the_utility_marginal_bit_for_bit(draws):
    agents = [BuyerState(x, y) for (x, y), _ in draws]
    quantities = [q for _, q in draws]
    expected = [LogUtility(x, y).marginal(q) for (x, y), q in draws]
    assert _hex(marginals(agents, quantities)) == _hex(expected)
    # Where y*q overflows both give 0.0, and the planner takes a cap kink as
    # x/(q + 1/y) instead (see solve_welfare).
    assert all(m == 0.0 for ((_, y), q), m in zip(draws, expected) if y * q == math.inf)


prices = st.floats(min_value=5e-324, max_value=FMAX)


@given(st.lists(st.tuples(parameters, all_quantities), max_size=8), prices)
@example([((1.0, 2.0), -0.0), ((1.0, 2.0), 3.0)], 0.5)
@example([((1.0, FMAX), 1.0), ((2.0, FMAX / 2.0), FMAX)], 5e-324)
@example([((CAP_KINK_X, CAP_KINK_Y), CAP_KINK_X / 0.25)], 5.544577965221147e187)
def test_demands_are_the_clipped_inverse_marginal_bit_for_bit(draws, mu):
    constants = [(x, 1.0 / y, cap) for (x, y), cap in draws]
    expected = [min(LogUtility(x, y).inverse_marginal(mu), cap) for (x, y), cap in draws]
    assert _hex(demands(constants, mu)) == _hex(expected)


@given(
    st.lists(
        st.tuples(parameters, st.floats(min_value=5e-324, max_value=FMAX), all_quantities),
        max_size=8,
    ),
    prices,
)
@example([((1.0, 1.0), 4.0, 4.0), ((0.1, 2.0), 2.0, -0.0), ((1.5, 0.5), 2.0, 5.0)], 0.25)
@example([((1.0, FMAX), FMAX, 1.0), ((FMAX / 2.0, 2.0), 1.0, FMAX)], 5e-324)
def test_supplies_are_the_clipped_inverse_marginal_bit_for_bit(draws, mu):
    constants = [(x, 1.0 / y, g, a) for (x, y), g, a in draws]
    expected = [
        min(max(g - LogUtility(x, y).inverse_marginal(mu), 0.0), a) for (x, y), g, a in draws
    ]
    assert _hex(supplies(constants, mu)) == _hex(expected)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
def test_the_response_rules_check_mu_as_the_utility_does(bad):
    message = f"marginal value must be positive and finite, got {bad}$"
    with pytest.raises(ValueError, match=message):
        demands([(1.0, 0.5, 1.0)], bad)
    with pytest.raises(ValueError, match=message):
        supplies([(1.0, 0.5, 2.0, 1.0)], bad)
    # mu is checked once per call, so an empty list refuses it too
    with pytest.raises(ValueError, match=message):
        demands([], bad)
