import math

import pytest
from hypothesis import given, strategies as st

from microgrid_auction import market
from microgrid_auction.market import BuyerState, MarketParams, SellerState, compute_payoffs
from microgrid_auction.utility import LogUtility, supplies

P = MarketParams()

coef = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
gen = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


def test_params_default_floor():
    assert P.p == 0.25
    with pytest.raises(ValueError):
        MarketParams(p=0.0)


def _declared(x, y, g):
    """The availability a seller declares: its supply at the floor price p
    with all of g on offer, as the engine's opening state takes it."""
    return supplies([(x, 1.0 / y, g, g)], P.p)[0]


def test_declare_availability_examples():
    # v'(g - a) = p at an interior declaration: a = g - (x/p - 1/y)
    assert _declared(1, 1, 4) == pytest.approx(1.0)
    # choke price below p: nothing is worth selling
    assert _declared(1.5, 0.5, 2) == pytest.approx(0.0)
    # retention worth less than p everywhere (xy <= p): offer all of it
    assert _declared(0.1, 2, 2) == pytest.approx(2.0)


def test_compute_payoffs_settles_at_communicated_scalars():
    buyers = [BuyerState(x=1, y=1)]
    sellers = [SellerState(x=1, y=1, g=4)]
    payoffs = compute_payoffs(buyers, sellers, (0.5,), (1.0,), (0.25,), (1.0,))
    assert payoffs.buyer_payoffs[0] == pytest.approx(math.log(2) - 0.5)
    assert payoffs.seller_payoffs[0] == pytest.approx(math.log(4) + 0.25)
    assert payoffs.mc_revenue == pytest.approx(0.25)

    # two agents a side, one of each with nothing allocated
    buyers = [BuyerState(x=1.2, y=1.5), BuyerState(x=0.7, y=1.3)]
    sellers = [SellerState(x=0.2, y=1.4, g=3.0), SellerState(x=0.3, y=1.6, g=2.5)]
    payoffs = compute_payoffs(buyers, sellers, (0.41, 0.0), (0.9, 0.0), (0.17, 0.23), (0.9, 0.0))
    assert payoffs.buyer_payoffs[0] == pytest.approx(1.2 * math.log(1 + 1.5 * 0.9) - 0.41)
    assert payoffs.buyer_payoffs[1] == 0.0
    assert payoffs.seller_payoffs[0] == pytest.approx(0.2 * math.log(1 + 1.4 * 2.1) + 0.17 * 0.9)
    # a seller that sells nothing keeps exactly its walk-away value
    assert payoffs.seller_payoffs[1] == LogUtility(sellers[1].x, sellers[1].y).value(2.5)
    assert payoffs.mc_revenue == pytest.approx(0.41 - 0.17 * 0.9)


@pytest.mark.parametrize(
    "bids, d, asks, s",
    [
        ((0.41,), (0.9, 0.0), (0.17, 0.23), (0.9, 0.0)),
        ((0.41, 0.0), (0.9,), (0.17, 0.23), (0.9, 0.0)),
        ((0.41, 0.0), (0.9, 0.0), (0.17, 0.23, 0.1), (0.9, 0.0, 0.0)),
        ((0.41, 0.0), (0.9, 0.0), (0.17, 0.23), (0.9,)),
    ],
    ids=["short bids", "short d", "extra seller quote", "short s"],
)
def test_compute_payoffs_rejects_quotes_of_another_length(bids, d, asks, s):
    buyers = [BuyerState(x=1.2, y=1.5), BuyerState(x=0.7, y=1.3)]
    sellers = [SellerState(x=0.2, y=1.4, g=3.0), SellerState(x=0.3, y=1.6, g=2.5)]
    with pytest.raises(ValueError):
        compute_payoffs(buyers, sellers, bids, d, asks, s)


@pytest.mark.parametrize(
    "d, s, bad",
    [
        ((-0.5, 0.0), (0.9, 0.0), "-0.5"),
        ((math.nan, 0.0), (0.9, 0.0), "nan"),
        ((math.inf, 0.0), (0.9, 0.0), "inf"),
        ((0.9, 0.0), (-math.inf, 0.0), "inf"),
        ((0.9, 0.0), (math.nan, 0.0), "nan"),
    ],
    ids=["negative d", "nan d", "infinite d", "s of -inf", "nan s"],
)
def test_compute_payoffs_rejects_a_quantity_the_utility_cannot_value(d, s, bad):
    # u(d) and v(max(g - s, 0)) are evaluated in place of LogUtility.value,
    # with its check and message.
    buyers = [BuyerState(x=1.2, y=1.5), BuyerState(x=0.7, y=1.3)]
    sellers = [SellerState(x=0.2, y=1.4, g=3.0), SellerState(x=0.3, y=1.6, g=2.5)]
    with pytest.raises(ValueError, match=f"quantity must be finite and >= 0, got {bad}$"):
        compute_payoffs(buyers, sellers, (0.41, 0.0), d, (0.17, 0.23), s)


def test_compute_payoffs_checks_each_list_once(monkeypatch):
    """A settlement checks the buyers' allocations and the sellers'
    retained stocks with one check_nonnegative call each, not one per
    agent; the messages stay LogUtility.value's (see the test above)."""
    calls = []
    check = market.check_nonnegative

    def counted(name, *values):
        calls.append((name, len(values)))
        check(name, *values)

    monkeypatch.setattr(market, "check_nonnegative", counted)
    buyers = [BuyerState(x=1.2, y=1.5), BuyerState(x=0.7, y=1.3), BuyerState(x=0.9, y=1.1)]
    sellers = [SellerState(x=0.2, y=1.4, g=3.0), SellerState(x=0.3, y=1.6, g=2.5)]
    compute_payoffs(buyers, sellers, (0.41, 0.0, 0.3), (0.9, 0.0, 0.6), (0.17, 0.23), (0.9, 0.6))
    assert calls == [("quantity", 3), ("quantity", 2)]
    calls.clear()
    with pytest.raises(ValueError, match="quantity must be finite and >= 0, got nan$"):
        compute_payoffs(buyers, sellers, (0.41, 0.0, 0.3), (0.9, math.nan, 0.6), (0.17, 0.23), (0.9, 0.6))
    assert calls == [("quantity", 3)]


def test_agents_check_their_parameters_as_the_utility_does():
    for bad in (0.0, -1.0, math.nan, math.inf):
        for build in (lambda: BuyerState(bad, 1.0), lambda: SellerState(bad, 1.0, 2.0)):
            with pytest.raises(ValueError, match=f"utility scale x must be positive and finite, got {bad}"):
                build()
        for build in (lambda: BuyerState(1.0, bad), lambda: SellerState(1.0, bad, 2.0)):
            with pytest.raises(ValueError, match=f"utility shape y must be positive and finite, got {bad}"):
                build()


def test_seller_refuses_a_lowest_ask_that_underflows():
    # x*y = 1e-50 passes, but y*g overflows, so the ask at full stock,
    # marginal(g), would reach the auction as 0.0 from an offering seller
    with pytest.raises(ValueError) as err:
        SellerState(1e-150, 1e100, 1e200)
    assert str(err.value) == (
        "lowest ask x*y/(y*g + 1) underflows to 0.0 (x=1e-150, y=1e+100, g=1e+200)"
    )
    assert SellerState(1e-150, 1e100, 1e40).g == 1e40


@given(x=coef, y=coef, g=gen)
def test_availability_within_generation(x, y, g):
    a = _declared(x, y, g)
    assert 0.0 <= a <= g
    if 0.0 < a < g:
        # interior declarations sit exactly on the floor price
        assert LogUtility(x, y).marginal(g - a) == pytest.approx(P.p, rel=1e-9)


@given(x=coef, y=coef, d1=st.floats(min_value=0, max_value=50), d2=st.floats(min_value=0, max_value=50))
def test_bid_update_monotone_in_allocation(x, y, d1, d2):
    # the engine's truthful re-quote b = u'(d) * d
    u = LogUtility(x, y)
    lo, hi = sorted((d1, d2))
    assert u.marginal(lo) * lo <= u.marginal(hi) * hi + 1e-15
    assert u.marginal(hi) * hi <= x  # bids are bounded by the scale parameter
