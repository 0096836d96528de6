import dataclasses
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from microgrid_auction import clearing
from microgrid_auction.clearing import (
    BID_FLOOR,
    ClearingResult,
    clear_market,
    clear_market_proximal,
    clearing_objective,
    kkt_residual,
)
from microgrid_auction.fairness import water_fill
from microgrid_auction.market import BuyerState, MarketParams, SellerState
from microgrid_auction.welfare import solve_welfare

from oracles import (
    best_clearing_objective,
    kkt_residual_reference,
    proximal_clearing_reference,
    proximal_price_exact,
)

P = MarketParams()

bid_lists = st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=6)
ask_values = st.floats(min_value=0.01, max_value=0.25)
avail_values = st.floats(min_value=0.05, max_value=6.0)


def seller_lists(max_size=6):
    return st.lists(st.tuples(ask_values, avail_values), min_size=1, max_size=max_size)


def test_clear_market_single_seller_interior():
    result = clear_market((1.0,), (0.2,), (2.0,), P)
    assert result.mu == pytest.approx(0.5)
    assert result.d[0] == pytest.approx(2.0)
    assert result.s[0] == pytest.approx(2.0)
    assert not result.buyer_budget_active[0]


def test_clear_market_budget_cap_binds():
    result = clear_market((1.0,), (0.2,), (10.0,), P)
    assert result.mu == pytest.approx(0.2)
    assert result.d[0] == pytest.approx(4.0)  # b/p with the cap active
    assert result.buyer_budget_active[0]


def test_clear_market_two_sellers_dispatched():
    result = clear_market((1.0,), (0.1, 0.3), (1.0, 1.0), P)
    assert result.mu == pytest.approx(0.5)
    assert result.d[0] == pytest.approx(2.0)
    assert result.s == pytest.approx((1.0, 1.0))


def test_no_trade_results():
    assert clear_market((), (0.2,), (1.0,), P).no_trade
    assert clear_market((1.0,), (), (), P).no_trade
    assert clear_market((0.0, 0.0), (0.2,), (1.0,), P).no_trade
    # a priced-out seller (a = 0) with others absent is an empty supply side
    assert clear_market((1.0,), (0.2,), (0.0,), P).no_trade


def test_input_validation():
    with pytest.raises(ValueError):
        clear_market((1.0,), (0.0,), (1.0,), P)  # offering seller must price > 0
    with pytest.raises(ValueError):
        clear_market((-1.0,), (0.2,), (1.0,), P)
    with pytest.raises(ValueError):
        clear_market((1.0,), (0.2, 0.3), (1.0,), P)
    with pytest.raises(ValueError, match="the bids sum past the largest float"):
        clear_market((1e308, 1e308), (0.2,), (2.0,), P)
    with pytest.raises(ValueError, match="the availabilities sum past the largest float"):
        clear_market((1.0,), (0.2, 0.3), (1e308, 1e308), P)


def test_lone_marginal_seller_sells_exactly_the_residual():
    # residual * a_j / group_avail overflows to inf for a_j = 1e308; the
    # share a_j / group_avail is exactly 1 for a lone marginal seller.
    result = clear_market((1.0,), (1e-300,), (1e308,), P)
    assert result.mu == 1e-300
    assert result.s == (1.0 / P.p,)
    assert result.d == result.s


_PROX_INPUTS = {
    "bids": (1.0, 0.5),
    "asks": (0.2, 0.3),
    "avails": (2.0, 1.0),
    "prev_s": (0.0, 0.5),
    "weights": (0.5, 0.5),
}

_BAD_PROX_INPUTS = [
    ("bids", (math.nan, 0.5), "bids must be finite and >= 0, got nan"),
    ("bids", (1.0, math.inf), "bids must be finite and >= 0, got inf"),
    ("bids", (-math.inf, 0.5), "bids must be finite and >= 0, got -inf"),
    ("bids", (1.0, -1.0), "bids must be finite and >= 0, got -1.0"),
    ("asks", (math.nan, 0.3), "asks of offering sellers must be positive and finite, got nan"),
    ("asks", (0.2, math.inf), "asks of offering sellers must be positive and finite, got inf"),
    ("asks", (0.0, 0.3), "asks of offering sellers must be positive and finite, got 0.0"),
    ("asks", (0.2, -1.0), "asks of offering sellers must be positive and finite, got -1.0"),
    ("avails", (math.nan, 1.0), "availabilities must be finite and >= 0, got nan"),
    ("avails", (2.0, math.inf), "availabilities must be finite and >= 0, got inf"),
    ("avails", (-1.0, 1.0), "availabilities must be finite and >= 0, got -1.0"),
    ("avails", (2.0,), "2 asks vs 1 availabilities"),
    ("prev_s", (0.0,), "1 previous allocations vs 2 sellers"),
    ("prev_s", (math.nan, 0.0), "previous allocations must be finite, got nan"),
    ("prev_s", (0.0, math.inf), "previous allocations must be finite, got inf"),
    ("prev_s", (-math.inf, 0.0), "previous allocations must be finite, got -inf"),
    ("weights", (0.5,), "1 proximal weights vs 2 sellers"),
    ("weights", 0.5, "0 proximal weights vs 2 sellers"),
    ("bids", (1e308, 1e308), "the bids sum past the largest float"),
    ("avails", (1e308, 1e308), "the availabilities sum past the largest float"),
] + [
    ("weights", weights, message)
    for w in (math.nan, math.inf, 0.0, -1.0)
    for weights, message in (
        (w, "0 proximal weights vs 2 sellers"),
        ((0.5, w), f"proximal weights must be positive and finite, got {w}"),
    )
]


@pytest.mark.parametrize(
    "name, value, message",
    _BAD_PROX_INPUTS,
    ids=[f"{name}={value}" for name, value, _ in _BAD_PROX_INPUTS],
)
def test_proximal_input_validation(name, value, message):
    inputs = {**_PROX_INPUTS, name: value}
    with pytest.raises(ValueError) as err:
        clear_market_proximal(
            inputs["bids"], inputs["asks"], inputs["avails"], P,
            prev_s=inputs["prev_s"], weights=inputs["weights"],
        )
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_every_solver_refuses_a_bad_availability_with_one_message(bad):
    # The rule and its message are written once, so all four read the same.
    avails = (bad, 1.0)
    sellers = [SellerState(0.3, 1.0, 2.0), SellerState(0.2, 1.2, 3.0)]
    calls = [
        lambda: clear_market((1.0,), (0.2, 0.3), avails, P),
        lambda: clear_market_proximal(
            (1.0,), (0.2, 0.3), avails, P, prev_s=(0.0, 0.0), weights=(0.5, 0.5)
        ),
        lambda: solve_welfare([BuyerState(1.0, 1.0)], sellers, (1.0,), avails, P),
        lambda: water_fill(avails, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"availabilities must be finite and >= 0, got {bad}"


def test_proximal_clips_finite_previous_allocations_to_the_availability():
    inputs = {**_PROX_INPUTS, "prev_s": (-1.0, 5.0)}
    clipped = {**_PROX_INPUTS, "prev_s": (0.0, 1.0)}
    results = [
        clear_market_proximal(
            i["bids"], i["asks"], i["avails"], P, prev_s=i["prev_s"], weights=i["weights"]
        )
        for i in (inputs, clipped)
    ]
    assert results[0] == results[1]


@pytest.mark.parametrize("ask", [0.0, math.nan])
def test_proximal_accepts_any_ask_of_a_seller_with_nothing_to_offer(ask):
    result = clear_market_proximal(
        (1.0,), (ask, 0.2), (0.0, 2.0), P, prev_s=(0.0, 0.0), weights=(0.5, 0.5)
    )
    assert result.s[0] == 0.0
    assert result.mu is not None and result.s[1] > 0.0


def test_determinism_bit_identical():
    bids = (0.7, 1.3, 0.2)
    asks = (0.11, 0.11, 0.19)
    avails = (1.5, 2.5, 3.5)
    first = clear_market(bids, asks, avails, P)
    second = clear_market(bids, asks, avails, P)
    assert first == second


def test_kkt_residual_flags_constructed_violation():
    result = clear_market((1.0,), (0.2,), (2.0,), P)
    assert kkt_residual(result) <= 1e-7
    bad = dataclasses.replace(result, s=(result.s[0] + 1.0,))
    assert kkt_residual(bad) >= 1.0


def test_kkt_residual_of_a_nan_price_or_allocation_is_accepted_by_no_tolerance():
    # Every `v > worst` test is false for NaN, so each of these read 0.0.
    result = clear_market((1.0, 0.5), (0.2, 0.3), (2.0, 1.0), P)
    assert kkt_residual(result) == 0.0
    no_trade = clear_market((), (0.2,), (1.0,), P)
    assert no_trade.no_trade and kkt_residual(no_trade) == 0.0
    for bad in (
        dataclasses.replace(result, d=(math.nan, 1.0)),
        dataclasses.replace(result, mu=math.nan),
        dataclasses.replace(no_trade, s=(math.nan,)),
        dataclasses.replace(result, bids=(math.nan, 0.5)),
        dataclasses.replace(result, asks=(math.nan, 0.3)),
        dataclasses.replace(result, avails=(math.nan, 1.0)),
        dataclasses.replace(no_trade, bids=(math.nan,)),
    ):
        residual = kkt_residual(bad)
        assert not residual <= 1e300, bad
        assert not bad.kkt_residual <= 1e300, bad
    # The ask of a seller with nothing to offer is read by neither the
    # clearing nor the residual, so a NaN there is no fault.
    idle = clear_market((1.0, 0.5), (0.2, 0.3, math.nan), (2.0, 1.0, 0.0), P)
    assert kkt_residual(idle) == 0.0


def test_a_returned_allocation_is_taken_back_unchecked_and_nothing_else_is():
    """The s of a trading clearing skips prev_s's conversion and check, in
    either solver; a list, a plain tuple or a replaced s of the same
    values does not, and a NaN among them is refused as before."""
    exact = clear_market((1.0, 0.5), (0.2, 0.3), (2.0, 1.0), P)
    proximal = _clear_prox(prev_s=exact.s)
    for result in (exact, proximal):
        prev_s = result.s
        assert type(prev_s) is not tuple and isinstance(prev_s, tuple)
        taken = _clear_prox(prev_s=prev_s)
        assert taken == _clear_prox(prev_s=tuple(prev_s)) == _clear_prox(prev_s=list(prev_s))
        bad = dataclasses.replace(result, s=(math.nan, *prev_s[1:])).s
        for faulty in (bad, tuple(bad), list(bad)):
            with pytest.raises(ValueError) as err:
                _clear_prox(prev_s=faulty)
            assert str(err.value) == "previous allocations must be finite, got nan"
    assert type(clear_market((), (0.2,), (1.0,), P).s) is tuple


def test_a_returned_allocation_holds_no_negative_zero():
    # A prev_s_j of -0.0 plus a step (mu - c_j)/w_j that underflows to -0.0
    # gave s_j = -0.0; settled on as an all-capped prev_s where a_j = 0.0,
    # that would not be abs(a_j) bit for bit.
    result = clear_market_proximal(
        (0.1,), (1e-300, 1e-5), (1.0, 10.0), P,
        prev_s=[-0.0, 10.0], weights=(1e308, 1e-5 / 9.6),
    )
    assert result.mu < 0.0 and result.s[0].hex() == "0x0.0p+0"
    sold_out = clear_market_proximal(
        (1.0,), (0.2, 0.3), (0.0, result.s[1]), P, prev_s=result.s, weights=(0.5, 0.5)
    )
    assert sold_out.s is result.s
    assert [v.hex() for v in sold_out.s] == [abs(a).hex() for a in sold_out.avails]


def _clear_prox(prev_s):
    return clear_market_proximal(
        _PROX_INPUTS["bids"], _PROX_INPUTS["asks"], _PROX_INPUTS["avails"], P,
        prev_s=prev_s, weights=_PROX_INPUTS["weights"],
    )


@st.composite
def kkt_cases(draw):
    """A result to check and its quotes. Either a real clearing (exact or
    proximal, no-trade included) or arbitrary fields: parked buyers,
    zero-availability sellers, sellers capped, just inside the cap, on either
    bound tolerance, interior, at zero or out of bounds, mu absent, below, at
    or above p."""
    bids = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, BID_FLOOR), st.floats(1e-4, 5.0)), max_size=6
        )
    )
    sellers = draw(
        st.lists(st.tuples(ask_values, st.one_of(st.just(0.0), avail_values)), max_size=6)
    )
    asks = tuple(c for c, _ in sellers)
    avails = tuple(a for _, a in sellers)
    source = draw(st.sampled_from(("exact", "proximal", "fields")))
    if source == "exact":
        return clear_market(bids, asks, avails, P), bids, asks, avails
    if source == "proximal":
        prev = tuple(draw(st.floats(0.0, a)) for a in avails)
        weights = (0.5,) * len(asks)
        result = clear_market_proximal(bids, asks, avails, P, prev_s=prev, weights=weights)
        return result, bids, asks, avails
    mu = draw(st.one_of(st.none(), st.just(P.p), st.floats(0.01, P.p), st.floats(P.p, 2.0)))
    denom = max(mu or P.p, P.p)
    d = tuple(
        draw(st.one_of(st.just(0.0), st.just(b / P.p), st.just(b / denom), st.floats(-1.0, 30.0)))
        for b in bids
    )
    s = tuple(
        draw(
            st.one_of(
                st.just(0.0),
                st.just(a),
                st.just(a * (1.0 - 1e-12)),
                st.just(a - 1e-9 * max(1.0, a)),
                st.just(1e-9 * max(1.0, a)),
                st.floats(0.0, a),
                st.floats(-1.0, a + 2.0),
            )
        )
        for a in avails
    )
    return ClearingResult(d, s, mu, bids, asks, avails, P), bids, asks, avails


@settings(deadline=None, max_examples=300)
@given(case=kkt_cases())
def test_kkt_residual_matches_list_reference(case):
    # The running max must return bit for bit what max() over the list does.
    result, bids, asks, avails = case
    assert kkt_residual(result) == kkt_residual_reference(
        result, bids, asks, avails, P.p
    )


_AROUND_ONE = (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))


@pytest.mark.parametrize("a", _AROUND_ONE)
@pytest.mark.parametrize("b", _AROUND_ONE)
def test_kkt_residual_at_the_tie_of_its_inlined_max(b, a):
    """max(1.0, b) and max(1.0, a) are written out in kkt_residual; at a
    bid and an availability of 1.0 and one ulp either side it must still
    return bit for bit the list reference. In the first result the budget
    term (p*d - b)/max(1, b) is the largest violation; in the second a
    seller sits on its bound tolerance 1e-9*max(1, a) or one ulp inside
    it, where that tolerance decides between capped and interior."""
    overspent = ClearingResult((2.0 * b / P.p,), (a,), P.p, (b,), (0.2,), (a,), P)
    on_bound = a - 1e-9 * max(1.0, a)
    residuals = []
    for s in (on_bound, math.nextafter(on_bound, 0.0)):
        balanced = ClearingResult((s,), (s,), P.p, (P.p * s,), (0.2,), (a,), P)
        for result in (overspent, balanced):
            assert kkt_residual(result) == kkt_residual_reference(
                result, result.bids, result.asks, result.avails, P.p
            )
        residuals.append(kkt_residual(balanced))
    assert kkt_residual(overspent) == b / max(1.0, b)
    assert residuals == [0.0, (P.p - 0.2) / P.p]


def test_clearing_objective_of_a_bidder_served_nothing():
    # log(0) for a buyer above BID_FLOOR; one at the floor is not counted.
    assert clearing_objective((1.0,), (0.1,), (0.0,), (1.0,)) == -math.inf
    assert clearing_objective((BID_FLOOR,), (0.1,), (0.0,), (1.0,)) == -0.1


def test_matches_slsqp_on_random_small_instances():
    rng = random.Random(606)
    for _ in range(60):
        nb = rng.randint(1, 3)
        ns = rng.randint(1, 3)
        bids = tuple(rng.uniform(0.05, 1.5) for _ in range(nb))
        asks = tuple(rng.uniform(0.02, 0.25) for _ in range(ns))
        avails = tuple(rng.uniform(0.1, 5.0) for _ in range(ns))
        result = clear_market(bids, asks, avails, P)
        mine = clearing_objective(bids, asks, result.d, result.s)
        reference = best_clearing_objective(bids, asks, avails, P)
        assert reference is not None
        assert reference - mine <= 1e-4 * max(1.0, abs(reference))


@settings(deadline=None, max_examples=150)
@given(bids=bid_lists, sellers=seller_lists())
def test_clearing_feasibility_and_optimality(bids, sellers):
    asks = tuple(ask for ask, _ in sellers)
    avails = tuple(avail for _, avail in sellers)
    result = clear_market(bids, asks, avails, P)
    total_d = math.fsum(result.d)
    total_s = math.fsum(result.s)
    assert abs(total_d - total_s) <= 1e-8 * max(1.0, total_d)
    for sj, aj in zip(result.s, avails):
        assert -1e-9 <= sj <= aj + 1e-9
    for di, bi in zip(result.d, bids):
        assert di >= 0.0
        assert P.p * di <= bi + 1e-9
    if not result.no_trade:
        # solver self-check: every produced clearing is a certified optimum
        assert result.kkt_residual <= 1e-7
        # weak budget balance holds at any clearing solution
        collected = math.fsum(bids[i] for i in range(len(bids)) if result.d[i] > 0)
        reimbursed = math.fsum(c * s for c, s in zip(asks, result.s))
        assert collected - reimbursed >= -1e-9


@settings(deadline=None, max_examples=100)
@given(bids=bid_lists, sellers=seller_lists(max_size=4))
def test_proximal_solver_agrees_with_exact_objective(bids, sellers):
    """The regularized solver's fixed points coincide with exact optima, and
    one step from the exact solution must already be optimal."""
    asks = tuple(ask for ask, _ in sellers)
    avails = tuple(avail for _, avail in sellers)
    exact = clear_market(bids, asks, avails, P)
    warm = clear_market_proximal(bids, asks, avails, P, prev_s=exact.s, weights=(1.0,) * len(asks))
    assert math.fsum(warm.s) == pytest.approx(math.fsum(exact.s), abs=1e-8)
    phi_exact = clearing_objective(bids, asks, exact.d, exact.s)
    phi_warm = clearing_objective(bids, asks, warm.d, warm.s)
    if math.isfinite(phi_exact):
        assert phi_warm >= phi_exact - 1e-6 * max(1.0, abs(phi_exact))


def test_proximal_cold_start_converges_to_exact_total():
    bids = (0.9, 0.4)
    asks = (0.12, 0.12, 0.2)
    avails = (1.0, 2.0, 1.5)
    exact = clear_market(bids, asks, avails, P)
    prev = (0.0, 0.0, 0.0)
    for _ in range(200):
        step = clear_market_proximal(bids, asks, avails, P, prev_s=prev, weights=(0.5,) * 3)
        prev = step.s
    assert math.fsum(prev) == pytest.approx(math.fsum(exact.s), rel=1e-6)
    assert step.mu == pytest.approx(exact.mu, rel=1e-6)


def _assert_proximal_matches_reference(bids, asks, avails, prev, weights, price_pinned=True):
    result = clear_market_proximal(bids, asks, avails, P, prev_s=prev, weights=weights)
    reference = proximal_clearing_reference(bids, asks, avails, P.p, prev, weights)
    if reference is None:
        assert result.no_trade
        return None
    mu, s = reference
    if price_pinned and not math.isclose(result.mu, mu, rel_tol=1e-12, abs_tol=1e-12 * P.p):
        # The linear scan rounds its supply sums and its root as floats; where
        # it and the solver disagree, the price in exact arithmetic decides.
        exact = proximal_price_exact(bids, asks, avails, P.p, prev, weights)
        assert math.isclose(result.mu, float(exact), rel_tol=1e-12, abs_tol=1e-12 * P.p)
    for got, want, a in zip(result.s, s, avails):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * max(1.0, a))
    return mu


@st.composite
def proximal_markets(draw):
    """Up to 60 sellers. Asks often repeat one of up to three levels (ties),
    some sellers offer nothing, prev sits at 0, at a_j or between, and the
    per-seller weights span the engine's 1e-4..1e4."""
    levels = draw(st.lists(ask_values, min_size=1, max_size=3))
    asks, avails, prev, weights = [], [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        asks.append(draw(st.one_of(st.sampled_from(levels), ask_values)))
        a = draw(st.one_of(st.just(0.0), avail_values))
        avails.append(a)
        prev.append(draw(st.one_of(st.just(0.0), st.just(a), st.floats(min_value=0.0, max_value=a))))
        weights.append(10.0 ** draw(st.floats(min_value=-4.0, max_value=4.0)))
    bids = draw(st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=6))
    return tuple(bids), tuple(asks), tuple(avails), tuple(prev), tuple(weights)


@settings(deadline=None, max_examples=300)
@given(market=proximal_markets())
def test_proximal_price_matches_linear_scan_reference(market):
    # Weight spreads up to 1e8 make supply inelastic next to capped sellers,
    # where the quadratic root must avoid cancellation.
    _assert_proximal_matches_reference(*market)


@st.composite
def sold_out_boundary_markets(draw):
    """proximal_markets with the bids scaled so that demand at the top
    breakpoint, total_bid / top, lands exactly at total_avail, or above or
    below it by one step of the largest bid or by a relative gap of 1e-9 to
    0.1: both sides of the edge where a round counts as sold out.

    Returns the market and whether its price is pinned. It may not be when
    top is p and demand is at total_avail or one step below it: demand
    is flat at total_bid / p below p and can be within rounding of all that
    is offered, and then every price from the highest upper kink to p clears
    the market with the same allocations."""
    bids, asks, avails, prev, weights = draw(proximal_markets())
    offered = [j for j, a in enumerate(avails) if a > 0]
    assume(offered and max(bids) > BID_FLOOR)
    top = max([P.p] + [asks[j] + weights[j] * (avails[j] - prev[j]) for j in offered])
    total_avail = math.fsum(avails)
    side = draw(st.sampled_from((1, 0, -1)))
    gap = draw(st.sampled_from((0.0, 1e-9, 1e-6, 1e-3, 0.1))) if side else 0.0

    def excess(bids):
        demand = math.fsum(b for b in bids if b > BID_FLOOR) / top
        return (demand > total_avail) - (demand < total_avail)

    target = total_avail * top * (1.0 + side * gap)
    scale = target / math.fsum(b for b in bids if b > BID_FLOOR)
    bids = [b * scale for b in bids]
    i = bids.index(max(bids))
    start = excess(bids)
    for _ in range(100):
        now = excess(bids)
        if now == side or now * start < 0:
            break
        bids[i] = math.nextafter(bids[i], math.inf if now < side else 0.0)
    assume(excess(bids) == side)
    return (tuple(bids), asks, avails, prev, weights), top > P.p or side > 0 or gap > 0


@settings(deadline=None, max_examples=200)
@given(case=sold_out_boundary_markets())
# demand 0.5 meets the one seller's cap at its upper kink 0.175 and stays
# there up to p: the linear scan says 0.175, clearing says 0.25
@example(case=(((0.125,), (0.25, 0.125), (0.0, 0.5), (0.0, 0.0), (1.0, 0.1)), False))
# the linear scan's float root lands 5.5e-12 above the exact price, which
# the solver gives to the last bit
@example(
    case=(
        (
            (0.28124999971875003,),
            (0.25,) * 6 + (0.125,),
            (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.125),
            (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            (1.0, 1.0, 100.0, 1.0, 1.0, 1.0, 0.001),
        ),
        True,
    )
)
# one seller of weight 1e4 at its availability, its lower kink near -25000:
# the float root interpolated from there is 3e-12 off by cancellation
@example(
    case=(
        (
            (0.6242457290584639,),
            (0.25,) * 8,
            (0.0, 0.0, 2.4969829187308386) + (0.0,) * 5,
            (0.0, 0.0, 2.4969829187308386) + (0.0,) * 5,
            (1.0, 1.0, 10000.0) + (1.0,) * 5,
        ),
        True,
    )
)
# the same seller with a bid total that rounds: a float root taken from m1,
# clear of the cancellation, is still 4e-12 off
@example(
    case=(
        ((0.24999999975, 0.4999999995), (0.25, 0.25, 0.25), (0.0, 0.0, 3.0), (0.0, 0.0, 3.0), (1.0, 1.0, 10000.0)),
        True,
    )
)
# weight 1000 beside a capped seller whose upper kink 0.125 starts the
# segment: its slope from the rounded sums at both ends puts the float root
# 1.8e-12 off
@example(
    case=(
        (
            (1.1242457285584637,),
            (0.125, 0.125, 0.25) + (0.125,) * 5,
            (0.0, 0.0, 3.4969829187308386, 0.0, 0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 3.4969829187308386, 0.0, 0.0, 0.0, 1.0, 0.0),
            (1.0, 1.0, 1000.0) + (1.0,) * 5,
        ),
        True,
    )
)
def test_proximal_price_at_the_edge_of_the_sold_out_screen(case):
    # Above the edge a round clears without the breakpoint search; at it and
    # below, the search runs. Both must match the linear scan, in the price
    # wherever the price is pinned.
    market, price_pinned = case
    _assert_proximal_matches_reference(*market, price_pinned=price_pinned)


@pytest.mark.parametrize(
    "market",
    [
        # demand 1e-9 below all that is offered, the last unit from a seller
        # with weight 1000: the price is the exact root, rounded once
        pytest.param(
            (
                (1.2499999987500001,),
                (0.125, 0.25, 0.25, 0.25, 0.25, 0.25),
                (4.0, 0.0, 0.0, 0.0, 0.0, 1.0),
                (4.0, 0.0, 0.0, 0.0, 0.0, 1.0),
                (1.0, 1.0, 1.0, 1.0, 1.0, 1000.0),
            ),
            id="weight 1000 at the sold-out edge",
        ),
        # the same edge with weight 3210: the float root is 2.3e-11
        # relative off
        pytest.param(
            (
                (0.020367743717946016, 1.429677386990264, 5.902528496637213e-92),
                (0.01287526309958164, 0.01287526309958164, 0.01287526309958164, 0.05466784067457277),
                (1.6605769698159882, 0.0, 0.0, 4.139603558817032),
                (1.6605769698159882, 0.0, 0.0, 4.139603558817032),
                (133.33448470216828, 12.015590334940212, 1.0, 3209.8856484795333),
            ),
            id="weight 3210 at the sold-out edge",
        ),
        # weight 1000 with both sellers at their availability: the float
        # root is 1.8e-12 off
        pytest.param(
            ((1.227307310990296,), (0.125, 0.25), (3.9092292488704143, 1.0), (3.9092292488704143, 1.0), (1.0, 1000.0)),
            id="weight 1000 below the edge",
        ),
    ],
)
def test_proximal_price_is_the_exact_root_on_inelastic_segments(market):
    bids, asks, avails, prev, weights = market
    result = clear_market_proximal(bids, asks, avails, P, prev_s=prev, weights=weights)
    exact = proximal_price_exact(bids, asks, avails, P.p, prev, weights)
    assert math.isclose(result.mu, float(exact), rel_tol=1e-12)


@settings(deadline=None, max_examples=200)
@given(market=proximal_markets(), exact=st.booleans(), priced_out=st.booleans())
def test_kkt_residual_read_matches_the_reference(market, exact, priced_out):
    # A result computes its residual when first read, from the quotes it
    # cleared; bidding nothing makes it a no-trade result.
    bids, asks, avails, prev, weights = market
    if priced_out:
        bids = (0.0,) * len(bids)
    if exact:
        result = clear_market(bids, asks, avails, P)
    else:
        result = clear_market_proximal(bids, asks, avails, P, prev_s=prev, weights=weights)
    assert result.no_trade or not priced_out
    assert result.kkt_residual == kkt_residual_reference(result, bids, asks, avails, P.p)


@pytest.mark.parametrize(
    "regime, market",
    [
        ("below p", ((3.0,), (0.1, 0.1), (20.0, 0.0), (0.0, 0.0), (0.01, 0.5))),
        ("at p", ((0.5,), (0.25,), (2.0,), (2.0,), (0.5,))),
        ("above p", ((1.0, 0.0), (0.2, 0.12, 0.12), (2.0, 1.0, 3.0), (0.0, 1.0, 0.5), (0.5, 2.0, 0.1))),
        ("all capped", ((10.0,), (0.1, 0.2), (1.0, 0.0), (1.0, 0.0), (0.5, 0.5))),
        # the lowest breakpoint is only in surplus through rounding: with a
        # tiny weight, prev + (m - c)/w leaves a sliver of supply there
        ("lowest breakpoint", ((2e-9,), (0.2,), (5.0,), (5.0,), (1e-13,))),
    ],
)
def test_proximal_price_regimes_match_reference(regime, market):
    bids, asks, avails, prev, weights = market
    mu = _assert_proximal_matches_reference(*market)
    offered = [j for j, a in enumerate(avails) if a > 0]
    lowest = min([P.p] + [asks[j] - weights[j] * prev[j] for j in offered])
    reached = {
        "below p": mu < P.p,
        "at p": mu == P.p,
        "above p": mu > P.p,
        "all capped": mu == math.fsum(bids) / math.fsum(avails),
        "lowest breakpoint": mu == lowest,
    }
    assert reached[regime]


@pytest.mark.parametrize("proximal", [False, True], ids=["exact", "proximal"])
def test_a_price_strictly_between_two_ask_levels(proximal):
    """One bid of 2.0 against asks 1.0 and 3.0 of one unit each. Seller 0
    sells its unit at any price from 1.0 up, and the demand 2.0/mu meets it
    at mu = 2.0, where supply is flat. The exact clearing finds that price
    strictly between its two ask levels; the proximal one, from zero
    allocations at weights 0.1, on the flat segment between seller 0's
    upper kink 1.1 and seller 1's lower kink 3.0."""
    bids, asks, avails, prev, weights = (2.0,), (1.0, 3.0), (1.0, 1.0), (0.0, 0.0), (0.1, 0.1)
    if proximal:
        result = clear_market_proximal(bids, asks, avails, P, prev_s=prev, weights=weights)
        assert proximal_clearing_reference(bids, asks, avails, P.p, prev, weights) == (2.0, (1.0, 0.0))
    else:
        result = clear_market(bids, asks, avails, P)
    assert (result.mu, result.d, result.s) == (2.0, (1.0,), (1.0, 0.0))
    assert result.kkt_residual == kkt_residual_reference(result, bids, asks, avails, P.p) == 0.0


@pytest.mark.parametrize(
    "market, sold_out",
    [
        # top is the ask 0.4 above p: demand 1.0 / 0.4 falls short of the 3.0
        # offered, though 1.0 / p would exceed it
        (((0.6, 0.4), (0.4, 0.1), (1.0, 2.0), (1.0, 2.0), (1.0, 0.5)), False),
        (((3.0, 0.4), (0.4, 0.1), (1.0, 2.0), (1.0, 2.0), (1.0, 0.5)), True),
        # the highest ask belongs to a seller with nothing to offer: top is p
        (((0.9, 0.0), (0.1, 0.2, 5.0), (1.0, 2.0, 0.0), (1.0, 2.0, 0.0), (0.5, 2.0, 1.0)), True),
        # an availability of -0.0 sells 0.0, not -0.0
        (((1.0,), (0.15, 0.1), (-0.0, 2.0), (-0.0, 2.0), (1.0, 1.0)), True),
        (((1.0,), (0.15, 0.1), (-0.0, 2.0), (0.0, 2.0), (1.0, 1.0)), True),
        # every seller was capped, but demand at top is within the offer
        (((0.5,), (0.1, 0.2), (1.0, 2.0), (1.0, 2.0), (0.5, 0.5)), False),
    ],
)
def test_proximal_clearing_from_sellers_all_at_their_availability(monkeypatch, market, sold_out):
    # prev_s equals the availabilities. Sold out, every offering seller sells
    # exactly its availability at total_bid / total_avail, with no breakpoint
    # search; otherwise the search runs. Both match the linear scan.
    sweeps = []
    sweep = clearing.sweep_guess

    def counted_sweep(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(clearing, "sweep_guess", counted_sweep)
    bids, asks, avails, prev, weights = market
    result = clear_market_proximal(bids, asks, avails, P, prev_s=prev, weights=weights)
    assert len(sweeps) == (not sold_out)
    if not sold_out:
        _assert_proximal_matches_reference(*market)
        assert result.s != tuple(a if a > 0 else 0.0 for a in avails)
        return
    mu, s = proximal_clearing_reference(bids, asks, avails, P.p, prev, weights)
    assert result.mu == mu == math.fsum(bids) / math.fsum(avails)
    assert [v.hex() for v in result.s] == [v.hex() for v in s] == [(a if a > 0 else 0.0).hex() for a in avails]
    assert result.d == tuple(b / max(mu, P.p) if b > BID_FLOOR else 0.0 for b in bids)


@st.composite
def sold_out_screen_markets(draw):
    """Up to 12 sellers whose availabilities include 0.0, -0.0 and values
    down to 1e-200, prev_s anywhere in [0, a_j] (often all of a_j, as after
    a capped round), weights over 1e-4..1e4, and bids scaled so that demand
    at the top breakpoint lands at, just above or well above all that is
    offered, or below it."""
    asks, avails, prev, weights = [], [], [], []
    capped = draw(st.booleans())
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        asks.append(draw(st.one_of(st.just(P.p), ask_values, st.floats(min_value=0.25, max_value=2.0))))
        a = draw(st.one_of(
            st.sampled_from((0.0, -0.0)),
            avail_values,
            st.floats(min_value=-200.0, max_value=2.0).map(lambda e: 10.0 ** e),
        ))
        avails.append(a)
        if capped or a <= 0:
            prev.append(a if capped else 0.0)
        else:
            prev.append(draw(st.one_of(st.just(a), st.floats(min_value=0.0, max_value=a))))
        weights.append(10.0 ** draw(st.floats(min_value=-4.0, max_value=4.0)))
    bids = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=5))
    offered = [j for j, a in enumerate(avails) if a > 0]
    assume(offered)
    top = max([P.p] + [asks[j] + weights[j] * (avails[j] - prev[j]) for j in offered])
    ratio = draw(st.sampled_from((0.5, 1.0, 1.0 + 1e-15, 1.0 + 1e-12, 1.001, 2.0, 1e3)))
    scale = math.fsum(avails) * top * ratio / math.fsum(bids)
    return tuple(b * scale for b in bids), tuple(asks), tuple(avails), tuple(prev), tuple(weights)


@settings(deadline=None, max_examples=200)
@given(market=sold_out_screen_markets())
# the 3.6e-48 seller's ask is top, so its clipped response at mu = top
# rounds to 0.0: a sold-out round still sells it exactly its availability
@example(market=(
    (3.6437788345794533, 7.315881902850755, 0.3403125558710455, 1.7627052836099695),
    (0.2932466014380562, 0.06403759948604906),
    (3.5719004281554366e-48, 44.54502972192334),
    (0.0, 44.54502972192334),
    (11.351034766225835, 0.010914849006329053),
))
# the clipped response of the 0.044 seller with weight 1596 at mu rounds
# one ulp below its availability
@example(market=(
    (0.007239818853923067, 3.127517836760476),
    (1.6271469517532648, 0.25, 0.003930846919581278, 0.25, 0.25, 0.25),
    (1.8510698032042624e-25, 0.0, 0.0, 2.073273014185455e-147, 0.04424237241424489, 0.0),
    (3.0366956169180316e-26, 0.0, 0.0, 1.515507584445381e-147, 0.0, 0.0),
    (0.20905644098502557, 0.5719174559040668, 0.00013350816982512291, 168.77688246283316,
     1595.850098989365, 0.0005256865257837813),
))
def test_a_round_past_the_sold_out_screen_sells_every_availability(market):
    # Past the screen, with prev_s clipped to [0, a_j] or not, every seller
    # sells exactly abs(a_j), a seller offering -0.0 sells 0.0, and the
    # price is max(total_bid / total_avail, top).
    bids, asks, avails, prev, weights = market
    result = clear_market_proximal(bids, asks, avails, P, prev_s=prev, weights=weights)
    total_bid = math.fsum(b for b in bids if b > BID_FLOOR)
    total_avail = math.fsum(avails)
    top = max(
        [P.p]
        + [c + w * (a - min(max(v, 0.0), a)) for c, a, v, w in zip(asks, avails, prev, weights) if a > 0]
    )
    if not total_bid / top > total_avail:
        return
    assert [v.hex() for v in result.s] == [abs(a).hex() for a in avails]
    assert result.mu == max(total_bid / total_avail, top)
    assert result.d == tuple(b / max(result.mu, P.p) if b > BID_FLOOR else 0.0 for b in bids)


@pytest.mark.parametrize(
    "bids, asks, avails",
    [
        ((3.0, 0.4), (0.4, 0.1), (1.0, 2.0)),
        # the highest ask belongs to a seller with nothing to offer
        ((0.9, 0.0), (0.1, 0.2, 5.0), (1.0, 2.0, 0.0)),
        # -0.0 and a bid at the floor
        ((1.0, 1e-9), (0.15, 0.1), (-0.0, 2.0)),
        # tied asks, and availabilities down to 1e-200
        ((2.5, 0.7, 1.1), (0.2, 0.2, 0.05, 0.25), (1e-200, 0.75, 1.5, 1e-17)),
        # asks above p
        ((40.0,), (0.3, 0.9, 0.6), (3.0, 1e-3, 2.0)),
    ],
)
def test_exact_and_all_capped_clearing_share_the_sold_out_exit(monkeypatch, bids, asks, avails):
    # Sold-out markets whose sellers all sat at their availability: exact
    # clearing and the proximal screen with no seller pass return the same
    # price, demands and allocations bit for bit, whatever the weights.
    exits = []
    sold_out = clearing._sold_out
    monkeypatch.setattr(clearing, "_sold_out", lambda *args: exits.append(args) or sold_out(*args))
    exact = clear_market(bids, asks, avails, P)
    weights = tuple(10.0 ** (j % 5 - 2) for j in range(len(asks)))
    proximal = clear_market_proximal(bids, asks, avails, P, prev_s=avails, weights=weights)
    assert len(exits) == 2
    assert exact.mu.hex() == proximal.mu.hex()
    assert [v.hex() for v in exact.d] == [v.hex() for v in proximal.d]
    assert [v.hex() for v in exact.s] == [v.hex() for v in proximal.s]
    assert exact.buyer_budget_active == proximal.buyer_budget_active


def test_proximal_price_keeps_digits_with_inelastic_supply():
    # One capped seller and one interior seller with weight 1e4: the root of
    # k*mu^2 + beta*mu = B with beta >> k*mu, where the textbook form
    # (-beta + sqrt(disc)) / (2k) cancels and loses about 5e-12 relative.
    _assert_proximal_matches_reference((3.0,), (0.05, 0.1), (6.0, 6.0), (6.0, 0.0), (1.0, 1e4))


def test_sold_out_price_in_the_rounding_gap_is_clamped_not_refused():
    # Demand lands between a supply sum that rounds low and fsum(avails), so
    # total_bid / total_avail falls just under p: exact clearing's running
    # sum of availabilities, and proximal supply at the top breakpoint where
    # every seller should be capped. Both used to raise.
    exact = clear_market(
        (3.4249999999999994,),
        (0.10277908644295872, 0.11221747210442294, 0.13805528138833134, 0.15024020353597256,
         0.17280914970622652, 0.2077853421681139, 0.21470318335846195),
        (3.3, 3.3, 3.3, 0.2, 0.1, 0.2, 3.3),
        P,
    )
    proximal = clear_market_proximal(
        (0.9999999999999999,),
        (0.22558281622046913, 0.214684059543743, 0.24083528822967323, 0.18806600604204138),
        (1.0,) * 4,
        P,
        prev_s=(0.34420100553679467, 0.6350756975386669, 0.45142345920198235, 0.08614935659889933),
        weights=(0.037232725249170595, 0.09677607168955, 0.016706350142123853, 0.06777255605736332),
    )
    for result in (exact, proximal):
        assert result.mu == P.p
        assert result.buyer_budget_active == (True,)
        assert result.kkt_residual <= 1e-12


@pytest.mark.parametrize(
    "market",
    [
        ((20001.6 * 2e4,), (0.1, 1e4, 2e4), (1e9, 1.0, 1.0), (0.7, 0.0, 0.0), (1.0, 1e-4, 1.0)),
        ((20001.4 * 2e4 + 2e-6,), (0.1, 1e4, 2e4), (1e9, 1.0, 1.0), (0.5, 0.0, 0.0), (1.0, 1e-4, 1.0)),
    ],
    ids=["guess above the bracket", "guess below the bracket"],
)
def test_proximal_price_when_the_sweep_misplaces_the_bracket(missed_guesses, market):
    # The seller asking 1e4 with weight 1e-4 adds about -1e8 to the running
    # intercept and takes it back below the bracket, leaving a rounding
    # residue of about 6e-9 (its sign set by the first seller's prev). Demand
    # meets supply within 1e-10 of the third seller's lower kink at 2e4, so
    # the sweep guesses one breakpoint off and the exact search must recover.
    misses = missed_guesses(clearing)
    _assert_proximal_matches_reference(*market)
    assert misses == [True]


# A market with faults in several inputs at once reports the first in a
# fixed order: weights, previous allocations, bids, availabilities, asks,
# then the bid total and the availability total. Every list keeps its clean
# tuple, the same object in each case, where it has no fault.
_FAULTS = ["weights", "prev_s", "bids", "avails", "asks", "bid total", "avail total"]
_CLEAN = {
    "weights": (0.5, 0.5, 0.5),
    "prev_s": (0.0, 0.0, 0.0),
    "bids": (1.0, 0.5, 1.0),
    "avails": (2.0, 1.0, 1.0),
    "asks": (0.2, 0.3, 0.4),
}


def _faulty_inputs(first, bad):
    """The inputs with every fault from _FAULTS[first] on, bad being the
    faulty value of the weights, bids, availabilities and asks."""
    on = set(_FAULTS[first:])
    faulty = {
        "weights": (0.5, 0.5, bad),
        "prev_s": (0.0, 0.0, math.nan),
        "bids": (1.0, 0.5, bad),
        "avails": (2.0, 1.0, bad),
        "asks": (bad, 0.3, 0.4),
    }
    inputs = {name: faulty[name] if name in on else _CLEAN[name] for name in _CLEAN}
    for total, name in (("bid total", "bids"), ("avail total", "avails")):
        if total in on:
            inputs[name] = (1e308, 1e308, inputs[name][2])
    return inputs


def _first_fault_message(fault, bad):
    return {
        "weights": f"proximal weights must be positive and finite, got {bad}",
        "prev_s": "previous allocations must be finite, got nan",
        "bids": f"bids must be finite and >= 0, got {bad}",
        "avails": f"availabilities must be finite and >= 0, got {bad}",
        "asks": f"asks of offering sellers must be positive and finite, got {bad}",
        "bid total": "the bids sum past the largest float",
        "avail total": "the availabilities sum past the largest float",
    }[fault]


def _clear(inputs):
    return clear_market_proximal(
        inputs["bids"], inputs["asks"], inputs["avails"], P,
        prev_s=inputs["prev_s"], weights=inputs["weights"],
    )


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "after a clean call"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("first", range(len(_FAULTS)), ids=_FAULTS)
def test_the_first_of_several_faults_is_the_one_reported(first, bad, warm):
    if warm:
        _clear(_CLEAN)
    with pytest.raises(ValueError) as err:
        _clear(_faulty_inputs(first, bad))
    assert str(err.value) == _first_fault_message(_FAULTS[first], bad)


# clear_market_proximal keeps the availabilities, asks and weights of its
# last call in clearing._checked, and skips their checks when the next call
# passes the very same tuples of floats. These tests pin that a skip changes
# no result and no error.


def _bits(result):
    """A ClearingResult's fields as float.hex strings where they are floats,
    so that -0.0 and 0.0 differ."""
    floats = (result.d, result.s, result.bids, result.asks, result.avails)
    mu = None if result.mu is None else result.mu.hex()
    return [[v.hex() for v in values] for values in floats], mu, result.buyer_budget_active


def test_a_list_is_checked_on_every_call(cold_checks):
    """A list can change between two calls, so it is never kept: one
    changed in place clears to its new values."""
    inputs = {name: list(values) for name, values in _PROX_INPUTS.items()}
    first = _clear(inputs)
    assert not any(
        kept is given for kept in clearing._checked for given in inputs.values()
    )
    inputs["avails"][1] = 3.0
    inputs["asks"][0] = 0.25
    inputs["weights"][1] = 2.0
    moved = _clear(inputs)
    cold_checks()
    cold = _clear({name: tuple(values) for name, values in inputs.items()})
    assert _bits(moved) == _bits(cold) != _bits(first)


@pytest.mark.parametrize("name", ["avails", "asks", "weights"])
def test_a_list_changed_to_a_fault_is_refused(cold_checks, name):
    inputs = {name: list(values) for name, values in _PROX_INPUTS.items()}
    _clear(inputs)
    inputs[name][1] = math.nan
    with pytest.raises(ValueError, match="got nan"):
        _clear(inputs)


@pytest.mark.parametrize(
    "number, asks, avails, weights",
    [
        (int, (1, 2), (2, 1), (1, 3)),
        (Fraction, (Fraction(1, 5), Fraction(3, 10)), (Fraction(2), Fraction(1)), (Fraction(1, 2),) * 2),
    ],
    ids=["int", "Fraction"],
)
def test_a_tuple_of_other_numbers_is_checked_on_every_call(
    cold_checks, checked_names, number, asks, avails, weights
):
    """float() makes new floats of ints and Fractions, so a tuple of them is
    not the tuple that was checked, and is checked again on the next call."""
    inputs = {**_PROX_INPUTS, "asks": asks, "avails": avails, "weights": weights}
    results = [_bits(_clear(inputs)) for _ in range(2)]
    assert checked_names == 2 * ["proximal weights", "availabilities", "asks of offering sellers"]
    floats = {name: tuple(map(float, values)) for name, values in inputs.items()}
    assert results == 2 * [_bits(_clear(floats))]


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("name", ["avails", "asks", "weights", "bids"])
def test_a_fresh_faulty_tuple_after_a_warm_call_is_refused(cold_checks, name, bad):
    """After a call that kept its tuples, a new tuple with a fault raises
    the message a cold call raises."""
    _clear(_PROX_INPUTS)
    assert clearing._checked[0] is _PROX_INPUTS["avails"]
    inputs = {**_PROX_INPUTS, name: (_PROX_INPUTS[name][0], bad)}
    message = {
        "avails": f"availabilities must be finite and >= 0, got {bad}",
        "asks": f"asks of offering sellers must be positive and finite, got {bad}",
        "weights": f"proximal weights must be positive and finite, got {bad}",
        "bids": f"bids must be finite and >= 0, got {bad}",
    }[name]
    with pytest.raises(ValueError) as err:
        _clear(inputs)
    assert str(err.value) == message


def test_kept_asks_are_checked_again_against_other_availabilities(cold_checks):
    """Asks are kept as checked against one availabilities tuple, where a
    seller with nothing to offer may ask 0.0, and weights for one seller
    count: the same asks with other availabilities, or the same weights for
    other sellers, are checked again."""
    asks, weights = (0.0, 0.3), (0.5, 0.5)
    _clear({**_PROX_INPUTS, "asks": asks, "avails": (0.0, 1.0), "weights": weights})
    with pytest.raises(ValueError) as err:
        _clear({**_PROX_INPUTS, "asks": asks, "avails": (2.0, 1.0), "weights": weights})
    assert str(err.value) == "asks of offering sellers must be positive and finite, got 0.0"
    with pytest.raises(ValueError) as err:
        _clear({
            "bids": (1.0,), "asks": (0.2, 0.3, 0.4), "avails": (1.0, 1.0, 1.0),
            "prev_s": (0.0, 0.0, 0.0), "weights": weights,
        })
    assert str(err.value) == "2 proximal weights vs 3 sellers"


def test_threads_sharing_the_memo_clear_as_cold(cold_checks):
    """Threads that alternate three markets through the one-entry memo, with
    a short switch interval, each get every clearing bit for bit as cold.
    Two of the markets share one availabilities tuple but not their asks,
    and the third has another seller count: a call may check its inputs
    again, never skip a check another market's inputs passed."""
    rng = random.Random(8)
    avails = tuple(rng.uniform(0.5, 3.0) for _ in range(6))
    markets = []
    for n_s, shared in ((6, True), (6, True), (4, False)):
        markets.append({
            "bids": tuple(rng.uniform(0.0, 2.0) for _ in range(8)),
            "asks": tuple(rng.uniform(0.05, 0.25) for _ in range(n_s)),
            "avails": avails if shared else tuple(rng.uniform(0.5, 3.0) for _ in range(n_s)),
            "prev_s": tuple(rng.uniform(0.0, 1.0) for _ in range(n_s)),
            "weights": tuple(rng.uniform(0.01, 1.0) for _ in range(n_s)),
        })
    expected = []
    for market in markets:
        cold_checks()
        expected.append(_bits(_clear(market)))
    wrong = []

    def work(offset):
        for k in range(300):
            n = (k + offset) % 3
            try:
                if _bits(_clear(markets[n])) != expected[n]:
                    wrong.append(n)
            except Exception as exc:  # lost with the thread otherwise
                wrong.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
