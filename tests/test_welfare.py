import hashlib
import math
import random
import sys

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from microgrid_auction import welfare
from microgrid_auction.clearing import BID_FLOOR, ClearingResult, clear_market, kkt_residual
from microgrid_auction.market import BuyerState, MarketParams, SellerState
from microgrid_auction.utility import LogUtility, demands, supplies
from microgrid_auction.welfare import (
    efficiency_gap,
    social_welfare,
    solve_welfare,
)

from oracles import best_welfare_by_grid, dual_bound, welfare_price_reference

P = MarketParams()


def _random_instance(rng, nb, ns, buyer_x=(0.3, 1.5), seller_x=(0.1, 0.6)):
    buyers = [BuyerState(rng.uniform(*buyer_x), rng.uniform(1.0, 2.0)) for _ in range(nb)]
    sellers = [
        SellerState(rng.uniform(*seller_x), rng.uniform(1.0, 2.0), rng.uniform(1.0, 5.0))
        for _ in range(ns)
    ]
    bids = [rng.uniform(0.05, 1.2) for _ in range(nb)]
    avails = [rng.uniform(0.2, 1.0) * s.g for s in sellers]
    return buyers, sellers, bids, avails


def test_social_welfare_matches_hand_sum():
    buyers = [BuyerState(1.0, 1.0)]
    sellers = [SellerState(1.0, 1.0, 4.0)]
    total = social_welfare(buyers, sellers, (1.0,), (1.0,))
    assert total == pytest.approx(math.log(2.0) + math.log(4.0))


def test_social_welfare_validation():
    buyers = [BuyerState(1.0, 1.0)]
    sellers = [SellerState(1.0, 1.0, 2.0)]
    with pytest.raises(ValueError):
        social_welfare(buyers, sellers, (1.0, 1.0), (0.5,))
    with pytest.raises(ValueError):
        social_welfare(buyers, sellers, (1.0,), ())
    with pytest.raises(ValueError):
        social_welfare(buyers, sellers, (-0.5,), (0.5,))
    with pytest.raises(ValueError):
        social_welfare(buyers, sellers, (1.0,), (2.5,))  # sells more than g


@pytest.mark.parametrize(
    "d, s, message",
    [
        ((math.nan,), (0.5,), "buyer allocation out of range: nan"),
        ((math.inf,), (0.5,), "buyer allocation out of range: inf"),
        ((-math.inf,), (0.5,), "buyer allocation out of range: -inf"),
        ((-2e-9,), (0.5,), "buyer allocation out of range: -2e-09"),
        ((1.0,), (math.nan,), "seller allocation out of range: nan (g=2.0)"),
        ((1.0,), (math.inf,), "seller allocation out of range: inf (g=2.0)"),
        ((1.0,), (-math.inf,), "seller allocation out of range: -inf (g=2.0)"),
        ((1.0,), (-3e-9,), "seller allocation out of range: -3e-09 (g=2.0)"),
        ((1.0,), (2.000000005,), "seller allocation out of range: 2.000000005 (g=2.0)"),
    ],
)
def test_social_welfare_names_the_allocation_out_of_range(d, s, message):
    # The range test is one chained comparison against inf per allocation;
    # NaN and both infinities fail it with the message of the finite test.
    buyers = [BuyerState(1.0, 1.0)]
    sellers = [SellerState(1.0, 1.0, 2.0)]
    with pytest.raises(ValueError) as err:
        social_welfare(buyers, sellers, d, s)
    assert str(err.value) == message


def test_social_welfare_range_ends_are_inclusive_and_an_infinite_bound_refuses_inf():
    buyers = [BuyerState(1.0, 1.0)]
    assert social_welfare(buyers, [SellerState(1.0, 1.0, 2.0)], (-1e-9,), (-2e-9,)) == (
        social_welfare(buyers, [SellerState(1.0, 1.0, 2.0)], (0.0,), (0.0,))
    )
    # g + slack rounds up to inf for the largest g, so only the finite
    # test keeps an infinite allocation out
    g = sys.float_info.max
    assert g + 1e-9 * g == math.inf
    with pytest.raises(ValueError, match=r"^seller allocation out of range: inf \(g="):
        social_welfare(buyers, [SellerState(1.0, 1.0, g)], (0.0,), (math.inf,))


def test_no_trade_when_sides_never_cross():
    # keenest buyer's choke price sits below the cheapest marginal value of
    # retained energy, so autarky is optimal
    buyers = [BuyerState(0.01, 1.0)]
    sellers = [SellerState(1.0, 1.0, 1.0)]
    sol = solve_welfare(buyers, sellers, (1.0,), (1.0,), P)
    assert sol.no_trade
    assert sol.d_star == (0.0,)
    assert sol.s_star == (0.0,)
    assert sol.theta == pytest.approx(social_welfare(buyers, sellers, (0.0,), (0.0,)))


def test_no_trade_on_empty_or_parked_sides():
    buyers = [BuyerState(1.0, 1.0)]
    sellers = [SellerState(0.3, 1.0, 2.0)]
    assert solve_welfare([], sellers, (), (1.0,), P).no_trade
    assert solve_welfare(buyers, [], (1.0,), (), P).no_trade
    assert solve_welfare(buyers, sellers, (0.0,), (1.0,), P).no_trade
    assert solve_welfare(buyers, sellers, (1.0,), (0.0,), P).no_trade


def test_solution_is_feasible_and_beats_autarky():
    rng = random.Random(31)
    for _ in range(200):
        nb = rng.randint(1, 4)
        ns = rng.randint(1, 4)
        buyers, sellers, bids, avails = _random_instance(rng, nb, ns)
        sol = solve_welfare(buyers, sellers, bids, avails, P)
        assert math.fsum(sol.d_star) == pytest.approx(math.fsum(sol.s_star), abs=1e-9)
        for di, bi in zip(sol.d_star, bids):
            assert -1e-12 <= di
            assert P.p * di <= bi + 1e-9
        for sj, aj in zip(sol.s_star, avails):
            assert -1e-12 <= sj <= aj + 1e-9
        autarky = social_welfare(
            buyers, sellers, (0.0,) * nb, (0.0,) * ns
        )
        assert sol.theta >= autarky - 1e-12


def test_matches_grid_search_on_small_instances():
    rng = random.Random(92)
    checked = 0
    for _ in range(120):
        nb = rng.randint(1, 2)
        ns = rng.randint(1, 2)
        buyers, sellers, bids, avails = _random_instance(
            rng, nb, ns, buyer_x=(0.5, 1.5), seller_x=(0.1, 0.4)
        )
        sol = solve_welfare(buyers, sellers, bids, avails, P)
        reference = best_welfare_by_grid(buyers, sellers, bids, avails, P)
        assert abs(sol.theta - reference) <= 2e-3
        assert sol.theta >= reference - 2e-3  # never beaten by the oracle
        checked += 1
    assert checked == 120


def test_optimum_satisfies_clearing_kkt_under_truthful_quotes():
    """Map the planner optimum back into a clearing: with bids mu*.d_i* and
    asks at retained marginal value, (d*, s*, mu*) must pass the clearing
    optimality check."""
    rng = random.Random(47)
    checked = 0
    for _ in range(200):
        nb = rng.randint(1, 3)
        ns = rng.randint(1, 3)
        buyers, sellers, _, avails = _random_instance(rng, nb, ns)
        bids = [10.0] * nb  # generous budgets so no cap binds
        sol = solve_welfare(buyers, sellers, bids, avails, P)
        if sol.no_trade or sol.mu_star <= P.p:
            continue
        mapped_bids = tuple(sol.mu_star * di for di in sol.d_star)
        mapped_asks: list[float] = []
        for seller, sj, aj in zip(sellers, sol.s_star, avails):
            if aj <= 0:
                mapped_asks.append(0.0)
                continue
            ask = LogUtility(seller.x, seller.y).marginal(seller.g - sj)
            mapped_asks.append(min(ask, sol.mu_star))
        result = ClearingResult(
            d=sol.d_star,
            s=sol.s_star,
            mu=sol.mu_star,
            bids=mapped_bids,
            asks=tuple(mapped_asks),
            avails=tuple(avails),
            params=P,
        )
        residual = kkt_residual(result)
        assert residual <= 1e-6
        checked += 1
    assert checked >= 100


def test_permutation_invariance():
    rng = random.Random(5)
    buyers, sellers, bids, avails = _random_instance(rng, 4, 3)
    base = solve_welfare(buyers, sellers, bids, avails, P)
    order_b = [2, 0, 3, 1]
    order_s = [1, 2, 0]
    shuffled = solve_welfare(
        [buyers[i] for i in order_b],
        [sellers[j] for j in order_s],
        [bids[i] for i in order_b],
        [avails[j] for j in order_s],
        P,
    )
    assert shuffled.theta == pytest.approx(base.theta, rel=1e-12)
    assert shuffled.mu_star == pytest.approx(base.mu_star, rel=1e-12)
    for i, src in enumerate(order_b):
        assert shuffled.d_star[i] == pytest.approx(base.d_star[src], abs=1e-12)


def test_welfare_never_below_any_clearing_outcome():
    # the planner sees the same constraint set, so theta bounds the welfare of
    # whatever allocation the bid-driven solver picks
    rng = random.Random(13)
    for _ in range(100):
        nb = rng.randint(1, 4)
        ns = rng.randint(1, 4)
        buyers, sellers, bids, avails = _random_instance(rng, nb, ns)
        cleared = clear_market(bids, [0.9 * P.p] * ns, avails, P)
        attained = social_welfare(buyers, sellers, cleared.d, cleared.s)
        sol = solve_welfare(buyers, sellers, bids, avails, P)
        assert sol.theta >= attained - 1e-9


def test_efficiency_gap():
    assert efficiency_gap(1.0, 1.0) == 0.0
    assert efficiency_gap(0.9, 1.0) == pytest.approx(10.0)
    assert efficiency_gap(1.1, 1.0) == pytest.approx(-10.0)
    with pytest.raises(ValueError):
        efficiency_gap(0.5, 0.0)
    with pytest.raises(ValueError):
        efficiency_gap(0.5, -1.0)


def test_input_length_validation():
    buyers = [BuyerState(1.0, 1.0)]
    sellers = [SellerState(0.3, 1.0, 2.0)]
    with pytest.raises(ValueError):
        solve_welfare(buyers, sellers, (1.0, 1.0), (1.0,), P)
    with pytest.raises(ValueError):
        solve_welfare(buyers, sellers, (1.0,), (1.0, 1.0), P)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_input_value_validation(bad):
    # non-finite or negative quotes used to pass as parked buyers, inert
    # sellers or, for an infinite bid, an uncapped budget; a bid of -0.0
    # is >= 0, a bid of nothing
    buyers = [BuyerState(1.0, 1.0), BuyerState(0.8, 1.5)]
    sellers = [SellerState(0.3, 1.0, 2.0), SellerState(0.2, 1.2, 3.0)]
    with pytest.raises(ValueError) as err:
        solve_welfare(buyers, sellers, (1.0, bad), (1.0, 1.0), P)
    assert str(err.value) == f"bids must be finite and >= 0, got {bad} from buyer 1"
    with pytest.raises(ValueError, match="availabilities"):
        solve_welfare(buyers, sellers, (1.0, 1.0), (bad, 1.0), P)
    assert solve_welfare(buyers, sellers, (1.0, -0.0), (1.0, 1.0), P).d_star[1] == 0.0


@pytest.mark.parametrize(
    "buyer, seller, bid, message",
    [
        ((1.0, 1.0), (0.3, 1.0, 2.0), 1e308,
         r"budget cap b/p of buyer 0 overflows: bid 1e\+308 at floor price 0.25"),
        ((1e200, 1e200), (0.3, 1.0, 2.0), 1.0,
         r"choke price x\*y must be positive and finite, got inf \(x=1e\+200, y=1e\+200\)"),
        ((1.0, 1.0), (1e-200, 1e-200, 2.0), 1.0,
         r"choke price x\*y must be positive and finite, got 0.0 \(x=1e-200, y=1e-200\)"),
        ((1e-150, 1e100), (0.3, 1.0, 2.0), 1e300,
         r"cap kink x\*y/\(y\*b/p \+ 1\) of buyer 0 underflows to 0.0: "
         r"bid 1e\+300 \(x=1e-150, y=1e\+100\)"),
    ],
    ids=[
        "budget cap b/p overflows", "choke price x*y overflows", "seller kink x*y underflows",
        "buyer cap kink underflows",
    ],
)
def test_planner_keeps_the_utility_checks(buyer, seller, bid, message):
    # The planner writes LogUtility.marginal and inverse_marginal out, so a
    # breakpoint or price outside their domain must be refused before it:
    # an overflowing budget cap by the planner, naming the buyer, and a
    # choke price x*y out of range by the agent, naming x and y, and a cap
    # kink x*y/(y*b/p + 1) that underflows to 0.0 by the planner, naming the
    # buyer. The agents are built here, since a refused one cannot be built
    # at collection.
    with pytest.raises(ValueError, match=message):
        solve_welfare([BuyerState(*buyer)], [SellerState(*seller)], (bid,), (1.0,), P)


def test_planner_takes_a_cap_kink_whose_y_b_over_p_overflows():
    """A buyer bidding its scale x, as the auction can settle it, where
    y*b/p overflows: x*y/(y*b/p + 1) rounds to 0.0, but the kink is
    x/(b/p + 1/y) = 0.25, which the planner must use, not refuse. The
    linear-scan oracle takes the kink the second way too, and agrees: the
    buyer demands x/mu - 1/y, below its cap, and takes all the seller
    offers."""
    x, y = 1.1089155930442293e188, 1.2011709478848512e120
    assert math.isinf(y * (x / P.p))
    buyers, sellers = [BuyerState(x, y)], [SellerState(0.3, 1.5, 3.0)]
    sol = solve_welfare(buyers, sellers, (x,), (2.0,), P)
    assert sol.d_star == sol.s_star == (2.0,)
    assert x / sol.mu_star - 1.0 / y == pytest.approx(2.0, rel=1e-12)
    assert sol.mu_star == welfare_price_reference(buyers, sellers, (x,), (2.0,), P.p) == 5.544577965221147e187


@st.composite
def welfare_markets(draw):
    """Up to 60 agents per side. Bids are parked (<= BID_FLOOR), small enough
    for the budget cap b/p to bind, or ample; availabilities are 0, part of
    g, g, or above g. Weak buyers (choke prices x*y of at most 0.06) often
    never reach the sellers' marginal values, so some markets do not trade."""
    weak = draw(st.booleans())
    buyers, bids = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        lo, hi = (1e-3, 0.02) if weak else (0.05, 2.0)
        x = draw(st.floats(min_value=lo, max_value=hi))
        buyers.append(BuyerState(x, draw(st.floats(min_value=0.5, max_value=3.0))))
        bids.append(
            draw(
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=0.0, max_value=BID_FLOOR),
                    st.floats(min_value=1e-4, max_value=0.05),
                    st.floats(min_value=0.05, max_value=20.0),
                )
            )
        )
    sellers, avails = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        g = draw(st.floats(min_value=0.5, max_value=5.0))
        x = draw(st.floats(min_value=0.1, max_value=1.0))
        sellers.append(SellerState(x, draw(st.floats(min_value=0.5, max_value=3.0)), g))
        avails.append(
            draw(
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=0.0, max_value=g),
                    st.just(g),
                    st.floats(min_value=g, max_value=3.0 * g),
                )
            )
        )
    return buyers, sellers, tuple(bids), tuple(avails)


@settings(deadline=None, max_examples=200)
@given(market=welfare_markets())
@example(market=([BuyerState(0.01, 1.0)], [SellerState(0.5, 1.0, 2.0)], (1.0,), (2.0,)))
# A tiny supply meets a buyer whose choke kink x*y ends the bracket. In the
# first the segment's root lies an ulp below the kink, where both trade; in
# the second it rounds onto the kink, where neither may.
@example(
    market=(
        [BuyerState(0.02, 1.75), BuyerState(1.046773159077356, 1.2165393924939536)],
        [SellerState(1.0, 2.151145935323634, 4.965083712947362)],
        (0.031568481358613634, 0.027960397480625142),
        (1.7401165611240843e-199,),
    )
)
@example(
    market=([BuyerState(1.0, 1.0)], [SellerState(1.0, 1.0, 1.0)], (0.03125,), (3.122407806259719e-308,))
)
def test_welfare_price_matches_linear_scan_reference(market):
    buyers, sellers, bids, avails = market
    sol = solve_welfare(buyers, sellers, bids, avails, P)
    mu = welfare_price_reference(buyers, sellers, bids, avails, P.p)
    assert sol.no_trade == (mu is None)
    if mu is None:
        return
    assert math.isclose(sol.mu_star, mu, rel_tol=1e-12)
    total_d = math.fsum(sol.d_star)
    assert abs(total_d - math.fsum(sol.s_star)) <= 1e-12 * max(1.0, total_d)


@pytest.mark.parametrize(
    "x_keen, x_flat, flat_bid",
    [(0.323076923076923, 4e6, 0.123), (0.32307692307692304, 5e6, 0.3)],
    ids=["guess above the bracket", "guess below the bracket"],
)
def test_welfare_price_when_the_sweep_misplaces_the_bracket(missed_guesses, x_keen, x_flat, flat_bid):
    # The buyer with y = 1e-8 adds -1e8 to the running B and x_flat to A and
    # takes both back below every kink of the grid, leaving rounding residue
    # of about 1e-8. The keen buyer's demand meets the seller's capped supply
    # of 1.5 at the seller's upper kink up to a few ulps, so the sweep
    # guesses one kink off and the exact search must recover.
    misses = missed_guesses(welfare)
    buyers = [BuyerState(x_keen, 1.2), BuyerState(x_flat, 1e-8)]
    sellers = [SellerState(0.3, 1.5, 3.0)]
    bids, avails = (20.0, flat_bid), (1.5,)
    sol = solve_welfare(buyers, sellers, bids, avails, P)
    mu = welfare_price_reference(buyers, sellers, bids, avails, P.p)
    assert misses == [True]
    assert math.isclose(sol.mu_star, mu, rel_tol=1e-12)
    total_d = math.fsum(sol.d_star)
    assert abs(total_d - math.fsum(sol.s_star)) <= 1e-12 * max(1.0, total_d)


def test_planner_outputs_are_pinned_bit_for_bit():
    """A change that only speeds the planner up leaves every bit of its
    solutions as it is. The digest was recorded while the planner still
    called LogUtility per agent. Every third market has a parked buyer and a
    seller with nothing to offer, and buyer scales from 0.02 leave five of
    the 240 markets without trade."""
    rng = random.Random(2024)
    digest = hashlib.sha256()
    no_trade = 0
    for n in range(240):
        nb, ns = rng.randint(1, 30), rng.randint(1, 30)
        buyers, sellers, bids, avails = _random_instance(rng, nb, ns, buyer_x=(0.02, 1.5))
        if n % 3 == 0:
            bids[0] = 0.0
            avails[-1] = 0.0
        sol = solve_welfare(buyers, sellers, bids, avails, P)
        no_trade += sol.no_trade
        digest.update(repr((sol.d_star, sol.s_star, sol.mu_star, sol.theta)).encode())
    assert no_trade == 5
    assert digest.hexdigest() == "f93ab9f34357f4a50cd72851772947571756f8d6f33ee8dd1beef46fc63b8bcd"


def test_planner_optimum_meets_the_dual_bound():
    """Weak duality caps every balanced allocation's welfare at L(mu) for
    any mu, so the planner's optimum theta* may not fall short of L at its
    own price mu*: theta* >= L(mu*) - 5e-15 * theta* on the 235 trading
    markets of the pinned planner instances, ten times the worst measured
    (5.4e-16). A check that needs no verdict of the planner's own price
    search; it adds to the linear-scan and grid references, not in place of
    them."""
    rng = random.Random(2024)
    traded = 0
    for n in range(240):
        nb, ns = rng.randint(1, 30), rng.randint(1, 30)
        buyers, sellers, bids, avails = _random_instance(rng, nb, ns, buyer_x=(0.02, 1.5))
        if n % 3 == 0:
            bids[0] = 0.0
            avails[-1] = 0.0
        sol = solve_welfare(buyers, sellers, bids, avails, P)
        if sol.no_trade:
            continue
        traded += 1
        bound = dual_bound(buyers, sellers, tuple(bids), tuple(avails), P.p, sol.mu_star)
        assert sol.theta >= bound - 5e-15 * sol.theta, f"market {n}"
        assert bound >= sol.theta - 5e-15 * sol.theta, f"market {n}"
    assert traded == 235


def test_written_out_responses_match_the_utility_exactly(monkeypatch):
    """The planner's buyer demand and the seller supply rule, evaluated from
    per-agent constants, are bit for bit min(inverse_marginal(mu), b/p) and
    min(max(g - inverse_marginal(mu), 0), a) at every breakpoint the planner
    sorts and at random prices between and beyond them."""
    grids = []
    sweep = welfare.sweep_guess

    def spy(events, slope, total, p):
        grid, guess = sweep(events, slope, total, p)
        grids.append(list(grid))
        return grid, guess

    monkeypatch.setattr(welfare, "sweep_guess", spy)
    rng = random.Random(61)
    checked = 0
    for _ in range(40):
        buyers, sellers, bids, avails = _random_instance(
            rng, rng.randint(1, 12), rng.randint(1, 12), buyer_x=(0.02, 1.5)
        )
        avails[0] = 2.0 * sellers[0].g  # an availability above g caps at g
        solve_welfare(buyers, sellers, bids, avails, P)
        grid = grids.pop()
        prices = grid + [rng.uniform(0.5 * grid[0], 2.0 * grid[-1]) for _ in range(20)]
        buyer_k = [(b.x, 1.0 / b.y, bid / P.p) for b, bid in zip(buyers, bids)]
        seller_k = [(s.x, 1.0 / s.y, s.g, a) for s, a in zip(sellers, avails)]
        for mu in prices:
            expected_d = [
                min(LogUtility(b.x, b.y).inverse_marginal(mu), bid / P.p)
                for b, bid in zip(buyers, bids)
            ]
            expected_s = [
                min(max(s.g - LogUtility(s.x, s.y).inverse_marginal(mu), 0.0), a)
                for s, a in zip(sellers, avails)
            ]
            assert [q.hex() for q in demands(buyer_k, mu)] == [q.hex() for q in expected_d]
            assert [q.hex() for q in supplies(seller_k, mu)] == [q.hex() for q in expected_s]
            checked += 1
    assert checked >= 40 * 20 + 40 * 4


def _choke_price_repro_2():
    """The second repro, a draw of welfare_markets: 58 buyers, of whom only
    buyer 49 bids, and 14 sellers, of whom only seller 0 (4.34e-202) and
    seller 13 (1.9) offer anything. The draw's agent parameters were not
    recorded; only these three agents' matter, and the ones below, inside
    the strategy's ranges, reproduce the recorded bid, availabilities,
    no-trade verdict and reference price."""
    buyers = [BuyerState(1.0, 1.0)] * 58
    buyers[49] = BuyerState(0.06029085553969256, 0.8867594870198687)
    bids = [0.0] * 58
    bids[49] = 0.04856879425539379
    sellers = [SellerState(1.0, 1.0, 2.0)] * 14
    sellers[0] = SellerState(0.1, 0.5, 5.0)
    avails = [0.0] * 14
    avails[0], avails[13] = 4.34e-202, 1.9
    return buyers, sellers, tuple(bids), tuple(avails)


# Repros 3 to 5 are failing draws of
# test_welfare_price_matches_linear_scan_reference. The fourth is cut from
# a draw of 37 buyers and 37 sellers, and the fifth from one of 29 buyers and
# 16 sellers, down to the one bidder and two offering sellers, which still
# failed.
_CHOKE_PRICE_REPROS = (
    (
        (
            [BuyerState(0.015335030174911238, 2.5838785505539272)],
            [SellerState(0.1, 0.5, 0.99999), SellerState(1.0, 1.0, 1.0)],
            (1e-4,),
            (9.1e-273, 0.5),
        ),
        0.039623855541050385,
    ),
    (_choke_price_repro_2(), 0.05346348813036678),
    (
        (
            [BuyerState(1.0, 1.0), BuyerState(1.0, 1.0), BuyerState(0.05, 2.25), BuyerState(1.0, 1.0)],
            [SellerState(0.125, 1.0, 1.0), SellerState(1.0, 1.0, 1.0)],
            (0.0, 0.0, 0.03125, 0.0),
            (2.225073858507203e-309, 1.0),
        ),
        0.1125,
    ),
    (
        (
            [BuyerState(0.01720105280004459, 1.5)],
            [SellerState(0.1, 0.5, 1.9878282349294194), SellerState(0.5, 0.5, 3.6600254882889574)],
            (0.028677107828403662,),
            (5.347976251305495e-120, 1.4776235972081193),
        ),
        0.025801579200066885,
    ),
    (
        (
            [BuyerState(0.016820174342235063, 3.0)],
            [SellerState(0.25, 0.5, 3.0), SellerState(1.0, 1.0, 1.0)],
            (0.03125,),
            (8.512734945350236e-136, 1.0),
        ),
        0.05046052302670519,
    ),
)


@pytest.mark.parametrize(
    "market, mu", _CHOKE_PRICE_REPROS, ids=["repro 1", "repro 2", "repro 3", "repro 4", "repro 5"]
)
def test_the_reference_trades_at_the_choke_price_of_each_repro(market, mu):
    """In each repro the reference puts mu on the lone bidder's choke price
    fl(x*y), where its demand x/mu - 1/y rounds to at most 2.2e-16, not 0."""
    buyers, sellers, bids, avails = market
    (choke,) = [b.x * b.y for b, bid in zip(buyers, bids) if bid > 0.0]
    assert welfare_price_reference(buyers, sellers, bids, avails, P.p) == mu == choke


@settings(phases=[Phase.explicit])
@given(market=welfare_markets())
@example(market=_CHOKE_PRICE_REPROS[0][0])
@example(market=_CHOKE_PRICE_REPROS[1][0])
@example(market=_CHOKE_PRICE_REPROS[2][0])
@example(market=_CHOKE_PRICE_REPROS[3][0])
@example(market=_CHOKE_PRICE_REPROS[4][0])
def test_planner_trades_where_the_reference_trades_at_a_choke_price(market):
    """At mu = fl(x*y) the lone bidder's demand x/mu - 1/y rounds to at
    most 2.2e-16, not 0, so the planner's exact excess stays positive at the
    choke kink and the segment above it brackets the root, where demand is
    0. In exact arithmetic the market trades the first seller's tiny
    availability (9.1e-273, 4.34e-202, the subnormal 2.2e-309, 5.3e-120 and
    8.5e-136) just below the choke price x*y, within half an ulp of the
    kink, where the reference puts mu
    (test_the_reference_trades_at_the_choke_price_of_each_repro).
    Interpolated from the end values, mu lands above the kink with no
    demand; the planner then roots the segment's own line, and trades there
    too, with its two sides in balance."""
    buyers, sellers, bids, avails = market
    mu = welfare_price_reference(buyers, sellers, bids, avails, P.p)
    sol = solve_welfare(buyers, sellers, bids, avails, P)
    assert not sol.no_trade
    assert math.isclose(sol.mu_star, mu, rel_tol=1e-12)
    total_d = math.fsum(sol.d_star)
    assert 0.0 < total_d and abs(total_d - math.fsum(sol.s_star)) <= 1e-12 * max(1.0, total_d)


@pytest.fixture
def cold_memo(monkeypatch):
    """Empty the planner's seller-side memo for one test; the returned
    function empties it again."""

    def clear():
        monkeypatch.setattr(welfare, "_seller_memo", (None, None))

    clear()
    return clear


@pytest.fixture
def seller_builds(monkeypatch):
    """The (sellers, avails) of every seller side the planner builds."""
    builds = []
    build = welfare._seller_side

    def spy(sellers, avails):
        builds.append((tuple(sellers), avails))
        return build(sellers, avails)

    monkeypatch.setattr(welfare, "_seller_side", spy)
    return builds


def _bits(sol):
    return (
        [q.hex() for q in sol.d_star],
        [q.hex() for q in sol.s_star],
        None if sol.mu_star is None else sol.mu_star.hex(),
        sol.theta.hex(),
    )


def test_the_efficiency_study_builds_each_seller_side_once(cold_memo, seller_builds, monkeypatch):
    """The default efficiency study re-solves the planner at each of its 69
    trace records, at the bids of that record, but its four markets keep
    their sellers and availabilities for a whole run: the seller side is
    built once per market."""
    from microgrid_auction import experiments

    solves = []
    solve = experiments.solve_welfare

    def count(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(experiments, "solve_welfare", count)
    experiments.exp_efficiency()
    assert len(solves) == 69
    assert [len(sellers) for sellers, _ in seller_builds] == [5, 5, 25, 50]


def test_a_memo_hit_solves_bit_for_bit_as_a_cold_solve(cold_memo, seller_builds):
    """The memo is keyed by the sellers' and availabilities' values: a
    seller replaced inside the same list, or one availability changed,
    rebuilds the side; equal but distinct sellers reuse it. Each solve
    equals, bit for bit, the same solve from an empty memo."""
    rng = random.Random(26)
    buyers, sellers, bids, avails = _random_instance(rng, 12, 9)

    def warm_and_cold(sellers, avails):
        warm = solve_welfare(buyers, sellers, bids, avails, P)
        cold_memo()
        assert _bits(warm) == _bits(solve_welfare(buyers, sellers, bids, avails, P))
        return warm

    assert not warm_and_cold(sellers, avails).no_trade
    solve_welfare(buyers, sellers, bids, avails, P)
    built = len(seller_builds)
    sellers[4] = SellerState(0.05, 1.5, 4.0)
    warm_and_cold(sellers, avails)
    assert len(seller_builds) == built + 2
    solve_welfare(buyers, sellers, bids, avails, P)
    built = len(seller_builds)
    avails[2] *= 0.5
    warm_and_cold(sellers, avails)
    assert len(seller_builds) == built + 2
    solve_welfare(buyers, sellers, bids, avails, P)
    built = len(seller_builds)
    twins = [SellerState(s.x, s.y, s.g) for s in sellers]
    assert twins == sellers and all(t is not s for t, s in zip(twins, sellers))
    warm_and_cold(twins, avails)
    assert len(seller_builds) == built + 1


def test_the_study_json_is_unchanged_after_an_unrelated_solve(cold_memo):
    """A memo left warm by another market changes no byte of the pinned
    efficiency report. The digest is the efficiency one of
    tests/test_experiments.py::test_study_json_is_pinned_byte_for_byte,
    re-recorded with it when the study configs dropped params, tol_rel and
    max_iters."""
    from microgrid_auction.experiments import exp_efficiency

    buyers, sellers, bids, avails = _random_instance(random.Random(3), 6, 4)
    solve_welfare(buyers, sellers, bids, avails, P)
    digest = hashlib.sha256(exp_efficiency().to_json().encode()).hexdigest()
    assert digest == "9e8f64b69d2448025da9e954f09ab816b90323bc4e8d0b39c8b6689f1cb71b7d"


@pytest.mark.parametrize(
    "buyer, bid, avail, message",
    [
        ((1.0, 1.0), 1.0, math.nan, "availabilities must be finite and >= 0, got nan"),
        ((1.0, 1.0), -0.5, 1.0, "bids must be finite and >= 0, got -0.5 from buyer 0"),
        ((1e-150, 1e100), 1e300, 1.0, r"cap kink x\*y/\(y\*b/p \+ 1\) of buyer 0 underflows"),
    ],
    ids=["nan availability", "negative bid", "cap kink underflows"],
)
def test_a_warm_memo_skips_no_check(cold_memo, buyer, bid, avail, message):
    """Every bid, cap kink and availability is checked on every call, before
    the seller side is looked up: with the memo warm on a valid market of
    the same sellers, a bad input raises the error it raises cold."""
    buyers = [BuyerState(*buyer)]
    sellers = [SellerState(0.3, 1.0, 2.0), SellerState(0.2, 1.2, 3.0)]
    with pytest.raises(ValueError, match=message) as cold:
        solve_welfare(buyers, sellers, (bid,), (avail, 1.0), P)
    solve_welfare(buyers, sellers, (1.0,), (1.0, 1.0), P)
    assert welfare._seller_memo[0] == (tuple(sellers), (1.0, 1.0))
    with pytest.raises(ValueError) as warm:
        solve_welfare(buyers, sellers, (bid,), (avail, 1.0), P)
    assert str(warm.value) == str(cold.value)


def test_threads_sharing_the_memo_solve_as_cold(cold_memo):
    """Threads that alternate three markets through the one-entry memo, with
    a short switch interval, each get every solve bit for bit as cold: a
    concurrent call may rebuild a side, never use another market's. Each
    thread holds its own equal copies of the sellers, so comparing a key
    calls SellerState.__eq__, where a thread can be switched out."""
    import threading

    rng = random.Random(8)
    markets = [_random_instance(rng, 10, n) for n in (6, 7, 8)]
    expected = []
    for market in markets:
        cold_memo()
        expected.append(_bits(solve_welfare(*market, P)))
    wrong = []

    def work(offset):
        own = [
            (buyers, [SellerState(s.x, s.y, s.g) for s in sellers], bids, avails)
            for buyers, sellers, bids, avails in markets
        ]
        for k in range(300):
            n = (k + offset) % 3
            try:
                if _bits(solve_welfare(*own[n], P)) != expected[n]:
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
