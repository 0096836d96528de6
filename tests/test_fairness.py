import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from microgrid_auction.engine import AuctionConfig, run_auction
from microgrid_auction.fairness import (
    InfeasibleTotal,
    price_of_fairness,
    redistribute,
    uniform_reprice,
    water_fill,
)
from microgrid_auction.market import BuyerState, MarketParams, SellerState
from microgrid_auction.welfare import social_welfare

P = MarketParams()


def test_water_fill_golden_five_sellers():
    avails = (2.177, 2.022, 2.196, 1.889, 0.254)
    total = 7.415
    s_r, level = water_fill(avails, total)
    expected = (1.790, 1.790, 1.790, 1.790, 0.254)
    for got, want in zip(s_r, expected):
        assert got == pytest.approx(want, abs=2e-3)
    assert level == pytest.approx(1.790, abs=2e-3)
    assert math.fsum(s_r) == pytest.approx(total, abs=1e-12)


def test_water_fill_structure():
    avails = (3.0, 0.5, 2.0)
    s_r, level = water_fill(avails, 4.0)
    assert s_r == pytest.approx((1.75, 0.5, 1.75))
    assert level == pytest.approx(1.75)
    for sj, aj in zip(s_r, avails):
        assert sj == pytest.approx(min(aj, level))


def test_water_fill_edge_cases():
    s_r, level = water_fill((1.0, 2.0), 0.0)
    assert s_r == (0.0, 0.0)
    assert level == 0.0
    s_r, level = water_fill((1.0, 2.0), 3.0)  # exactly the cap sum
    assert s_r == pytest.approx((1.0, 2.0))
    with pytest.raises(InfeasibleTotal):
        water_fill((1.0, 2.0), 3.0 + 1e-6)
    with pytest.raises(ValueError):
        water_fill((1.0, -0.1), 0.5)
    with pytest.raises(ValueError):
        water_fill((1.0,), -0.5)
    assert water_fill((), 0.0) == ((), 0.0)  # no sellers, nothing to place


@settings(deadline=None, max_examples=120)
@given(
    avails=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=8),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_water_fill_conserves_and_respects_caps(avails, fraction):
    total = fraction * math.fsum(avails)
    s_r, level = water_fill(avails, total)
    assert math.fsum(s_r) == pytest.approx(total, abs=1e-9)
    for sj, aj in zip(s_r, avails):
        assert -1e-12 <= sj <= aj + 1e-12
        assert sj == pytest.approx(min(aj, level), abs=1e-9)


def test_water_fill_maximizes_entropy_against_random_feasible_splits():
    rng = random.Random(1234)
    avails = tuple(rng.uniform(0.2, 3.0) for _ in range(5))
    total = 0.8 * math.fsum(avails)
    s_r, _ = water_fill(avails, total)

    def entropy(values):
        return -math.fsum((v / total) * math.log(v / total) for v in values if v > 0)

    best = entropy(s_r)
    for _ in range(10_000):
        weights = [rng.random() for _ in avails]
        scale = total / math.fsum(w * a for w, a in zip(weights, avails))
        candidate = [min(w * a * scale, a) for w, a in zip(weights, avails)]
        shortfall = total - math.fsum(candidate)
        if shortfall > 1e-9:
            # push the shortfall into remaining headroom to stay feasible
            for k in range(len(candidate)):
                room = avails[k] - candidate[k]
                take = min(room, shortfall)
                candidate[k] += take
                shortfall -= take
                if shortfall <= 1e-12:
                    break
        assert entropy(candidate) <= best + 1e-9


def test_uniform_reprice_goldens():
    # two dispatch patterns over five low-cost sellers
    case_one = uniform_reprice(
        (0.171, 0.173, 0.173, 0.173, 0.229), (2.177, 1.997, 2.092, 1.149, 0.0)
    )
    assert case_one == pytest.approx(0.172, abs=1e-3)
    case_two = uniform_reprice(
        (0.158, 0.168, 0.206, 0.219, 0.229), (3.101, 1.052, 1.112, 0.683, 0.470)
    )
    assert case_two == pytest.approx(0.180, abs=1e-3)


def test_uniform_reprice_validation():
    with pytest.raises(ValueError):
        uniform_reprice((0.1,), (0.5, 0.5))
    with pytest.raises(ValueError):
        uniform_reprice((0.1, 0.2), (0.0, 0.0))


def test_price_of_fairness():
    assert price_of_fairness(2.0, 2.0) == 0.0
    assert price_of_fairness(2.0, 1.9) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        price_of_fairness(0.0, 1.0)


def _converged_outcome(seed, nb, ns, buyer_x=(0.5, 1.2), seller_x=(0.1, 0.4)):
    rng = random.Random(seed)
    buyers = [BuyerState(rng.uniform(*buyer_x), rng.uniform(1.2, 1.8)) for _ in range(nb)]
    sellers = [
        SellerState(rng.uniform(*seller_x), rng.uniform(1.2, 1.8), rng.uniform(2.0, 5.0))
        for _ in range(ns)
    ]
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=3000))
    assert outcome.converged
    return outcome, buyers, sellers


def test_redistribute_conserves_energy_and_reimbursement():
    outcome, buyers, sellers = _converged_outcome(11, 4, 5)
    result = redistribute(outcome, buyers, sellers)
    s = outcome.clearing.s
    assert math.fsum(result.s_r) == pytest.approx(math.fsum(s), abs=1e-9)
    paid_before = math.fsum(c * v for c, v in zip(outcome.clearing.asks, s))
    paid_after = result.c_r * math.fsum(result.s_r)
    assert paid_after == pytest.approx(paid_before, abs=1e-9)
    for sj, aj in zip(result.s_r, outcome.clearing.avails):
        assert -1e-12 <= sj <= aj + 1e-9
        assert sj == pytest.approx(min(aj, result.K), abs=1e-9)


def test_redistribute_welfare_cost_is_kappa():
    outcome, buyers, sellers = _converged_outcome(12, 3, 6)
    result = redistribute(outcome, buyers, sellers)
    d = outcome.clearing.d
    before = social_welfare(buyers, sellers, d, outcome.clearing.s)
    after = social_welfare(buyers, sellers, d, result.s_r)
    assert result.kappa_F == pytest.approx((before - after) / before, abs=1e-9)
    assert result.kappa_F >= -1e-12


def test_redistribute_saturated_dispatch_is_a_fixed_point():
    # strong demand saturates every seller; water-filling full caps returns
    # the caps, so nothing moves and the welfare cost is zero
    outcome, buyers, sellers = _converged_outcome(
        13, 8, 2, buyer_x=(1.2, 1.6), seller_x=(0.1, 0.2)
    )
    for sj, aj in zip(outcome.clearing.s, outcome.clearing.avails):
        assert sj == pytest.approx(aj, rel=1e-6)
    result = redistribute(outcome, buyers, sellers)
    assert result.s_r == pytest.approx(outcome.clearing.s, abs=1e-9)
    assert result.kappa_F == pytest.approx(0.0, abs=1e-9)


def test_redistribute_no_trade_passthrough():
    buyers = [BuyerState(0.2, 1.0)]  # priced out, parks immediately
    sellers = [SellerState(0.2, 1.0, 4.0)]
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=500))
    assert outcome.clearing.no_trade
    result = redistribute(outcome, buyers, sellers)
    assert result.s_r == outcome.clearing.s
    assert result.c_r == 0.0
    assert result.K == 0.0
    assert result.kappa_F == 0.0


def test_redistribute_rejects_mismatched_agents():
    outcome, buyers, sellers = _converged_outcome(14, 2, 2)
    with pytest.raises(ValueError):
        redistribute(outcome, buyers, sellers[:1])
    with pytest.raises(ValueError):
        redistribute(outcome, buyers + [BuyerState(1.0, 1.0)], sellers)
