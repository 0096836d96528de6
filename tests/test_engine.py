import ast
import dataclasses
import hashlib
import math
import random
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from microgrid_auction import clearing, engine, welfare
from microgrid_auction.clearing import BID_FLOOR, clear_market
from microgrid_auction.engine import (
    AuctionConfig,
    auction_step,
    run_auction,
)
from microgrid_auction.experiments import mix_seed, verify_outcome
from microgrid_auction.market import BuyerState, MarketParams, SellerState, compute_payoffs
from microgrid_auction.utility import LogUtility

from oracles import (
    dual_bound,
    equilibrium_gaps,
    equilibrium_reference,
    welfare_value,
    wide_range_market,
)

P = MarketParams()
CFG = AuctionConfig(max_iters=2000)


def _mixed_market(rng, nb, ns):
    """Buyers keen enough and sellers cheap enough that trade happens."""
    buyers = [BuyerState(rng.uniform(0.9, 1.6), rng.uniform(1.2, 1.8)) for _ in range(nb)]
    sellers = [
        SellerState(rng.uniform(0.1, 0.4), rng.uniform(1.2, 1.8), rng.uniform(2.0, 5.0))
        for _ in range(ns)
    ]
    return buyers, sellers


def _seller_payoff(seller: SellerState, ask: float, sold: float) -> float:
    return LogUtility(seller.x, seller.y).value(seller.g - sold) + ask * sold


def test_engine_does_not_import_the_welfare_module():
    """The auction reads only quoted scalars: the full-information welfare
    solver is a benchmark beside it, never an input."""
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "microgrid_auction." if node.level else ""
            if node.module is None:
                imported.update(prefix + alias.name for alias in node.names)
            else:
                imported.add(prefix + node.module)
    assert imported and "microgrid_auction.welfare" not in imported


def test_analytic_fixed_point():
    buyers = [BuyerState(1.0, 1.0)]
    sellers = [SellerState(1.0, 1.0, 4.0)]
    outcome = run_auction(buyers, sellers, P, CFG)
    assert outcome.converged
    assert outcome.clearing.d[0] == pytest.approx(1.0, rel=1e-5)
    assert outcome.clearing.s[0] == pytest.approx(1.0, rel=1e-5)
    assert outcome.clearing.bids[0] == pytest.approx(0.5, rel=1e-5)
    assert outcome.clearing.asks[0] == pytest.approx(0.25, rel=1e-5)
    assert outcome.clearing.mu == pytest.approx(0.5, rel=1e-5)
    assert outcome.unit_prices[0] == pytest.approx(0.5, rel=1e-5)
    assert outcome.payoffs.mc_revenue == pytest.approx(0.25, rel=1e-4)
    assert outcome.payoffs.buyer_payoffs[0] == pytest.approx(math.log(2.0) - 0.5, rel=1e-4)
    assert outcome.payoffs.seller_payoffs[0] == pytest.approx(math.log(4.0) + 0.25, rel=1e-4)


def test_no_sellers_is_a_converged_no_trade():
    buyers = [BuyerState(1.0, 1.0)]
    outcome = run_auction(buyers, [], P, CFG)
    assert outcome.converged
    assert outcome.clearing.no_trade
    assert outcome.payoffs.mc_revenue == 0.0
    assert outcome.unit_prices == (None,)


def test_zero_supply_decays_bids_and_terminates():
    # the seller retains everything at the floor price, so availability is 0
    buyers = [BuyerState(1.0, 1.0)]
    sellers = [SellerState(1.0, 1.0, 1.0)]
    assert LogUtility(sellers[0].x, sellers[0].y).marginal(1.0) > P.p
    outcome = run_auction(buyers, sellers, P, CFG)
    assert outcome.converged
    assert outcome.clearing.avails == (0.0,)
    assert outcome.clearing.no_trade
    assert outcome.payoffs.buyer_payoffs[0] >= -1e-6
    assert outcome.payoffs.mc_revenue == 0.0


def test_priced_out_buyer_parks_at_zero_immediately():
    # choke price x*y below the floor: no positive demand at any mu >= p
    buyers = [BuyerState(0.2, 1.0), BuyerState(1.0, 1.0)]
    sellers = [SellerState(0.2, 1.0, 4.0)]
    outcome = run_auction(buyers, sellers, P, CFG)
    assert outcome.converged
    assert outcome.clearing.bids[0] == 0.0
    assert outcome.clearing.d[0] == 0.0
    assert outcome.clearing.d[1] > 0.0
    for rec in outcome.trace:
        assert rec.clearing.bids[0] == 0.0


def test_individual_rationality_and_budget_balance_on_random_runs():
    rng = random.Random(404)
    converged_runs = 0
    for _ in range(40):
        nb = rng.randint(1, 6)
        ns = rng.randint(1, 5)
        buyers, sellers = _mixed_market(rng, nb, ns)
        outcome = run_auction(buyers, sellers, P, CFG)
        assert outcome.converged
        converged_runs += 1
        assert outcome.payoffs.mc_revenue >= -1e-9
        for payoff in outcome.payoffs.buyer_payoffs:
            assert payoff >= -1e-6
        for seller, payoff in zip(sellers, outcome.payoffs.seller_payoffs):
            assert payoff >= LogUtility(seller.x, seller.y).value(seller.g) - 1e-6
        for bid, d in zip(outcome.clearing.bids, outcome.clearing.d):
            assert P.p * d <= bid + 1e-9
    assert converged_runs == 40


def _deviation_payoff(outcome, sellers, j, perturbed):
    asks = list(outcome.clearing.asks)
    asks[j] = perturbed
    redo = clear_market(outcome.clearing.bids, asks, outcome.clearing.avails, P)
    return _seller_payoff(sellers[j], perturbed, redo.s[j])


def test_interior_sellers_cannot_gain_by_overbidding():
    """Every partially dispatched seller's ask converges to the shadow price,
    so raising it prices the seller out of the merit order while co-marginal
    sellers absorb its share: the deviation forfeits the sale margin. The
    settled allocations are the baseline; a fresh tie split would break the
    ask = marginal-retained-value premise the argument rests on. The claim
    needs a price-taking seller, so deviations that would move the price are
    out of scope: saturated sellers (shading toward the shadow price is pure
    profit when paid as asked) and sellers too big for the co-marginal spare
    capacity to absorb (monopoly power). Both are filtered, not refuted."""
    rng = random.Random(77)
    checked = 0
    for _ in range(25):
        nb = rng.randint(2, 4)
        ns = rng.randint(4, 6)
        buyers = [BuyerState(rng.uniform(0.5, 1.2), rng.uniform(1.2, 1.8)) for _ in range(nb)]
        sellers = [
            SellerState(rng.uniform(0.1, 0.3), rng.uniform(1.2, 1.8), rng.uniform(2.0, 5.0))
            for _ in range(ns)
        ]
        outcome = run_auction(buyers, sellers, P, CFG)
        assert outcome.converged
        settled = outcome.clearing.s
        for j, seller in enumerate(sellers):
            c = outcome.clearing.asks[j]
            a = outcome.clearing.avails[j]
            interior = 1e-6 * max(1.0, a) < settled[j] < a - 1e-6 * max(1.0, a)
            raised = min(1.1 * c, P.p)
            if not interior or raised <= c:
                continue
            absorb = math.fsum(
                outcome.clearing.avails[k] - settled[k]
                for k in range(len(sellers))
                if k != j and outcome.clearing.asks[k] < raised
            )
            if absorb < settled[j]:
                continue
            base_payoff = _seller_payoff(seller, c, settled[j])
            assert _deviation_payoff(outcome, sellers, j, raised) <= base_payoff + 1e-9
            checked += 1
    assert checked >= 20


def test_no_seller_gains_by_underbidding():
    # paid at the own ask, quoting under the marginal value of retained
    # energy loses on every unit, dispatched more or not
    rng = random.Random(78)
    checked = 0
    for _ in range(20):
        nb = rng.randint(1, 5)
        ns = rng.randint(1, 5)
        buyers, sellers = _mixed_market(rng, nb, ns)
        outcome = run_auction(buyers, sellers, P, CFG)
        assert outcome.converged
        settled = outcome.clearing.s
        for j, seller in enumerate(sellers):
            c = outcome.clearing.asks[j]
            if c <= 0 or settled[j] <= 1e-9:
                continue
            base_payoff = _seller_payoff(seller, c, settled[j])
            assert _deviation_payoff(outcome, sellers, j, 0.9 * c) <= base_payoff + 1e-9
            checked += 1
    assert checked >= 30


def test_every_agent_requotes_its_target_outright():
    """Each round's quotes are the targets at the clearing just made,
    undamped and equal bit for bit to LogUtility.marginal: an active buyer
    bids u'(d)*d, or parks at 0.0 below BID_FLOOR, and a seller asks
    min(v'(g - s), p). Checked over the first 8 steps of a hand market,
    corpus k = 2 and the first large market, with the previous clearing
    dropped so that no bid is extrapolated."""
    hand = (
        [BuyerState(1.2, 1.4), BuyerState(0.8, 1.6)],
        [SellerState(0.2, 1.3, 3.0), SellerState(0.3, 1.5, 4.0)],
    )
    requoted = 0
    for buyers, sellers in (hand, _corpus_market(2), _large_market(0)):
        state = engine._initial_state(buyers, sellers, P)
        for _ in range(8):
            nxt = auction_step(dataclasses.replace(state, clearing=None), CFG)
            for buyer, b, new_b, d in zip(buyers, state.bids, nxt.bids, nxt.clearing.d):
                if b == 0.0:
                    assert new_b == 0.0
                    continue
                target = LogUtility(buyer.x, buyer.y).marginal(d) * d
                assert new_b == (0.0 if target < BID_FLOOR else target)
                requoted += 1
            for seller, ask, s in zip(sellers, nxt.asks, nxt.clearing.s):
                target = LogUtility(seller.x, seller.y).marginal(max(seller.g - s, 0.0))
                assert ask == min(target, P.p)
                requoted += 1
            state = nxt
    assert requoted > 8 * (300 + 150)


def test_a_round_makes_no_utility_calls(monkeypatch):
    """auction_step re-quotes from the constants _initial_state built once,
    so no round calls into an agent's LogUtility."""
    calls = []
    buyers, sellers = _corpus_market(2)
    state = engine._initial_state(buyers, sellers, P)
    for name in ("value", "marginal", "inverse_marginal"):
        method = getattr(LogUtility, name)
        monkeypatch.setattr(
            LogUtility, name,
            lambda self, q, name=name, method=method: calls.append(name) or method(self, q),
        )
    for _ in range(8):
        state = auction_step(state, CFG)
    assert state.iteration == 8
    assert calls == []


def test_an_offering_sellers_weight_is_its_curvature_estimate():
    """When an offering seller's allocation moves, its curvature estimate
    averages in the observed slope |change of ask target| / |change of
    allocation|, and its proximal weight becomes that estimate. A seller
    whose allocation held still keeps both."""
    buyers, sellers = _corpus_market(2)
    state = engine._initial_state(buyers, sellers, P)
    moved = 0
    while state.iteration < 8:
        nxt = auction_step(state, CFG)
        for j, seller in enumerate(sellers):
            a, s, ds = state.avails[j], nxt.prev_s[j], nxt.prev_s[j] - state.prev_s[j]
            if a > 0 and abs(ds) > 1e-12 * max(1.0, a):
                target = LogUtility(seller.x, seller.y).marginal(max(seller.g - s, 0.0))
                slope = abs(target - state.last_targets[j]) / abs(ds)
                assert nxt.curv_ema[j] == 0.5 * state.curv_ema[j] + 0.5 * slope
                assert nxt.prox_weights[j] == nxt.curv_ema[j]
                moved += 1
            else:
                assert nxt.curv_ema[j] == state.curv_ema[j]
                assert nxt.prox_weights[j] == state.prox_weights[j]
        state = nxt
    assert moved >= 20


def _requoted_sellers(sellers, state, nxt):
    """Every seller's (asks, last_targets, prox_weights, curv_ema) after the
    step from state to nxt, re-quoted outright through LogUtility: the ask
    min(v'(g - s), p), and the weight update of a seller whose allocation
    moved by more than 1e-12 * max(1, a)."""
    asks, targets, weights, ema = [], [], [], []
    for j, seller in enumerate(sellers):
        s, a = nxt.clearing.s[j], state.avails[j]
        target = LogUtility(seller.x, seller.y).marginal(max(seller.g - s, 0.0))
        w, e = state.prox_weights[j], state.curv_ema[j]
        ds = s - state.prev_s[j]
        if a > 0 and abs(ds) > 1e-12 * max(1.0, a):
            e = 0.5 * e + 0.5 * (abs(target - state.last_targets[j]) / abs(ds))
            w = e if 0.0 < e < math.inf else w
        asks.append(min(target, P.p))
        targets.append(target)
        weights.append(w)
        ema.append(e)
    return tuple(asks), tuple(targets), tuple(weights), tuple(ema)


def test_a_seller_whose_allocation_held_still_keeps_its_quote():
    """A step re-quotes only the sellers whose allocation moved and carries
    the rest, so every seller's ask, target, weight and curvature estimate
    must still equal, bit for bit, a re-quote of every seller, from the
    first step on. The hand market's second seller offers nothing (a = 0),
    so its allocation never moves, and its opening target v'(g) = 0.5 lies
    above p: the opening keeps that target unclamped and only its ask
    clamped at p, as a re-quote gives them, so every step may carry it. On
    the first large market most seller-rounds carry their quote."""
    hand = (
        [BuyerState(1.2, 1.4), BuyerState(0.8, 1.6)],
        [SellerState(0.2, 1.3, 3.0), SellerState(1.0, 1.0, 1.0)],
    )
    assert LogUtility(1.0, 1.0).marginal(1.0) > P.p
    markets = [hand, _large_market(0)] + [_corpus_market(k) for k in range(2, 7)]
    for n, (buyers, sellers) in enumerate(markets):
        state = engine._initial_state(buyers, sellers, P)
        carried = rounds = 0
        while state.iteration < 13:
            nxt = auction_step(state, CFG)
            quotes = (nxt.asks, nxt.last_targets, nxt.prox_weights, nxt.curv_ema)
            assert quotes == _requoted_sellers(sellers, state, nxt)
            if state.clearing is not None:
                carried += sum(s == prev for s, prev in zip(nxt.prev_s, state.prev_s))
                rounds += len(sellers)
            state = nxt
        if n == 0:
            assert state.avails[1] == 0.0 and state.last_targets[1] == 0.5
        if n == 1:
            assert carried > rounds / 2


def test_the_opening_state_is_a_requote_at_zero_allocations():
    """_initial_state's asks, last_targets, prox_weights and curv_ema equal
    a full re-quote of every seller at s = 0.0, the opening prev_s, so a
    first step may carry them like any other. The targets stay unclamped,
    and a seller whose target lies above p offers nothing, so it never
    moves: the hand market's second seller, v'(g) = 0.5, and every such
    seller of the 600 wide-range markets (the corpus has none). Every
    clearing of their runs gives each of them exactly s_j = 0.0, so none
    enters the re-quote's moved set."""
    hand = (
        [BuyerState(1.2, 1.4), BuyerState(0.8, 1.6)],
        [SellerState(0.2, 1.3, 3.0), SellerState(1.0, 1.0, 1.0)],
    )
    for buyers, sellers in [hand] + [_corpus_market(k) for k in range(2, 7)]:
        state = engine._initial_state(buyers, sellers, P)
        assert state.prev_s == (0.0,) * len(sellers)
        at_zero = SimpleNamespace(clearing=SimpleNamespace(s=state.prev_s))
        quotes = (state.asks, state.last_targets, state.prox_weights, state.curv_ema)
        assert quotes == _requoted_sellers(sellers, state, at_zero)
    above_p = 0
    for buyers, sellers in [hand] + [wide_range_market(k) for k in range(600)]:
        state = engine._initial_state(buyers, sellers, P)
        for target, a in zip(state.last_targets, state.avails):
            if target > P.p:
                assert a == 0.0
                above_p += 1
        offers_nothing = [j for j, a in enumerate(state.avails) if a == 0.0]
        for rec in run_auction(buyers, sellers, P, CFG).trace:
            assert all(rec.clearing.s[j] == 0.0 for j in offers_nothing)
    assert above_p > 4000


def test_a_step_in_which_no_seller_moved_carries_the_seller_tuples():
    """A step whose clearing left every allocation equal to prev_s returns
    the state's own asks, last_targets, prox_weights and curv_ema tuples,
    not rebuilt copies, and the first step is no exception: a seller with
    nothing to offer opens with its target v'(g) = 0.5 unclamped and its
    ask clamped at p, as a re-quote at s = 0.0 gives them, so the hand
    market's first step carries the opening tuples themselves. On the
    first large market most steps carry."""
    state = engine._initial_state([BuyerState(1.2, 1.4)], [SellerState(1.0, 1.0, 1.0)], P)
    assert state.asks == (P.p,) and state.last_targets == (0.5,)
    first = auction_step(state, CFG)
    assert first.clearing.s == state.prev_s == (0.0,)
    assert first.asks is state.asks and first.last_targets is state.last_targets
    assert first.prox_weights is state.prox_weights and first.curv_ema is state.curv_ema

    state, carried = engine._initial_state(*_large_market(0), P), 0
    while state.iteration < 13:
        nxt = auction_step(state, CFG)
        kept = [
            new is old
            for new, old in (
                (nxt.asks, state.asks),
                (nxt.last_targets, state.last_targets),
                (nxt.prox_weights, state.prox_weights),
                (nxt.curv_ema, state.curv_ema),
            )
        ]
        if nxt.clearing.s == state.prev_s:
            assert all(kept)
            carried += 1
        else:
            assert not any(kept)
        state = nxt
    assert carried >= 10


def _stationary_reference(before, after, config):
    """The three stopping tests with builtin abs and max over every agent,
    and builtin min for the residual bound."""
    tol = config.tol_rel
    for old, new in ((before.bids, after.bids), (before.asks, after.asks)):
        if any(abs(b - a) / max(abs(a), 1e-12) > tol for a, b in zip(old, new)):
            return False
    moved = zip(after.clearing.s, before.prev_s, after.avails)
    if any(abs(s - prev) > tol * max(1.0, a) for s, prev, a in moved):
        return False
    return after.clearing.kkt_residual <= min(config.tol_rel, 1e-6)


def test_the_stopping_test_matches_a_plain_reference():
    """_stationary writes abs and max out and passes a list that compares
    equal, such as the carried asks, without a walk; every step's verdict
    must match the plain reference, up to convergence, on the first large
    market and corpus markets 2-6, with tol_rel loose enough that the walks
    also meet quotes and allocations that moved but pass."""
    markets = [_large_market(0)] + [_corpus_market(k) for k in range(2, 7)]
    verdicts = set()
    for config in (CFG, AuctionConfig(tol_rel=1e-3)):
        for buyers, sellers in markets:
            state = engine._initial_state(buyers, sellers, P)
            while True:
                nxt = auction_step(state, config)
                stop = engine._stationary(state, nxt, config)
                assert stop == _stationary_reference(state, nxt, config)
                verdicts.add(stop)
                if stop:
                    break
                state = nxt
            # From the step that stopped, move the last bid, ask or
            # allocation up or down by twice its tolerance: each test must
            # refuse it.
            for step in (2 * config.tol_rel, -2 * config.tol_rel):
                bids, asks, s = list(nxt.bids), list(nxt.asks), list(nxt.clearing.s)
                bids[-1] += step * bids[-1]
                asks[-1] += step * asks[-1]
                s[-1] += step * max(1.0, nxt.avails[-1])
                for moved in (
                    dataclasses.replace(nxt, bids=tuple(bids)),
                    dataclasses.replace(nxt, asks=tuple(asks)),
                    dataclasses.replace(
                        nxt, clearing=dataclasses.replace(nxt.clearing, s=tuple(s))
                    ),
                ):
                    assert not engine._stationary(state, moved, config)
                    assert not _stationary_reference(state, moved, config)
    assert verdicts == {False, True}


@pytest.mark.parametrize("tol_rel", [1e-3, 1e-8])
def test_the_residual_bound_is_the_smaller_of_tol_rel_and_1e_6(tol_rel):
    """A step that stops on corpus market 2 stops no longer once its
    clearing's residual sits one ulp above min(tol_rel, 1e-6), and still
    stops one ulp below: a tight tol_rel tightens the bound, a loose one
    does not loosen it."""
    config = AuctionConfig(tol_rel=tol_rel)
    state = engine._initial_state(*_corpus_market(2), P)
    while not engine._stationary(state, nxt := auction_step(state, config), config):
        state = nxt
    bound = min(tol_rel, 1e-6)
    for residual, stops in ((math.nextafter(bound, 1.0), False), (math.nextafter(bound, 0.0), True)):
        cleared = dataclasses.replace(nxt.clearing)
        # kkt_residual is a cached_property: this is the value it will read
        cleared.__dict__["kkt_residual"] = residual
        assert engine._stationary(state, dataclasses.replace(nxt, clearing=cleared), config) is stops


def test_config_has_three_settings():
    names = [f.name for f in dataclasses.fields(AuctionConfig)]
    assert names == ["tol_rel", "max_iters", "record_trace"]


# v'' = v'^2 / x: a tiny x makes a seller's marginal value steep near the
# price it clears at, a tiny y makes it flat.
_STEEP = ([BuyerState(1.85, 1.0), BuyerState(1.43, 2.0)], [SellerState(3e-7, 1e6, 1.0)])
_FLAT = ([BuyerState(1.0, 1.0)], [SellerState(0.01, 1e-4, 2.0), SellerState(0.01, 0.01, 5.0)])


def _unit_scale_market(g):
    """One buyer against a seller whose curvature near the price runs to
    about 1e5, beside an ordinary seller: prices and energies of order 1."""
    return [BuyerState(1.0, 1.0)], [SellerState(1e-7, 1e6, g), SellerState(0.2, 1.0, 4.0)]


@pytest.mark.parametrize(
    "market, past_the_old_clamp, iterations",
    [
        pytest.param(_STEEP, lambda e: e > 1e4, 9, id="steep"),
        pytest.param(_FLAT, lambda e: e < 1e-4, 13, id="flat"),
        *(
            pytest.param(_unit_scale_market(g), lambda e: e > 1e4, None, id=f"unit scale g={g}")
            for g in (0.5, 1.0, 2.0)
        ),
    ],
)
def test_proximal_weights_equal_the_curvature_estimate_across_decades(
    market, past_the_old_clamp, iterations
):
    """Once a seller has taken a slope sample, its proximal weight is its
    curvature estimate exactly, whatever the scale: in each of these markets
    an estimate crosses the fixed clamp of [1e-4, 1e4] that used to bind.
    Steps run on to 40; the steep and flat auctions still stop after 9 and
    13 rounds."""
    buyers, sellers = market
    estimates = []
    state = engine._initial_state(buyers, sellers, P)
    while state.iteration < 40:
        before, state = state, auction_step(state, CFG)
        for old, e, w in zip(before.curv_ema, state.curv_ema, state.prox_weights):
            if e != old:
                assert w == e
                estimates.append(e)
    assert any(map(past_the_old_clamp, estimates))
    if iterations is not None:
        assert run_auction(buyers, sellers, P, CFG).iterations == iterations


@pytest.mark.parametrize("g, iterations", [(0.5, 28), (1.0, 21), (2.0, 40)])
def test_a_seller_curved_past_the_old_clamp_converges(g, iterations):
    """With the weight clamped to 1e4 these unit-scale markets ran 20,000
    rounds unconverged: the steep seller's curvature near the price exceeds
    twice the clamp, where a proximal step diverges. With the weight at its
    estimate they stop at the equilibrium reference."""
    buyers, sellers = _unit_scale_market(g)
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=20000, record_trace=False))
    assert outcome.converged and outcome.iterations == iterations
    verify_outcome(outcome, buyers, sellers)
    zero_bid_mismatch, mu_gap, alloc_gap, ask_gap = equilibrium_gaps(
        outcome, equilibrium_reference(buyers, sellers, P.p)
    )
    assert not zero_bid_mismatch
    assert mu_gap <= 1e-6 and alloc_gap <= 5e-6 and ask_gap <= 1e-6


def test_an_estimate_of_zero_or_inf_keeps_the_previous_weight():
    """The clearing refuses a weight of 0.0 or inf, so an estimate that
    underflows to 0.0 or overflows to inf leaves the seller's weight as it
    was. Both sellers move and sample a slope of 0.0 (their targets are
    already those at the new allocations), from estimates of 0.0 and inf."""
    state = auction_step(engine._initial_state(*_FLAT, P), CFG)
    assert all(a > 0 for a in state.avails)
    s_new = tuple(s + a / 2 for s, a in zip(state.prev_s, state.avails))
    targets = engine._requote_sellers(state, s_new)[1]
    moved = dataclasses.replace(state, curv_ema=(0.0, math.inf), last_targets=targets)
    _, _, weights, ema = engine._requote_sellers(moved, s_new)
    assert ema == (0.0, math.inf)
    assert weights == state.prox_weights


def test_asks_never_exceed_the_retail_price():
    rng = random.Random(11)
    buyers, sellers = _mixed_market(rng, 5, 4)
    outcome = run_auction(buyers, sellers, P, CFG)
    for rec in outcome.trace:
        for ask in rec.clearing.asks:
            assert ask <= P.p + 1e-12
    for ask in outcome.clearing.asks:
        assert ask <= P.p + 1e-12


def test_outcome_quotes_are_the_final_clearing_inputs():
    rng = random.Random(23)
    buyers, sellers = _mixed_market(rng, 3, 2)
    outcome = run_auction(buyers, sellers, P, CFG)
    # one record per clearing: the trace's last entry holds the very result
    # the outcome settled on, not a copy of its quotes
    assert outcome.trace[-1].clearing is outcome.clearing
    final = outcome.clearing
    replay = clear_market(final.bids, final.asks, final.avails, P)
    assert replay.mu == pytest.approx(outcome.clearing.mu, rel=1e-9)
    assert math.fsum(replay.s) == pytest.approx(math.fsum(outcome.clearing.s), rel=1e-9)


def test_trace_recording_toggle():
    buyers = [BuyerState(1.0, 1.0)]
    sellers = [SellerState(0.2, 1.0, 4.0)]
    with_trace = run_auction(buyers, sellers, P, AuctionConfig(max_iters=2000))
    assert len(with_trace.trace) == with_trace.iterations
    assert with_trace.trace[0].iteration == 1
    silent = run_auction(
        buyers, sellers, P, AuctionConfig(max_iters=2000, record_trace=False)
    )
    assert silent.trace == ()
    assert silent.converged == with_trace.converged
    assert silent.clearing.bids == with_trace.clearing.bids


def test_a_recorded_run_computes_phi_only_when_read(monkeypatch):
    """A traced run computes theta per round and leaves the controller
    objective phi to the first read of each record, which computes it once
    from the record's clearing, bit for bit what clearing_objective gives."""
    objective = engine.clearing_objective
    calls = []

    def spy(bids, asks, d, s):
        calls.append(1)
        return objective(bids, asks, d, s)

    monkeypatch.setattr(engine, "clearing_objective", spy)
    buyers, sellers = _mixed_market(random.Random(26), 8, 5)
    outcome = run_auction(buyers, sellers, P, CFG)
    assert outcome.converged and len(outcome.trace) > 5
    assert calls == []
    for rec in outcome.trace:
        c = rec.clearing
        expected = objective(c.bids, c.asks, c.d, c.s)
        assert rec.phi.hex() == expected.hex()
        assert rec.phi.hex() == expected.hex()
    assert len(calls) == len(outcome.trace)


def _extrapolate_one(b0, b1, b2, d0=0.0, d1=0.0, choke=1e9, y=1.0):
    """The engine's per-round extrapolation pass on a round of one buyer
    with constants (choke, y), its choke price x*y by default far above
    every unit price here."""
    (bid,) = engine._extrapolate((b0,), (b1,), [b2], (d0,), (d1,), ((choke, y),))
    return bid


def test_extrapolation_lands_a_geometric_sequence_on_its_limit():
    for limit, scale, ratio in ((0.3, 0.2, 0.9), (0.3, -0.2, 0.5), (0.3, 0.1, 0.998)):
        b0, b1, b2 = (limit + scale * ratio**n for n in range(3))
        assert _extrapolate_one(b0, b1, b2) == pytest.approx(limit, rel=1e-9)


def test_extrapolation_at_most_halves_a_bid():
    # limits 0.0385 and below zero: the jump stops at half the re-quoted bid
    assert _extrapolate_one(1.0, 0.5, 0.26) == 0.13
    assert _extrapolate_one(1.0, 0.6, 0.3) == 0.15


@pytest.mark.parametrize(
    "bids",
    [
        (1.0, 0.5, 0.7),  # r < 0: oscillating
        (1.0, 0.5, 0.5),  # r = 0
        (0.5, 0.5, 0.4),  # b1 = b0: no ratio
        (1.0, 0.9, 0.8),  # r = 1: no finite limit
        (1.0, 0.5, 0.0005),  # r = 0.999
        (1.0, 0.9, 0.7),  # r = 2: diverging
        (0.5 + 0.2 * 0.9995, 0.5 + 0.2 * 0.9995**2, 0.5 + 0.2 * 0.9995**3),  # r = 0.9995
    ],
)
def test_extrapolation_skips_ratios_outside_its_window(bids):
    assert _extrapolate_one(*bids) == bids[2]


@pytest.mark.parametrize("x, y", [(0.9, 1.5), (0.35, 2.0), (1.2, 0.7)])
@pytest.mark.parametrize("ratio", [0.5, 0.9995, 1.0, 1.5, -0.5])
def test_a_buyer_on_a_settled_price_bids_its_best_response(x, y, ratio):
    """Bids b0 and b1 cleared at one unit price u = 0.3: whatever the trend
    of its bids, the buyer bids (x*y - u)/y, the spend that maximizes
    U(d) - u*d for U'(d) = x*y/(y*d + 1), bit for bit."""
    u = 0.3
    b0, b1, b2 = (0.4 + 0.2 * ratio**n for n in range(3))
    d0, d1 = b0 / u, b1 / u
    assert b0 / d0 == b1 / d1 == u
    choke = x * y
    expected = (choke - u) / y
    assert expected > 0.0
    assert _extrapolate_one(b0, b1, b2, d0, d1, choke, y).hex() == expected.hex()
    # unit prices 5e-9 apart have settled; 1e-7 apart, or with no allocation
    # on either side, they have not, and the bid keeps its Aitken rule
    assert _extrapolate_one(b0, b1, b2, d0 * (1 + 5e-9), d1, choke, y).hex() == expected.hex()
    unsettled = _extrapolate_one(b0, b1, b2, choke=choke, y=y)
    for d0_unsettled, d1_unsettled in ((d0 * (1 + 1e-7), d1), (0.0, d1), (d0, 0.0)):
        assert _extrapolate_one(b0, b1, b2, d0_unsettled, d1_unsettled, choke, y) == unsettled


def _extrapolation_market():
    # buyer 0 is priced out and parked from the start; the others' unit
    # prices still move at each of the first three extrapolating steps
    buyers = [BuyerState(0.2, 1.0), BuyerState(1.0, 1.0), BuyerState(1.8, 1.5)]
    sellers = [SellerState(0.2, 1.0, 4.0), SellerState(0.3, 1.4, 3.0)]
    return buyers, sellers


def test_buyers_extrapolate_on_every_fourth_step_only():
    buyers, sellers = _extrapolation_market()
    state = engine._initial_state(buyers, sellers, P)
    assert state.clearing is None and state.bids[0] == 0.0
    jumps = 0
    while state.iteration < 12:
        nxt = auction_step(state, CFG)
        plain = auction_step(dataclasses.replace(state, clearing=None), CFG)
        # asks never extrapolate
        assert nxt.asks == plain.asks
        assert nxt.clearing.bids == state.bids
        if state.iteration % 4 != 3:
            assert nxt.bids == plain.bids
        else:
            rounds = zip(
                state.clearing.bids, state.bids, plain.bids, state.clearing.d, nxt.clearing.d,
                state.buyer_constants,
            )
            expected = tuple(
                0.0 if b1 == 0.0 else _extrapolate_one(b0, b1, b2, d0, d1, xy, y)
                for b0, b1, b2, d0, d1, (xy, y) in rounds
            )
            assert nxt.bids == expected
            jumps += nxt.bids != plain.bids
        state = nxt
    assert jumps == 3


def test_parked_buyers_never_extrapolate():
    buyers, sellers = _extrapolation_market()
    state = engine._initial_state(buyers, sellers, P)
    for _ in range(3):
        state = auction_step(state, CFG)
    assert state.bids[0] == 0.0 and (state.iteration + 1) % 4 == 0
    # a previous bid that would extrapolate if the buyer were active
    previous = state.clearing
    previous = dataclasses.replace(previous, bids=(0.3,) + previous.bids[1:])
    state = dataclasses.replace(state, clearing=previous)
    nxt = auction_step(state, CFG)
    assert nxt.bids[0] == 0.0


def _settled_jump_state():
    """A corpus k=227 state one step before a buyer in the market jumps
    only because its unit price has settled, and that buyer's index. The
    jump lands on a bid above zero, so the buyer did not park."""
    buyers, sellers = _corpus_market(227)
    state = engine._initial_state(buyers, sellers, P)
    while state.iteration < 100:
        nxt = auction_step(state, CFG)
        if (state.iteration + 1) % 4 == 0:
            plain = auction_step(dataclasses.replace(state, clearing=None), CFG)
            for i, (b0, b1, b2) in enumerate(zip(state.clearing.bids, state.bids, plain.bids)):
                if nxt.bids[i] not in (plain.bids[i], 0.0) and _extrapolate_one(b0, b1, b2) == b2:
                    return state, i
        state = nxt
    raise AssertionError("no buyer jumped on a settled unit price in 100 steps")


def test_step_compares_unit_prices_of_the_last_two_clearings():
    """The unit price u = b1/d1 that a buyer responds to is that of its
    current bid at the clearing this step makes, and it has settled against
    the unit price of its previous bid at the previous clearing."""
    state, i = _settled_jump_state()
    nxt = auction_step(state, CFG)
    plain = auction_step(dataclasses.replace(state, clearing=None), CFG)
    b0, b1 = state.clearing.bids[i], state.bids[i]
    d0, d1 = state.clearing.d[i], nxt.clearing.d[i]
    xy, y = state.buyer_constants[i]
    u = b1 / d1
    assert d0 > 0.0 and abs(u - b0 / d0) <= 1e-8 * u < xy - u
    assert 0.0 < nxt.bids[i] == (xy - u) / y != plain.bids[i]


def test_parked_buyers_never_extrapolate_on_a_settled_price():
    state, i = _settled_jump_state()
    bids = state.bids[:i] + (0.0,) + state.bids[i + 1:]
    nxt = auction_step(dataclasses.replace(state, bids=bids), CFG)
    assert nxt.bids[i] == 0.0


def test_a_buyer_priced_out_at_a_settled_price_parks():
    """Corpus k=209, buyer 21: its choke price x*y sits 0.07% below the
    clearing price. On the first extrapolating step after its unit price
    b/d has settled to 1e-8, it bids 0.0, its best response at that price,
    where the plain re-quote would have kept it in the market; parked, it
    bids 0.0 on every later step."""
    buyers, sellers = _corpus_market(209)
    choke = buyers[21].x * buyers[21].y
    state = engine._initial_state(buyers, sellers, P)
    while state.iteration < 100:
        nxt = auction_step(state, CFG)
        assert nxt.bids[21] > 0.0 or state.iteration % 4 == 3
        if state.iteration % 4 == 3:
            b0, b1 = state.clearing.bids[21], state.bids[21]
            d0, d1 = state.clearing.d[21], nxt.clearing.d[21]
            if abs(b1 / d1 - b0 / d0) <= 1e-8 * (b1 / d1):
                break
        state = nxt
    else:
        raise AssertionError("buyer 21's unit price did not settle in 100 steps")
    assert nxt.iteration == 56
    assert 0.999 < choke / nxt.clearing.mu < 1.0
    assert choke <= b1 / d1
    plain = auction_step(dataclasses.replace(state, clearing=None), CFG)
    assert plain.bids[21] >= BID_FLOOR
    assert nxt.bids[21] == 0.0
    while nxt.iteration < 100:
        nxt = auction_step(nxt, CFG)
        assert nxt.bids[21] == 0.0 == nxt.clearing.d[21]


def test_a_buyer_whose_unit_price_has_not_settled_keeps_the_halving_bound():
    """Unit prices 0.5 at both clearings are settled: a buyer whose choke
    price x*y is at or below 0.5 bids 0.0, and one above it bids its best
    response, whatever its bids' trend. A unit price that moved by
    1e-7, or a clearing without an allocation, has not settled, whatever
    the choke price: the jump from 0.26 toward its limit 0.0385 stops at
    half the bid, 0.13."""
    b0, b1, b2, d0, d1 = 1.0, 0.5, 0.26, 2.0, 1.0
    assert _extrapolate_one(b0, b1, b2, d0, d1, choke=0.5) == 0.0
    assert _extrapolate_one(b0, b1, b2, d0, d1, choke=0.4) == 0.0
    assert _extrapolate_one(b0, b1, b2, d0, d1, choke=0.6, y=2.0) == (0.6 - 0.5) / 2.0
    for d0_unsettled, d1_unsettled in ((2.0 * (1 + 1e-7), 1.0), (0.0, 1.0), (2.0, 0.0)):
        for choke in (0.4, 0.5, 0.6):
            assert _extrapolate_one(b0, b1, b2, d0_unsettled, d1_unsettled, choke=choke) == 0.13


def test_parking_ends_the_creep_of_corpus_k209():
    """Buyer 21's bid used to halve toward the floor until round 136; parked,
    it lets the market converge within 65 rounds, not 137. That it stops at
    the equilibrium reference is test_sold_out_markets_converge_to_the_
    saturated_fixed_point's gate."""
    outcome = run_auction(
        *_corpus_market(209), P, AuctionConfig(max_iters=2500, record_trace=False)
    )
    assert outcome.converged and outcome.iterations <= 65
    assert outcome.clearing.bids[21] == 0.0


def test_a_settled_best_response_ends_the_crawl_of_corpus_k227():
    """Corpus k=227 was the slowest corpus market, at 77 rounds: buyer 2,
    with x*y/mu = 1.00014, crawled toward its bid limit, landing short of it
    on each extrapolating step. Bidding its best response at its settled
    unit price, the market stops at the equilibrium reference in 62."""
    buyers, sellers = _corpus_market(227)
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=2500, record_trace=False))
    assert outcome.converged and outcome.iterations <= 62
    zero_bid_mismatch, mu_gap, alloc_gap, _ = equilibrium_gaps(
        outcome, equilibrium_reference(buyers, sellers, P.p)
    )
    assert not zero_bid_mismatch
    assert mu_gap <= 1e-6 and alloc_gap <= 5e-6


def _bid_reference(b0, b1, b2, d0, d1, choke, y):
    """One buyer's bid on an extrapolating round, from the rule's statement,
    and which case gave it.

    Once its unit prices b0/d0 and b1/d1 agree to 1e-8 of u = b1/d1, the
    buyer takes u as its price: its marginal utility choke/(y*d + 1) meets
    u at d = (choke/u - 1)/y, so it spends u*d = (choke - u)/y, or nothing
    when its first unit is worth no more than u. Otherwise a ratio
    r = (b2 - b1)/(b1 - b0) in (0, 0.999) jumps to the geometric limit, but
    never below half of b2."""
    if d0 > 0.0 and d1 > 0.0 and abs(b1 / d1 - b0 / d0) <= 1e-8 * (b1 / d1):
        spend = (choke - b1 / d1) / y
        return (spend, "responded") if spend > 0.0 else (0.0, "parked")
    r = (b2 - b1) / (b1 - b0) if b1 != b0 else 0.0
    if 0.0 < r < 0.999:
        return max(b2 + (b2 - b1) * r / (1 - r), 0.5 * b2), "jumped"
    return b2, "kept"


_ALL_CASES = {"responded", "parked", "jumped", "kept"}


@pytest.mark.parametrize(
    "market, cases, buyer, case",
    [
        (lambda: _large_market(0), {"jumped", "kept"}, None, None),
        (lambda: _corpus_market(966), {"jumped", "kept"}, 13, "jumped"),
        (lambda: _corpus_market(209), _ALL_CASES, 21, "parked"),
        (lambda: _corpus_market(227), _ALL_CASES, None, None),
    ],
    ids=["large (300, 150) seed=0 m=0", "corpus k=966", "corpus k=209", "corpus k=227"],
)
def test_the_aitken_pass_matches_a_per_buyer_reference(market, cases, buyer, case):
    """On every extrapolating step of a run, each buyer's new bid is the
    per-buyer rule applied to its own bids and allocations, then floored:
    a parked buyer stays at 0.0. On corpus k = 966 this includes the jumps
    of buyer 13, whose bid stops furthest from the equilibrium, and on
    corpus k = 209 the park of buyer 21, priced out at a settled price.
    There and on corpus k = 227 every case of the rule occurs."""
    buyers, sellers = market()
    config = AuctionConfig(max_iters=2500, record_trace=False)
    iterations = run_auction(buyers, sellers, P, config).iterations
    state = engine._initial_state(buyers, sellers, P)
    seen = {}
    while state.iteration < iterations:
        nxt = auction_step(state, CFG)
        if state.iteration % 4 == 3:
            previous = state.clearing
            for i, (agent, b1, new) in enumerate(zip(buyers, state.bids, nxt.bids)):
                if b1 == 0.0:
                    assert new == 0.0
                    continue
                utility = LogUtility(agent.x, agent.y)
                d1 = nxt.clearing.d[i]
                target = utility.marginal(d1) * d1
                bid, how = _bid_reference(
                    previous.bids[i], b1, target, previous.d[i], d1, utility.marginal(0.0), agent.y
                )
                assert new == (0.0 if bid < BID_FLOOR else bid)
                seen.setdefault(how, set()).add(i)
        state = nxt
    assert set(seen) == cases
    assert buyer is None or buyer in seen[case]


def test_an_extrapolating_step_calls_the_aitken_pass_once(monkeypatch):
    """The Aitken rule runs once per extrapolating round over every buyer,
    never once per buyer, and a plain round does not call it."""
    calls = []
    extrapolate = engine._extrapolate

    def counted(*rounds):
        calls.append(len(rounds[0]))
        return extrapolate(*rounds)

    monkeypatch.setattr(engine, "_extrapolate", counted)
    state = engine._initial_state(*_large_market(0), P)
    passes = 0
    while state.iteration < 13:
        calls.clear()
        extrapolating = state.iteration % 4 == 3
        state = auction_step(state, CFG)
        if extrapolating:
            assert calls in ([], [300])
            passes += len(calls)
        else:
            assert calls == []
    assert passes == 3


@pytest.fixture(scope="module")
def large_markets():
    """The 36 large-market benchmark markets of seeds 0-2, run to convergence,
    as (buyers, sellers, outcome)."""
    config = AuctionConfig(max_iters=2500, record_trace=False)
    runs = []
    for seed in range(3):
        for m in range(12):
            buyers, sellers = _large_market(m, seed)
            runs.append((buyers, sellers, run_auction(buyers, sellers, P, config)))
    return runs


def test_sold_out_sellers_ask_their_retained_marginal_value(large_markets):
    """At convergence a sold-out seller's ask is its fixed point
    min(v'(g - a), p), not an ask still creeping toward it. Checked on the
    36 large-market benchmark markets of seeds 0-2."""
    checked = 0
    for buyers, sellers, outcome in large_markets:
        assert outcome.converged
        clearing = outcome.clearing
        for seller, c, s, a in zip(sellers, clearing.asks, clearing.s, clearing.avails):
            if s == a > 0:
                expected = min(LogUtility(seller.x, seller.y).marginal(seller.g - a), P.p)
                assert math.isclose(c, expected, rel_tol=1e-12)
                checked += 1
    assert checked >= 1000


def test_large_markets_match_the_equilibrium_reference(large_markets):
    """The corpus gates of the acceptance suite, asks included, on the 36
    large-market benchmark markets of seeds 0-2: the same zero bids, mu and
    every ask within tol_rel, every allocation within 5e-6 * max(1,
    reference). The bounds are never to be loosened."""
    for n, (buyers, sellers, outcome) in enumerate(large_markets):
        reference = equilibrium_reference(buyers, sellers, P.p)
        assert reference is not None and not outcome.clearing.no_trade
        zero_bid_mismatch, mu_gap, alloc_gap, ask_gap = equilibrium_gaps(outcome, reference)
        assert not zero_bid_mismatch, f"market {n}: buyers {sorted(zero_bid_mismatch)}"
        assert mu_gap <= 1e-6, f"market {n}: mu {mu_gap:.3e} off"
        assert alloc_gap <= 5e-6, f"market {n}: allocation {alloc_gap:.3e} off"
        assert ask_gap <= 1e-6, f"market {n}: ask {ask_gap:.3e} off"


def test_large_market_welfare_is_certified_by_the_dual_bound(large_markets):
    """(L(mu) - theta)/theta at each outcome's own clearing price is at most
    2e-14 on the 36 large markets, about ten times the worst measured when
    the gate was added (1.72e-15), and never below -3e-15."""
    for n, (buyers, sellers, outcome) in enumerate(large_markets):
        clearing = outcome.clearing
        theta = welfare_value(buyers, sellers, clearing.d, clearing.s)
        bound = dual_bound(buyers, sellers, clearing.bids, clearing.avails, P.p, clearing.mu)
        assert -3e-15 <= (bound - theta) / theta <= 2e-14, f"market {n}"


def test_unconverged_run_is_flagged():
    rng = random.Random(8)
    buyers, sellers = _mixed_market(rng, 3, 2)
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=3))
    assert not outcome.converged
    assert outcome.iterations == 3


def test_config_validation():
    with pytest.raises(ValueError):
        AuctionConfig(tol_rel=0.0)
    with pytest.raises(ValueError):
        AuctionConfig(max_iters=0)


def test_config_rejects_a_nan_iteration_cap():
    # iteration >= nan is always false, so a NaN cap would never stop a run
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        AuctionConfig(max_iters=math.nan)


@pytest.mark.parametrize("value", [math.inf, 2.5, True, "10"])
def test_config_requires_an_integer_iteration_cap(value):
    # inf would never stop a run, 2.5 would run 3 rounds and True would count as 1
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        AuctionConfig(max_iters=value)


@pytest.mark.parametrize("field", ["tol_rel"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_config_rejects_tolerances_that_are_not_positive_and_finite(field, value):
    # every "> tol" stopping test is false against NaN, so a NaN tolerance
    # would report convergence after one clearing
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        AuctionConfig(**{field: value})


def test_determinism_across_runs():
    rng = random.Random(314)
    buyers, sellers = _mixed_market(rng, 4, 3)
    first = run_auction(buyers, sellers, P, CFG)
    second = run_auction(buyers, sellers, P, CFG)
    assert first.clearing.bids == second.clearing.bids
    assert first.clearing.asks == second.clearing.asks
    assert first.clearing == second.clearing
    assert first.iterations == second.iterations


def _corpus_draw(rng, nb, ns):
    """Draw order and ranges of the acceptance corpus and the large bench markets."""
    buyers = [BuyerState(rng.uniform(0.5, 1.2), rng.uniform(1.2, 1.8)) for _ in range(nb)]
    sellers = [
        SellerState(rng.uniform(0.1, 0.4), rng.uniform(1.2, 1.8), rng.uniform(2.0, 5.0))
        for _ in range(ns)
    ]
    return buyers, sellers


def _corpus_market(k):
    rng = random.Random(mix_seed(0xC0, k))
    nb = rng.randint(1, 30)
    ns = rng.randint(1, 30)
    return _corpus_draw(rng, nb, ns)


def test_the_breakpoint_sweep_guesses_every_corpus_bracket(missed_guesses):
    """The sweep's guess is the bracket in the normal case, which keeps a
    clearing or a planner solve at two exact sums: no search misses over the
    first 300 corpus markets, nor at their final bids in the planner."""
    clearing_misses = missed_guesses(clearing)
    welfare_misses = missed_guesses(welfare)
    config = AuctionConfig(max_iters=2500, record_trace=False)
    for k in range(300):
        buyers, sellers = _corpus_market(k)
        outcome = run_auction(buyers, sellers, P, config)
        welfare.solve_welfare(buyers, sellers, outcome.clearing.bids, outcome.clearing.avails, P)
    assert len(welfare_misses) == 300 and len(clearing_misses) >= 300
    assert not any(clearing_misses) and not any(welfare_misses)


def _large_market(m, seed=0):
    """Market m of the (300, 150) large-market benchmark workload's seed."""
    return _corpus_draw(random.Random(mix_seed(0x1A5E, seed, m)), 300, 150)


def test_a_sold_out_round_clears_without_the_breakpoint_sweep(monkeypatch):
    """A round whose demand at the top breakpoint exceeds all that is
    offered clears at once, without sorting or sweeping its breakpoints. On
    large-market seed 0, m = 0, the sweep runs for exactly the rounds where
    total_bid / top does not exceed total_avail, and most rounds skip it."""
    sweeps = []
    sweep = clearing.sweep_guess

    def counted_sweep(*args):
        sweeps.append(args)
        return sweep(*args)

    rounds = []
    clear = engine.clear_market_proximal

    def watched(bids, asks, avails, params, prev_s, weights):
        rounds.append((bids, asks, avails, prev_s, weights))
        return clear(bids, asks, avails, params, prev_s=prev_s, weights=weights)

    monkeypatch.setattr(clearing, "sweep_guess", counted_sweep)
    monkeypatch.setattr(engine, "clear_market_proximal", watched)
    outcome = run_auction(*_large_market(0), P, AuctionConfig(max_iters=2500, record_trace=False))
    not_sold_out = 0
    for bids, asks, avails, prev_s, weights in rounds:
        total_bid = math.fsum(b for b in bids if b > BID_FLOOR)
        top = max(
            [P.p]
            + [c + w * (a - min(max(v, 0.0), a))
               for c, a, v, w in zip(asks, avails, prev_s, weights) if a > 0]
        )
        not_sold_out += total_bid / top <= math.fsum(avails)
    assert len(rounds) == outcome.iterations
    assert 0 < len(sweeps) == not_sold_out < outcome.iterations


def test_an_all_capped_sold_out_round_clears_without_a_seller_pass(monkeypatch):
    """A sold-out round whose sellers all sat at their availability last
    round leaves through the one sold-out exit before any pass over the
    sellers: the caller has not yet built its seller tuples. On
    large-market seed 0, m = 0, that happens for exactly the rounds where
    prev_s equals the availabilities and total_bid / top exceeds
    total_avail, 10 of the 13, and every other sold-out round leaves
    through the same exit after the pass."""
    exits = []
    sold_out = clearing._sold_out

    def counted_sold_out(*args):
        exits.append("sellers" in sys._getframe(1).f_locals)
        return sold_out(*args)

    rounds = []
    clear = engine.clear_market_proximal

    def watched(bids, asks, avails, params, prev_s, weights):
        rounds.append((bids, asks, avails, prev_s, weights))
        return clear(bids, asks, avails, params, prev_s=prev_s, weights=weights)

    monkeypatch.setattr(clearing, "_sold_out", counted_sold_out)
    monkeypatch.setattr(engine, "clear_market_proximal", watched)
    outcome = run_auction(*_large_market(0), P, AuctionConfig(max_iters=2500, record_trace=False))
    all_capped_sold_out = sold_out_rounds = 0
    for bids, asks, avails, prev_s, weights in rounds:
        total_bid = math.fsum(b for b in bids if b > BID_FLOOR)
        top = max(
            [P.p]
            + [c + w * (a - min(max(v, 0.0), a))
               for c, a, v, w in zip(asks, avails, prev_s, weights) if a > 0]
        )
        is_sold_out = total_bid / top > math.fsum(avails)
        sold_out_rounds += is_sold_out
        all_capped_sold_out += is_sold_out and tuple(prev_s) == tuple(avails)
    assert len(rounds) == outcome.iterations == 13
    assert exits.count(False) == all_capped_sold_out == 10
    assert len(exits) == sold_out_rounds


@pytest.mark.parametrize(
    "market, iterations, converged, digest",
    [
        pytest.param(
            lambda: _corpus_market(0), 9, True,
            "81a6014a76a6cb7712bf32bbef3be6f1b3f62a0c78669a2d25c56560c8bb1105",
            id="corpus k=0",
        ),
        pytest.param(
            lambda: _corpus_market(1), 12, True,
            "3c5600dad923462b8ff442619102b03b1f7e14d17764ed52fff591d8cc3e4b78",
            id="corpus k=1",
        ),
        pytest.param(
            lambda: _corpus_market(2), 11, True,
            "1fc2e6a928f32a5b401e8a188d7f4be86d04832cef75085851fe2cf78a2720f6",
            id="corpus k=2",
        ),
        pytest.param(
            lambda: _corpus_market(209), 65, True,
            "a1cd02e820323ce0677d80e20c114a2a76e9b836af2f1a1c2dce80ad7e26faaf",
            id="corpus k=209",
        ),
        pytest.param(
            lambda: _corpus_market(209), 60, False,
            "e272c4e7e07a9a9826facd5288ed97b5e25849bb460825cd7c743c4430d3c200",
            id="corpus k=209 hits max_iters=60",
        ),
        pytest.param(
            lambda: _large_market(0), 13, True,
            "204814b0ffc1264091f307e81a0d48e59dc312231a3f1dd02698ff60e8423c96",
            id="large (300, 150) seed=0 m=0",
        ),
    ],
)
def test_outcomes_are_pinned_bit_for_bit(market, iterations, converged, digest):
    """A change that only speeds the engine up must leave every bit of these
    outcomes as it is. The k=0 and large-market digests were last recorded
    when each seller's proximal weight went from twice its curvature
    estimate to the estimate itself, a behaviour change that moved them on
    purpose: k=0 went from 11 rounds to 9, and the large market stayed at
    13 rounds with other final quotes. The k=1, k=2 and both k=209 digests
    moved on purpose when a buyer on a settled unit price began to bid its
    best response there, in place of a park and a wider Aitken window: each
    keeps its round count, and its final bids move by at most 9.1e-10
    (k=1), 4.2e-12 (k=2), 5.6e-7 (k=209) and 2.7e-6 (k=209 capped)
    relative. Buyer 21 of k=209 still parks on step 56, and the market
    converges in 65 rounds, not the 137 of its creeping bid before parks;
    the capped case stops at max_iters=60, after the park. An unconverged
    case runs with max_iters set to its pinned iteration count."""
    buyers, sellers = market()
    max_iters = 2500 if converged else iterations
    outcome = run_auction(
        buyers, sellers, P, AuctionConfig(max_iters=max_iters, record_trace=False)
    )
    clearing = outcome.clearing
    assert (outcome.iterations, outcome.converged) == (iterations, converged)
    key = (
        outcome.iterations, outcome.converged, clearing.mu, clearing.d, clearing.s,
        clearing.bids, clearing.asks,
    )
    assert hashlib.sha256(repr(key).encode()).hexdigest() == digest


def test_settlement_payoffs_are_pinned_bit_for_bit():
    """compute_payoffs at the final quotes and allocations of the first 100
    corpus markets. The digest was re-recorded when buyers on a settled
    unit price began to bid their best response there, which moved some of
    these outcomes; the compute_payoffs that the old digest pinned gives
    the new one on them."""
    config = AuctionConfig(max_iters=2500, record_trace=False)
    digest = hashlib.sha256()
    for k in range(100):
        buyers, sellers = _corpus_market(k)
        outcome = run_auction(buyers, sellers, P, config)
        clearing = outcome.clearing
        payoffs = compute_payoffs(
            buyers, sellers, clearing.bids, clearing.d, clearing.asks, clearing.s
        )
        digest.update(repr(payoffs).encode())
    assert digest.hexdigest() == "fdd605b2225d9b3f73b6abec4b3e46fe4df16b8d0ebe45342e695f7cd0be90ad"


@pytest.mark.parametrize(
    "market",
    [lambda: _corpus_market(2), lambda: _large_market(0)],
    ids=["corpus k=2", "large (300, 150) seed=0 m=0"],
)
def test_full_information_evaluations_make_no_utility_calls(monkeypatch, market):
    """The planner, social welfare, settlement and the outcome check read
    each agent's x, y and g and write the utility out, so once the agents
    exist nothing builds or calls a LogUtility: not an auction with its
    per-round welfare trace, nor anything evaluated on its outcome."""
    buyers, sellers = market()

    def refuse(self, *args):
        raise AssertionError("a LogUtility was built or called")

    for name in ("__post_init__", "value", "marginal", "inverse_marginal"):
        monkeypatch.setattr(LogUtility, name, refuse)
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=2500))
    clearing = outcome.clearing
    assert outcome.converged and len(outcome.trace) == outcome.iterations
    verify_outcome(outcome, buyers, sellers)
    payoffs = compute_payoffs(
        buyers, sellers, clearing.bids, clearing.d, clearing.asks, clearing.s
    )
    assert payoffs == outcome.payoffs
    sol = welfare.solve_welfare(buyers, sellers, clearing.bids, clearing.avails, P)
    assert not sol.no_trade
    theta = welfare.social_welfare(buyers, sellers, clearing.d, clearing.s)
    assert theta == outcome.trace[-1].theta <= sol.theta


def test_engine_computes_the_residual_only_for_a_candidate_stop(monkeypatch):
    """The stop test reads the clearing's residual only once the quotes and
    allocations have settled, so a market that converges computes it once,
    for its final clearing. An unconverged outcome computes it when read."""
    residual = clearing.kkt_residual
    calls = []

    def counted(result, *inputs):
        calls.append(result)
        return residual(result, *inputs)

    monkeypatch.setattr(clearing, "kkt_residual", counted)
    for k in range(5):
        calls.clear()
        outcome = run_auction(*_corpus_market(k), P, AuctionConfig(record_trace=False))
        assert outcome.converged
        assert len(calls) == 1
        assert calls[0] is outcome.clearing
    outcome = run_auction(
        *_corpus_market(209), P, AuctionConfig(max_iters=60, record_trace=False)
    )
    assert not outcome.converged
    final = outcome.clearing
    assert final.kkt_residual == residual(final)


# Corpus markets that used to hit max_iters=2500 before buyers extrapolated.
# They pin the settled-price gate of the best response, whose zero is the
# park. Parking a buyer whenever its choke price x*y is at most its unit
# price b/d, without waiting for that price to settle, parks buyer 18 of
# k=851 for good and moves mu by 4.5e-4, and puts k=77 and k=144 1.7e-3 and
# 1.4e-3 off with two wrong zero bids each. Under the gated rule in
# _extrapolate all seven stop at the reference.
_FORMERLY_STUCK = (36, 56, 77, 90, 144, 249, 851)


@pytest.mark.parametrize("k", _FORMERLY_STUCK, ids=lambda k: f"corpus k={k}")
def test_formerly_stuck_markets_converge_to_the_reference(k):
    buyers, sellers = _corpus_market(k)
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=2500, record_trace=False))
    assert outcome.converged
    zero_bid_mismatch, mu_gap, _, _ = equilibrium_gaps(
        outcome, equilibrium_reference(buyers, sellers, P.p)
    )
    assert not zero_bid_mismatch
    assert mu_gap <= 1e-6


# Asks of the engine before quotes were undamped (each round blended half
# way toward its target), without extrapolation, run to tol_rel=1e-12 with
# the clearing's KKT residual held to 1e-9 (a setting of that engine), and
# max_iters=20000; both took 80 rounds.
_REFERENCE_ASKS = {
    2: (
        0.09568445155525326, 0.05974490393543978, 0.05974490393544049,
        0.11780916096028221, 0.05974490393544815, 0.06847958532892659,
    ),
    870: (
        0.044604444644965324, 0.06604313461422862, 0.12463594575394138,
        0.0446044446449642, 0.04460444464491152, 0.0681699026328827,
        0.08483112085088207, 0.044604444644976024, 0.05917192504553778,
        0.04460444464490115,
    ),
}


@pytest.mark.parametrize("k", sorted(_REFERENCE_ASKS), ids=lambda k: f"corpus k={k}")
def test_asks_stop_within_2e_6_of_the_reference(k):
    """The asks stop on the size of their last step, not on their distance
    to the fixed point. Damped, an interior seller's ask crept toward it
    slowly enough to stop 3.74e-6 (k=870) and 3.46e-6 (k=2) relative off.
    The corpus-wide check against the equilibrium oracle is in
    test_acceptance; these two pin recorded asks independent of it."""
    buyers, sellers = _corpus_market(k)
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=2500, record_trace=False))
    assert outcome.converged
    for got, want in zip(outcome.clearing.asks, _REFERENCE_ASKS[k], strict=True):
        assert abs(got - want) <= 2e-6 * want


def _sold_out_seller(total_avail):
    # v'(q) = 0.25/(q + 1) reaches the floor p = 0.25 only at q = 0, so the
    # seller offers everything it generates and, sold out, asks p
    return SellerState(0.25, 1.0, total_avail)


def test_saturated_reference_on_hand_solved_markets():
    # demand at p exceeds the offer, so mu >= p solves
    # sum(max(x - mu/y, 0)) = mu*A; one buyer: mu = x/(A + 1/y)
    assert equilibrium_reference([BuyerState(1.0, 1.0)], [_sold_out_seller(1.0)], P.p) == (
        0.5, [1.0], [1.0], [0.5], [0.25]
    )
    # a choke price x*y = 0.3 below that mu leaves the second buyer out
    mu, d, s, bids, asks = equilibrium_reference(
        [BuyerState(1.0, 1.0), BuyerState(0.3, 1.0)], [_sold_out_seller(1.0)], P.p
    )
    assert (mu, d, bids) == (0.5, [1.0, 0.0], [0.5, 0.0])
    # both bid: mu = (1 + 0.9)/(1.5 + 1 + 0.5), below both choke prices 1 and 1.8
    mu, d, s, bids, asks = equilibrium_reference(
        [BuyerState(1.0, 1.0), BuyerState(0.9, 2.0)], [_sold_out_seller(1.5)], P.p
    )
    assert mu == pytest.approx(1.9 / 3.0, rel=1e-15)
    assert d == pytest.approx([1.1 / 1.9, 1.75 / 1.9], rel=1e-14)
    assert s == [1.5] and asks == [0.25]


def test_equilibrium_reference_below_the_floor_on_a_hand_solved_market():
    # At p = 0.25 buyer 0 demands 1/p - 1 = 3 and buyer 1, choke price 0.2,
    # nothing; both pay p. Seller 0 offers 8 - (1/p - 1) = 5 > 3, so mu <= p
    # solves 8 - (1/mu - 1) = 3: mu = 1/6, and seller 0 asks v'(5) = 1/6.
    # Seller 1 offers 1 - (0.4/p - 1) = 0.4 but sells nothing at mu = 1/6,
    # because its cheapest marginal value v'(1) = 0.2 lies above it.
    buyers = [BuyerState(1.0, 1.0), BuyerState(0.2, 1.0)]
    sellers = [SellerState(1.0, 1.0, 8.0), SellerState(0.4, 1.0, 1.0)]
    reference = equilibrium_reference(buyers, sellers, P.p)
    mu, d, s, bids, asks = reference
    assert mu == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert d == [3.0, 0.0] and bids == [0.75, 0.0]
    assert s == pytest.approx([3.0, 0.0], abs=1e-14) and s[1] == 0.0
    assert asks == pytest.approx([1.0 / 6.0, 0.2], rel=1e-14)
    outcome = run_auction(buyers, sellers, P, CFG)
    assert outcome.converged
    zero_bid_mismatch, *gaps = equilibrium_gaps(outcome, reference)
    assert not zero_bid_mismatch and max(gaps) <= 1e-6


def test_equilibrium_reference_sees_no_trade_without_demand_or_offer():
    # no buyer's choke price x*y exceeds p = 0.25
    assert equilibrium_reference([BuyerState(0.2, 1.0)], [_sold_out_seller(1.0)], P.p) is None
    # the seller's marginal value at full stock, 1/(1 + 1) = 0.5, exceeds p
    assert equilibrium_reference([BuyerState(1.0, 1.0)], [SellerState(1.0, 1.0, 1.0)], P.p) is None


# Corpus markets with 1 to 4 sellers that used to hit max_iters=2500 while
# one buyer's bid crept toward its limit at a rate of 0.9993 to 0.99996.
_SOLD_OUT = (209, 227, 297, 312, 319, 576, 739)


@pytest.mark.parametrize("k", _SOLD_OUT, ids=lambda k: f"corpus k={k}")
def test_sold_out_markets_converge_to_the_saturated_fixed_point(k):
    buyers, sellers = _corpus_market(k)
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=2500, record_trace=False))
    assert outcome.converged
    for s, a in zip(outcome.clearing.s, outcome.clearing.avails):
        assert math.isclose(s, a, rel_tol=1e-12)
    reference = equilibrium_reference(buyers, sellers, P.p)
    assert reference[2] == list(outcome.clearing.avails)
    zero_bid_mismatch, mu_gap, _, _ = equilibrium_gaps(outcome, reference)
    assert not zero_bid_mismatch
    assert mu_gap <= 1e-6


_LONG_RUN = AuctionConfig(max_iters=2500, record_trace=False)


def _clearing_bits(result):
    """A ClearingResult's fields as float.hex strings where they are floats,
    so that -0.0 and 0.0 differ."""
    floats = (result.d, result.s, result.bids, result.asks, result.avails)
    mu = None if result.mu is None else result.mu.hex()
    return [[v.hex() for v in values] for values in floats], mu, result.buyer_budget_active


def test_a_warm_clearing_is_bit_for_bit_a_cold_one(cold_checks):
    """Every round of large-market seed 0, m = 0, and of 20 corpus markets,
    cleared by the engine with the memo holding the previous round's
    inputs, and again with the memo emptied: float.hex-identical results.
    The warm calls do find the availabilities, and often the asks, there.
    From the second round on, prev_s is the allocation the clearing
    returned, which it takes without a check; passed as a plain tuple or
    a list of the same values, it is checked, and clears to the same
    bits, in each regime: all capped and sold out, sold out, and search."""
    avails_hits = asks_hits = rounds = 0
    regimes = Counter()
    for buyers, sellers in [_large_market(0)] + [_corpus_market(k) for k in range(20)]:
        state = engine._initial_state(buyers, sellers, P)
        for _ in range(run_auction(buyers, sellers, P, _LONG_RUN).iterations):
            known_avails, _, known_asks, _ = clearing._checked
            avails_hits += known_avails is state.avails
            asks_hits += known_asks is state.asks
            nxt = auction_step(state, _LONG_RUN)
            for prev_s in (state.prev_s, tuple(state.prev_s), list(state.prev_s)):
                cold_checks()
                cold = clearing.clear_market_proximal(
                    state.bids, state.asks, state.avails, P,
                    prev_s=prev_s, weights=state.prox_weights,
                )
                assert _clearing_bits(cold) == _clearing_bits(nxt.clearing)
            if state.iteration > 0:
                sold_out = nxt.clearing.s == state.avails
                all_capped = sold_out and state.prev_s == state.avails
                regimes["all capped" if all_capped else "sold out" if sold_out else "search"] += 1
            state = nxt
            rounds += 1
    assert avails_hits == rounds - 21
    assert 0 < asks_hits < avails_hits
    assert sorted(regimes) == ["all capped", "search", "sold out"]


def test_an_all_capped_sold_out_round_settles_on_the_allocation_it_was_passed():
    """On large-market seed 0, m = 0, 10 of the 13 rounds are sold out with
    every seller capped the round before. Exactly those return the very
    prev_s tuple the engine passed, the allocation the previous clearing
    returned, in place of a new tuple of the same availabilities."""
    buyers, sellers = _large_market(0)
    state = engine._initial_state(buyers, sellers, P)
    same, all_capped = [], []
    for _ in range(run_auction(buyers, sellers, P, _LONG_RUN).iterations):
        nxt = auction_step(state, _LONG_RUN)
        same.append(nxt.clearing.s is state.prev_s)
        all_capped.append(state.prev_s == state.avails == nxt.clearing.s)
        state = nxt
    assert len(same) == 13 and sum(all_capped) == 10
    assert same == all_capped


def test_each_quote_tuple_is_checked_once(cold_checks, checked_names):
    """On large-market seed 0, m = 0, the availabilities are checked on the
    first round only. The asks and weights are checked on the first round
    and on each round after one that moved a seller, the rounds that clear
    new tuples of them. The bids are checked in the pass that sums them and
    never reach check_nonnegative."""
    buyers, sellers = _large_market(0)
    rounds = run_auction(buyers, sellers, P, _LONG_RUN).iterations
    state = engine._initial_state(buyers, sellers, P)
    moved = []
    for _ in range(rounds):
        checked_names.clear()
        nxt = auction_step(state, _LONG_RUN)
        if state.iteration == 0:
            assert checked_names == [
                "proximal weights", "availabilities", "asks of offering sellers"
            ]
        elif moved[-1]:
            assert checked_names == ["proximal weights", "asks of offering sellers"]
        else:
            assert checked_names == []
        moved.append(nxt.clearing.s != state.prev_s)
        state = nxt
    assert True in moved[:-1] and False in moved[:-1]
