"""Acceptance gate: ten criteria, one test and one printed verdict each.

Each test checks a stated tolerance and prints a single PASS line on
success; a failure reads as the usual assertion with the offending values.
The randomized criteria pin their seeds, so the whole gate is deterministic.
"""

import math
import random
import time

import pytest

from microgrid_auction.clearing import clear_market, clearing_objective
from microgrid_auction.engine import AuctionConfig, run_auction
from microgrid_auction.experiments import (
    exp_case_study,
    exp_payoff_sweep,
    exp_welfare_fairness,
    mix_seed,
)
from microgrid_auction.fairness import uniform_reprice, water_fill
from microgrid_auction.market import BuyerState, MarketParams, SellerState
from microgrid_auction.utility import LogUtility
from microgrid_auction.welfare import social_welfare, solve_welfare

from oracles import (
    best_clearing_objective,
    best_welfare_by_grid,
    dual_bound,
    equilibrium_gaps,
    equilibrium_reference,
    welfare_value,
)

P = MarketParams()

CORPUS_SIZE = 1000
CORPUS_SALT = 0xC0


def _draw_market(rng, nb, ns, buyer_x=(0.5, 1.2), seller_x=(0.1, 0.4)):
    buyers = [BuyerState(rng.uniform(*buyer_x), rng.uniform(1.2, 1.8)) for _ in range(nb)]
    sellers = [
        SellerState(rng.uniform(*seller_x), rng.uniform(1.2, 1.8), rng.uniform(2.0, 5.0))
        for _ in range(ns)
    ]
    return buyers, sellers


@pytest.fixture(scope="module")
def corpus():
    """1000 auctions across N_b, N_s in [1, 30], shared by C3, C4, C10 and
    the equilibrium-reference gates."""
    config = AuctionConfig(max_iters=2500, record_trace=False)
    runs = []
    for k in range(CORPUS_SIZE):
        rng = random.Random(mix_seed(CORPUS_SALT, k))
        nb = rng.randint(1, 30)
        ns = rng.randint(1, 30)
        buyers, sellers = _draw_market(rng, nb, ns)
        outcome = run_auction(buyers, sellers, P, config)
        runs.append((outcome, buyers, sellers))
    converged = sum(1 for outcome, _, _ in runs if outcome.converged)
    # Every market converges, in a median of 12 rounds and the slowest
    # (k=456) in 69, so C3, C4 and the equilibrium gates cover the whole
    # corpus. Seven of them (all sellers sold out) used to hit the cap while
    # one buyer's bid crept on a settled unit price; the unaccelerated
    # engine at tol_rel=1e-12 still fails on six of them within 20000
    # rounds.
    assert converged == CORPUS_SIZE
    return runs


def test_library_default_cap_covers_the_corpus(corpus):
    # The fixture runs with max_iters=2500; every market must also finish
    # within the default AuctionConfig's cap (the README's example config).
    cap = AuctionConfig().max_iters
    slowest = max(outcome.iterations for outcome, _, _ in corpus)
    assert slowest <= cap, f"slowest corpus market takes {slowest} rounds, cap {cap}"


@pytest.fixture(scope="module")
def corpus_references(corpus):
    return [equilibrium_reference(buyers, sellers, P.p) for _, buyers, sellers in corpus]


def test_corpus_matches_the_equilibrium_reference(corpus, corpus_references):
    """Every corpus auction stops at the independent equilibrium: the same
    no-trade verdict and zero bids, mu within tol_rel and every allocation
    within 5e-6 * max(1, reference). Both bounds sit just above the worst
    gaps measured when the gate was added, 6.65e-7 and 4.67e-6; they are
    never to be loosened."""
    worst_mu = worst_alloc = 0.0
    for k, ((outcome, _, _), reference) in enumerate(zip(corpus, corpus_references)):
        assert outcome.clearing.no_trade == (reference is None), f"k={k}"
        if reference is None:
            continue
        zero_bid_mismatch, mu_gap, alloc_gap, _ = equilibrium_gaps(outcome, reference)
        assert not zero_bid_mismatch, f"k={k}: buyers {sorted(zero_bid_mismatch)}"
        assert mu_gap <= 1e-6, f"k={k}: mu {mu_gap:.3e} off"
        assert alloc_gap <= 5e-6, f"k={k}: allocation {alloc_gap:.3e} off"
        worst_mu = max(worst_mu, mu_gap)
        worst_alloc = max(worst_alloc, alloc_gap)
    print(f"equilibrium gates: worst mu {worst_mu:.2e}, worst allocation {worst_alloc:.2e}")


def test_asks_stop_within_tol_rel_of_the_reference(corpus, corpus_references):
    """The asks stop on the size of their last step, not on their distance
    to the fixed point. With each seller's proximal weight at its curvature
    estimate, an interior seller's error almost vanishes in one round, so
    its last step bounds that distance; with the weight at twice the
    estimate, 344 corpus markets stopped with an ask beyond tol_rel."""
    worst = 0.0
    for k, ((outcome, _, _), reference) in enumerate(zip(corpus, corpus_references)):
        if reference is None:
            continue
        ask_gap = equilibrium_gaps(outcome, reference)[3]
        assert ask_gap <= 1e-6, f"k={k}: ask {ask_gap:.3e} off"
        worst = max(worst, ask_gap)
    print(f"asks: worst {worst:.2e} relative to the equilibrium reference")


def test_corpus_welfare_is_certified_by_the_dual_bound(corpus):
    """The weak-duality bound L(mu) at each outcome's own clearing price
    caps its efficiency gap with no planner solve: (L(mu) - theta)/theta is
    at most 5e-12 on every trading corpus market, about ten times the worst
    measured when the gate was added (4.75e-13, k=195), and never below
    -3e-15, ten times the worst rounding measured below zero (-2.2e-16):
    no balanced allocation beats L(mu)."""
    worst, lowest = 0.0, 0.0
    for k, (outcome, buyers, sellers) in enumerate(corpus):
        clearing = outcome.clearing
        if clearing.mu is None:
            continue
        theta = welfare_value(buyers, sellers, clearing.d, clearing.s)
        bound = dual_bound(buyers, sellers, clearing.bids, clearing.avails, P.p, clearing.mu)
        gap = (bound - theta) / theta
        assert -3e-15 <= gap <= 5e-12, f"k={k}: certified gap {gap:.3e}"
        worst, lowest = max(worst, gap), min(lowest, gap)
    print(f"dual bound: worst certified gap {worst:.2e}, lowest {lowest:.2e}")


def test_c01_water_fill_golden():
    avails = (2.177, 2.022, 2.196, 1.889, 0.254)
    start = time.perf_counter()
    s_r, level = water_fill(avails, 7.415)
    elapsed = time.perf_counter() - start
    expected = (1.790, 1.790, 1.790, 1.790, 0.254)
    for got, want in zip(s_r, expected):
        assert got == pytest.approx(want, abs=2e-3)
    assert elapsed < 1e-3
    print(f"C1 PASS: water-fill golden within +/-0.002 in {elapsed * 1e6:.0f} us")


def test_c02_uniform_repricing_goldens():
    start = time.perf_counter()
    first = uniform_reprice(
        (0.171, 0.173, 0.173, 0.173, 0.229), (2.177, 1.997, 2.092, 1.149, 0.0)
    )
    second = uniform_reprice(
        (0.158, 0.168, 0.206, 0.219, 0.229), (3.101, 1.052, 1.112, 0.683, 0.470)
    )
    elapsed = time.perf_counter() - start
    assert first == pytest.approx(0.172, abs=1e-3)
    assert second == pytest.approx(0.180, abs=1e-3)
    assert elapsed < 1e-3
    print(
        f"C2 PASS: repriced 0.172/0.180 within +/-0.001 in {elapsed * 1e6:.0f} us"
    )


def test_c03_weak_budget_balance(corpus):
    checked = 0
    worst = math.inf
    for outcome, _, _ in corpus:
        if not outcome.converged:
            continue
        checked += 1
        worst = min(worst, outcome.payoffs.mc_revenue)
        assert outcome.payoffs.mc_revenue >= -1e-9
    print(
        f"C3 PASS: pi_MC >= -1e-9 on {checked} converged auctions"
        f" (min {worst:.3e})"
    )


def test_c04_individual_rationality(corpus):
    checked = 0
    for outcome, buyers, sellers in corpus:
        if not outcome.converged:
            continue
        checked += 1
        for payoff in outcome.payoffs.buyer_payoffs:
            assert payoff >= -1e-6
        for seller, payoff in zip(sellers, outcome.payoffs.seller_payoffs):
            assert payoff >= LogUtility(seller.x, seller.y).value(seller.g) - 1e-6
    print(f"C4 PASS: both-side individual rationality on {checked} converged auctions")


def test_c05_quasi_efficiency():
    sizes = ((5, 5), (10, 5), (25, 50), (50, 100))
    config = AuctionConfig(tol_rel=1e-12, max_iters=4000, record_trace=False)
    worst_gap = 0.0
    worst_match = 0.0
    runs = 0
    for ns, nb in sizes:
        for k in range(25):
            rng = random.Random(mix_seed(5150, ns, nb, k))
            buyers, sellers = _draw_market(rng, nb, ns, buyer_x=(0.9, 1.6))
            outcome = run_auction(buyers, sellers, P, config)
            assert outcome.converged
            runs += 1
            final = outcome.clearing
            optimum = solve_welfare(buyers, sellers, final.bids, final.avails, P)
            theta = social_welfare(buyers, sellers, outcome.clearing.d, outcome.clearing.s)
            gap = 100.0 * (optimum.theta - theta) / optimum.theta
            worst_gap = max(worst_gap, gap)
            assert gap < 0.5
            for d, d_star in zip(outcome.clearing.d, optimum.d_star):
                miss = abs(d - d_star) / max(1.0, abs(d_star))
                worst_match = max(worst_match, miss)
                assert miss <= 1e-4
    print(
        f"C5 PASS: {runs} runs, gap < 0.5% (worst {worst_gap:.2e}%),"
        f" buyer match <= 1e-4 (worst {worst_match:.2e})"
    )


def test_c06_oracle_equivalence():
    rng = random.Random(606)
    phi_checked = 0
    worst_phi = 0.0
    while phi_checked < 200:
        nb = rng.randint(1, 3)
        ns = rng.randint(1, 3)
        bids = tuple(rng.uniform(0.05, 1.5) for _ in range(nb))
        asks = tuple(rng.uniform(0.02, 0.25) for _ in range(ns))
        avails = tuple(rng.uniform(0.1, 5.0) for _ in range(ns))
        result = clear_market(bids, asks, avails, P)
        reference = best_clearing_objective(bids, asks, avails, P)
        if reference is None:
            continue
        mine = clearing_objective(bids, asks, result.d, result.s)
        miss = (reference - mine) / max(1.0, abs(reference))
        worst_phi = max(worst_phi, miss)
        assert miss <= 1e-4
        phi_checked += 1

    rng = random.Random(92)
    theta_checked = 0
    worst_theta = 0.0
    while theta_checked < 200:
        nb = rng.randint(1, 2)
        ns = rng.randint(1, 2)
        buyers, sellers = _draw_market(rng, nb, ns)
        bids = [rng.uniform(0.05, 1.2) for _ in range(nb)]
        avails = [rng.uniform(0.2, 1.0) * s.g for s in sellers]
        sol = solve_welfare(buyers, sellers, bids, avails, P)
        reference = best_welfare_by_grid(buyers, sellers, bids, avails, P)
        miss = abs(sol.theta - reference)
        worst_theta = max(worst_theta, miss)
        assert miss <= 2e-3
        theta_checked += 1
    print(
        f"C6 PASS: {phi_checked} clearing objectives within 1e-4 rel"
        f" (worst {worst_phi:.2e}), {theta_checked} welfare optima within"
        f" 2e-3 abs (worst {worst_theta:.2e})"
    )


def test_c07_low_demand_price_pinning():
    qualifying = 0
    for seed in range(1, 13):
        rng = random.Random(mix_seed(0x107, seed))
        buyers, sellers = _draw_market(rng, 5, 5)
        outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=3000))
        assert outcome.converged
        # the criterion's premise: supply strictly exceeds capped demand
        final = outcome.clearing
        if math.fsum(final.avails) <= math.fsum(b / P.p for b in final.bids):
            continue
        prices = [c for c in outcome.unit_prices if c is not None]
        assert prices
        for price in prices:
            assert price == pytest.approx(P.p, abs=1e-3)
        qualifying += 1
    assert qualifying >= 8
    print(
        f"C7 PASS: every served buyer pays p=0.25 within 1e-3 in"
        f" {qualifying} low-demand 5x5 markets"
    )


def test_c08_fairness_welfare_coupling():
    report = exp_welfare_fairness()
    saturated_cells = 0
    for record in report.records:
        assert record["converged"]
        assert record["theta_trade"] >= record["theta_no_trade"]
        assert record["theta_redistributed"] <= record["theta_trade"] + 1e-12
        if record["all_saturated"]:
            saturated_cells += 1
            assert abs(record["kappa_F"]) <= 1e-9
    assert 0 < saturated_cells < len(report.records)
    print(
        f"C8 PASS: kappa_F = 0 in all {saturated_cells} saturated cells,"
        f" trade >= no-trade and redistributed <= trade in all"
        f" {len(report.records)} cells"
    )


def test_c09_payoff_trend_reproduction():
    report = exp_payoff_sweep()
    assert report.aggregates["unconverged_runs"] == 0
    for trend in report.aggregates["trend"]:
        assert trend["rho_seller"] > 0.8
        assert trend["rho_buyer"] < -0.8
    rhos = ", ".join(
        f"N_s={t['n_sellers']}: seller {t['rho_seller']:+.3f} buyer {t['rho_buyer']:+.3f}"
        for t in report.aggregates["trend"]
    )
    print(f"C9 PASS: payoff trends over 100-replication sweep ({rhos})")


def test_c10_conservation_and_determinism(corpus):
    worst = 0.0
    for outcome, _, _ in corpus:
        total_d = math.fsum(outcome.clearing.d)
        total_s = math.fsum(outcome.clearing.s)
        miss = abs(total_d - total_s) / max(1.0, total_d)
        worst = max(worst, miss)
        assert miss <= 1e-8
    first = exp_case_study()
    second = exp_case_study()
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()
    print(
        f"C10 PASS: |sum d - sum s| <= 1e-8*max(1, sum d) on {len(corpus)}"
        f" clearings (worst {worst:.2e}); repeated study reports byte-identical"
    )
