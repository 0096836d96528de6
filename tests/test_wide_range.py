"""A seeded stress corpus far wider than the acceptance fixture.

The fixture draws buyer x from [0.5, 1.2] and y and g from narrow ranges,
so its gates never see extreme scales. tests/oracles.py::wide_range_market
draws up to 60 agents a side with parameters spread over two to three
decades. Its 600 markets are gated like the fixture: convergence, the
outcome checks, the no-trade verdict and zero-bid set of the equilibrium
reference, the clearing price, allocations and asks, and the certified
welfare gap.
"""

import pytest

from microgrid_auction.engine import AuctionConfig, run_auction
from microgrid_auction.experiments import verify_outcome
from microgrid_auction.market import MarketParams

from oracles import (
    dual_bound,
    equilibrium_gaps,
    equilibrium_reference,
    welfare_value,
    wide_range_market,
)

P = MarketParams()
WIDE_MARKETS = 600


@pytest.fixture(scope="module")
def wide_corpus():
    """(k, buyers, sellers, outcome, reference) for every market."""
    config = AuctionConfig(max_iters=2500, record_trace=False)
    runs = []
    for k in range(WIDE_MARKETS):
        buyers, sellers = wide_range_market(k)
        outcome = run_auction(buyers, sellers, P, config)
        runs.append((k, buyers, sellers, outcome, equilibrium_reference(buyers, sellers, P.p)))
    return runs


def test_wide_range_markets_converge_and_pass_the_outcome_checks(wide_corpus):
    """k=87 (37 buyers, 41 sellers) hit max_iters=2500 with a wrong zero bid
    until a buyer priced out at a settled price parked at once."""
    for k, buyers, sellers, outcome, _ in wide_corpus:
        assert outcome.converged, f"k={k}"
        verify_outcome(outcome, buyers, sellers)


def test_wide_range_markets_stop_at_the_equilibrium_reference(wide_corpus):
    """The same no-trade verdict and zero-bid set as the reference on every
    market (590 of the 600 trade), and mu within 7e-7 relative: the worst
    gap when this gate was added was 6.91e-7 (k=254), the same with and
    without the parking rule. Allocations within 9.2e-6 of the reference,
    |q - q_ref| / max(1, q_ref), and asks within 9e-7 relative: the worst
    when these gates were added were 9.13e-6 (k=47), where the step-size
    stop quits on a crawling bid, and 8.89e-7 (k=24)."""
    traded = 0
    for k, _, _, outcome, reference in wide_corpus:
        assert outcome.clearing.no_trade == (reference is None), f"k={k}"
        if reference is None:
            continue
        traded += 1
        zero_bid_mismatch, mu_gap, alloc_gap, ask_gap = equilibrium_gaps(outcome, reference)
        assert not zero_bid_mismatch, f"k={k}: buyers {sorted(zero_bid_mismatch)}"
        assert mu_gap <= 7e-7, f"k={k}: mu {mu_gap:.3e} off"
        assert alloc_gap <= 9.2e-6, f"k={k}: allocation {alloc_gap:.3e} off"
        assert ask_gap <= 9e-7, f"k={k}: ask {ask_gap:.3e} off"
    assert traded == 590


def test_wide_range_welfare_is_certified_by_the_dual_bound(wide_corpus):
    """(L(mu) - theta)/theta at each trading outcome's own price is at most
    1e-12, about ten times the worst measured when the gate was added
    (8.45e-14, k=51), and never below -3e-15."""
    for k, buyers, sellers, outcome, _ in wide_corpus:
        clearing = outcome.clearing
        if clearing.mu is None:
            continue
        theta = welfare_value(buyers, sellers, clearing.d, clearing.s)
        bound = dual_bound(buyers, sellers, clearing.bids, clearing.avails, P.p, clearing.mu)
        assert -3e-15 <= (bound - theta) / theta <= 1e-12, f"k={k}"
