"""Iterative double-auction engine.

The controller repeatedly clears the market from the current bids and asks,
reports allocations back, and lets each agent re-quote its truthful target:
buyers bid their marginal spend u'(d)*d, sellers ask the marginal value
v'(g - s) of the last unit they would give up, capped at p. No quote is
damped. The controller never sees a utility function, only the quoted
scalars.

The inner clearing regularizes seller allocations toward the previous
iterate (see clear_market_proximal). Exact all-or-nothing clearing is
discontinuous where asks tie, and at low demand the equilibrium sits exactly
on such a tie, so re-quoting alone oscillates there; the regularized step is
continuous, has the same fixed points, and converges geometrically. Its
weights are adapted per seller from the observed ask/allocation slopes, which
uses only quoted information.

That clearing, a proximal step in the sense of Parikh and Boyd (Proximal
Algorithms, 2014), is the only regularizer. Blending each ask with its
previous value at a step alpha would cap the rate: for an interior seller
at a fixed price, the linearized (ask, allocation) step then has determinant exactly
1 - alpha whatever the proximal weight w, so the error ratio per round is at
least sqrt(1 - alpha) (0.707 at alpha = 0.5). Undamped, its eigenvalues are
0 and 1 - kappa/w, where kappa is the slope of the seller's marginal value.
Each seller's w is set to its running estimate of kappa, which puts the
second eigenvalue near 0: the proximal Newton step (Lee, Sun and Saunders,
SIAM J. Optim. 24(3), 2014). It diverges only if the estimate falls below
kappa/2, where |1 - kappa/w| reaches 1, so w follows the estimate at any
scale, with no clamp: a fixed window in price per energy would hold w
below kappa/2 for a seller curved past it. Only an estimate of 0.0 or
inf, which the clearing would refuse, leaves the weight as it was. An
undamped buyer's own map contracts at mu/(x*y) < 1.

That rate is near 1 where a buyer's choke price x*y sits just above the
clearing price, and the bid decays geometrically for many rounds. So on
every fourth step each active buyer extrapolates its own last three bids
b0, b1, b2 with Aitken's delta-squared step, the one-step case of Anderson
acceleration: with r = (b2 - b1)/(b1 - b0) in (0, 0.999), the bid jumps to
b2 + (b2 - b1)*r/(1 - r), the limit of a geometric sequence with ratio r.
The jump may at most halve the bid, so a jump never parks a buyer (parking
is permanent, and a jump toward zero from a transient bid would park buyers
that belong in the market); a bid set too low climbs back on the next
re-quote. Where every seller is sold out, the price has long stopped moving
while one buyer's bid still creeps at a rate near 1. So once a buyer's unit
price u = b/d agrees with the one at the previous clearing to 1e-8
relative, the buyer bids its best response at u outright: the fixed point
(x*y - u)/y of its re-quote b -> x*y*b/(y*b + u) at that price, the limit
its creeping bid heads for, or 0.0, a park, when x*y is at or below u.
On a price that still moves, the same jump by every buyer at once
overshoots, and parks buyers that belong in the market. Each buyer's step
reads nothing but its own constants, bids and allocations. Sellers need no
such step: a seller whose target holds still asks it in the next round.

A seller re-quotes only when a clearing moved its allocation. One whose
allocation equals the previous one, bit for bit, has the target it last
quoted and takes no slope sample, so it carries its ask, target, weight and
curvature estimate into the next round unchanged; on a (300, 150) market
most seller-rounds do. The opening quotes are such a re-quote at s = 0, so
the first round is no exception. A round in which no seller moved at all,
as after a sold-out clearing of sellers already sold out, makes no seller
pass: the next state holds the same four seller tuples. The Aitken step
runs once per extrapolating round, over every buyer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from math import inf
from operator import ne

from .clearing import BID_FLOOR, ClearingResult, clear_market_proximal, clearing_objective
from .market import (
    BuyerState,
    MarketParams,
    Payoffs,
    SellerState,
    compute_payoffs,
    social_welfare,
)
from .utility import check_count, check_positive, marginals, supplies

# Proximal weights start at _PROX_WEIGHT and then equal the seller's
# curvature estimate, the proximal Newton weight (see the module docstring),
# whatever its scale; an estimate of 0.0 or inf, which the clearing would
# refuse, keeps the previous weight.
_PROX_WEIGHT = 0.5
# Allocations at or below this count as not served in unit_prices.
_REPORT_THRESHOLD = 1e-6

# Bid extrapolation; see the module docstring and _extrapolate.
_EXTRAPOLATION_PERIOD = 4
_EXTRAPOLATION_MAX_RATIO = 0.999
_EXTRAPOLATION_MIN_SHARE = 0.5
# A buyer whose unit price b/d agrees to within this relative tolerance at
# its last two clearings bids its best response at that price.
_SETTLED_PRICE_TOL = 1e-8
# The outcome is read as an exact clearing of its own quotes, so a stopping
# round's clearing must meet their KKT system within min(tol_rel, _KKT_TOL):
# a tighter tol_rel tightens the bound, and a looser one, which stops the
# quotes sooner, does not loosen it past the 1e-6 of a default run.
_KKT_TOL = 1e-6


@dataclass(frozen=True)
class AuctionConfig:
    """Engine knobs.

    Every agent re-quotes its undamped target each round, so there is no
    step size to set. Convergence needs three things: bids and asks
    stationary within tol_rel, seller allocations stationary within tol_rel,
    and a clearing whose optimality residual is within min(tol_rel, 1e-6)
    (see _KKT_TOL). A run that has not converged after max_iters clearings
    stops there, flagged unconverged. record_trace keeps one IterationRecord
    per clearing, which costs one social_welfare sum per round; a record's
    phi is computed when read.
    """

    tol_rel: float = 1e-6
    max_iters: int = 2000
    record_trace: bool = True

    def __post_init__(self) -> None:
        check_count("max_iters", self.max_iters)
        check_positive("tol_rel", self.tol_rel)


@dataclass(frozen=True)
class IterationRecord:
    """One loop pass: its clearing, which holds the quotes it cleared and
    what they produced, and the social welfare theta of that clearing's
    allocation."""

    iteration: int
    clearing: ClearingResult
    theta: float

    @cached_property
    def phi(self) -> float:
        """The controller objective of the clearing's allocation.

        Computed by clearing_objective at the first read, and kept: a run
        computes only theta per round, and no study reads phi.
        """
        c = self.clearing
        return clearing_objective(c.bids, c.asks, c.d, c.s)


@dataclass
class AuctionState:
    """Mutable loop state; auction_step consumes one and returns the next.

    bids/asks are the quotes to clear next. prev_s anchors the proximal
    clearing and carries the previous allocations; last_targets and curv_ema
    drive the per-seller weight adaptation. clearing holds the result of the
    most recent step, i.e. the clearing of the PREVIOUS state's quotes (None
    before the first step); extrapolation reads its bids and d. A bid of
    exactly 0.0 marks a parked buyer, out of the market for good: every
    other bid is the opening bid p or at least BID_FLOOR. buyer_constants
    holds (x*y, y) per buyer and seller_constants (x*y, y, g) per seller:
    built once from the agents' private parameters and carried unchanged,
    so a re-quote is plain arithmetic with no call per agent.

    Invariant: asks, last_targets, prox_weights and curv_ema are what a
    re-quote at prev_s gives, from the opening state (prev_s all 0.0) on. A
    step relies on it to carry the quote of every seller whose allocation
    equals prev_s instead of re-quoting it, and, when every allocation does,
    to return these four tuples themselves. avails is carried unchanged
    too. The clearing keeps the avails, asks and weights tuples it checked
    last, so it checks avails once per auction, and asks and weights only
    after a step that moved a seller.
    """

    buyers: tuple[BuyerState, ...]
    sellers: tuple[SellerState, ...]
    buyer_constants: tuple[tuple[float, float], ...]
    seller_constants: tuple[tuple[float, float, float], ...]
    params: MarketParams
    bids: tuple[float, ...]
    asks: tuple[float, ...]
    avails: tuple[float, ...]
    prev_s: tuple[float, ...]
    prox_weights: tuple[float, ...]
    curv_ema: tuple[float, ...]
    last_targets: tuple[float, ...]
    iteration: int = 0
    clearing: ClearingResult | None = None


@dataclass(frozen=True)
class AuctionOutcome:
    """Final clearing plus settlement data.

    clearing.bids/asks/avails/params are the inputs of the final clearing
    (at convergence the next quotes coincide within tol_rel). unit_prices
    holds b_i/d_i per served buyer, None for buyers below the reporting
    threshold. The trace, when recorded, ends with a record of this same
    clearing.
    """

    clearing: ClearingResult
    unit_prices: tuple[float | None, ...]
    payoffs: Payoffs
    iterations: int
    converged: bool
    trace: tuple[IterationRecord, ...] = field(repr=False)


def _initial_state(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    params: MarketParams,
) -> AuctionState:
    """The opening quotes, before the first clearing.

    Every buyer opens bidding the floor price for one energy unit. A buyer
    whose marginal value never reaches the floor price can only ratchet its
    bid down to zero (the update is strictly decreasing while the bid is
    positive), so it starts parked at its exact limit, bid 0.0. Sellers
    declare availability once (it never changes mid-auction) and open asking
    the marginal value of their full stock, their cheapest truthful ask,
    clamped to the ceiling p that sellers may never exceed. The targets are
    kept unclamped, as a re-quote at s = 0 keeps them: a target above p
    means x/p - 1/y > g, so that seller offers nothing and never re-quotes.
    """
    p = params.p
    buyer_constants = tuple([(buyer.x * buyer.y, buyer.y) for buyer in buyers])
    seller_constants = tuple([(seller.x * seller.y, seller.y, seller.g) for seller in sellers])
    stocks = [seller.g for seller in sellers]
    targets = tuple(marginals(sellers, stocks))
    n_s = len(sellers)
    return AuctionState(
        buyers=tuple(buyers),
        sellers=tuple(sellers),
        buyer_constants=buyer_constants,
        seller_constants=seller_constants,
        params=params,
        bids=tuple([p if xy > p else 0.0 for xy, _ in buyer_constants]),
        # min(target, p) inline, by CPython's rule (see clear_market_proximal)
        asks=tuple([p if p < t else t for t in targets]),
        avails=tuple(supplies([(s.x, 1.0 / s.y, g, g) for s, g in zip(sellers, stocks)], p)),
        prev_s=(0.0,) * n_s,
        prox_weights=(_PROX_WEIGHT,) * n_s,
        curv_ema=(_PROX_WEIGHT / 2.0,) * n_s,
        last_targets=targets,
    )


def _extrapolate(
    b0s: tuple[float, ...],
    b1s: tuple[float, ...],
    b2s: list[float],
    d0s: tuple[float, ...],
    d1s: tuple[float, ...],
    constants: tuple[tuple[float, float], ...],
) -> list[float]:
    """Each buyer's bid on an extrapolating round: its best response at a
    settled unit price, else Aitken's delta-squared step on its bids b0, b1,
    b2, safeguarded, and parked (0.0) when below BID_FLOOR.

    Takes the round's lists, one entry per buyer, and returns the new bids.
    b0, b1, b2 are a buyer's last two bids and its new bid from the plain
    pass of auction_step (re-quoted and floored), d0 and d1 the allocations
    that b0 and b1 cleared to, and constants the buyers' (x*y, y).

    A buyer whose unit prices b0/d0 and b1/d1 both exist and agree within
    _SETTLED_PRICE_TOL relative of u = b1/d1 bids its best response at u,
    (x*y - u)/y, or 0.0, the park, when its choke price x*y is at or below
    u. Every other buyer bids b2 itself unless the step ratio
    r = (b2 - b1)/(b1 - b0) lies in (0, _EXTRAPOLATION_MAX_RATIO); then it
    bids the limit of the geometric sequence with ratio r, but at least
    _EXTRAPOLATION_MIN_SHARE of b2. A parked buyer (b1 = b2 = 0.0,
    d1 = 0.0) has no unit price and no ratio in the window, and keeps 0.0.
    A b2 that the plain pass parked, though b1 was not, stays parked: any
    step from it lands below the floor.
    """
    max_ratio, share, tol = _EXTRAPOLATION_MAX_RATIO, _EXTRAPOLATION_MIN_SHARE, _SETTLED_PRICE_TOL
    bids = []
    for (xy, y), b0, b1, b2, d0, d1 in zip(constants, b0s, b1s, b2s, d0s, d1s):
        if d1 > 0.0 and d0 > 0.0 and not abs((u := b1 / d1) - b0 / d0) > tol * u:
            b2 = (xy - u) / y if xy > u else 0.0
        elif b1 != b0:
            r = (b2 - b1) / (b1 - b0)
            if 0.0 < r < max_ratio:
                # max(jump, floor) inline, by CPython's rule
                jump = b2 + (b2 - b1) * r / (1 - r)
                floor = b2 * share
                b2 = floor if floor > jump else jump
        bids.append(0.0 if b2 < BID_FLOOR else b2)
    return bids


def _requote_sellers(
    state: AuctionState, s_new: tuple[float, ...]
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """The asks, targets, weights and curvature estimates after a clearing
    that allocated s_new: only the sellers whose allocation differs from
    prev_s re-quote."""
    prev_s, last = state.prev_s, state.last_targets
    constants, avails = state.seller_constants, state.avails
    asks = list(state.asks)
    targets = list(last)
    weights = list(state.prox_weights)
    ema = list(state.curv_ema)
    p = state.params.p
    # A seller with a_j = 0 never moves: it opens at prev_s = 0.0, and
    # every clearing gives it exactly 0.0.
    for j in compress(count(), map(ne, s_new, prev_s)):
        xy, y, g = constants[j]
        s = s_new[j]
        # utility.marginals written out (see auction_step), min and max
        # inline by CPython's rule (see clear_market_proximal)
        q = g - s
        target = xy / (y * (0.0 if 0.0 > q else q) + 1.0)
        targets[j] = target
        asks[j] = p if p < target else target
        a = avails[j]
        ds = s - prev_s[j]
        if abs(ds) > 1e-12 * (a if a > 1.0 else 1.0):
            slope = abs(target - last[j]) / abs(ds)
            e = 0.5 * ema[j] + 0.5 * slope
            ema[j] = e
            if 0.0 < e < inf:
                weights[j] = e
    return tuple(asks), tuple(targets), tuple(weights), tuple(ema)


def auction_step(state: AuctionState, config: AuctionConfig) -> AuctionState:
    """Clear the current quotes, then let the agents re-quote their targets.

    A buyer bids u'(d)*d and a seller asks min(v'(g - s), p). On every
    _EXTRAPOLATION_PERIOD-th step after the first, _extrapolate then takes
    those bids and lets each active buyer bid its best response at a settled
    unit price, or extrapolate, from its two previous bids and the two
    allocations those cleared to. Only the sellers whose allocation
    moved re-quote; the others carry their ask, target, weight and curvature
    estimate, which the previous step or the opening computed from that same
    allocation. A step in which no seller moved returns the state's own
    four seller tuples. No setting of config reaches the step; it keeps the
    signature that run_auction and the benchmark's tracer call.
    """
    result = clear_market_proximal(
        state.bids, state.asks, state.avails, state.params,
        prev_s=state.prev_s, weights=state.prox_weights,
    )

    # Each target is utility.marginals' (x*y)/(y*d + 1.0) times d, written
    # out once here and once in _requote_sellers: fused with the floor test
    # it costs less per round than a list call and a second pass. Never
    # x*y*d/(y*d + 1.0), which rounds differently. A parked buyer's 0.0
    # stays 0.0, and a bid below BID_FLOOR parks its buyer. An extrapolating
    # step passes these bids to _extrapolate, which floors its own.
    bids = [
        0.0 if b == 0.0 or (t := xy / (y * d + 1.0) * d) < BID_FLOOR else t
        for (xy, y), b, d in zip(state.buyer_constants, state.bids, result.d)
    ]
    previous = state.clearing
    if previous is not None and (state.iteration + 1) % _EXTRAPOLATION_PERIOD == 0:
        bids = _extrapolate(
            previous.bids, state.bids, bids, previous.d, result.d, state.buyer_constants
        )

    # A seller whose allocation equals prev_s has the target the previous
    # step, or the opening, computed from it, so the same ask, and takes no
    # slope sample (ds = 0), so the same weight and estimate. When no seller
    # moved, the step carries the four tuples themselves.
    s_new = result.s
    if s_new == state.prev_s:
        asks, targets, weights, ema = (
            state.asks, state.last_targets, state.prox_weights, state.curv_ema
        )
    else:
        asks, targets, weights, ema = _requote_sellers(state, s_new)

    return AuctionState(
        buyers=state.buyers,
        sellers=state.sellers,
        buyer_constants=state.buyer_constants,
        seller_constants=state.seller_constants,
        params=state.params,
        bids=tuple(bids),
        asks=asks,
        avails=state.avails,
        prev_s=s_new,
        prox_weights=weights,
        curv_ema=ema,
        last_targets=targets,
        iteration=state.iteration + 1,
        clearing=result,
    )


def _stationary(before: AuctionState, after: AuctionState, config: AuctionConfig) -> bool:
    """Whether the step from before to after meets all three stopping tests.

    Every quote must have moved by at most tol_rel relative to its old value
    (floored at 1e-12), every allocation by at most tol_rel * max(1, a_j),
    and the clearing's residual must be within min(tol_rel, _KKT_TOL). Each
    test stops at the first agent that fails it, and a test whose lists
    compare equal, as the asks and allocations of a step that moved no
    seller do, passes without a pass over the agents: an unmoved value
    meets any tolerance. The residual test runs last, so the clearing
    computes its residual only for a round that could stop.
    """
    result = after.clearing
    assert result is not None
    tol = config.tol_rel
    # abs(v) is written `v if v > 0.0 else -v`, and max inline by CPython's
    # rule (see clear_market_proximal). The abs forms differ only in the
    # sign of a zero, which no comparison below can see: a zero scale gives
    # way to 1e-12 either way.
    for old, new in ((before.bids, after.bids), (before.asks, after.asks)):
        if new == old:
            continue
        for a, b in zip(old, new):
            # A division on purpose: tol * max(abs(a), 1e-12) rounds
            # differently.
            scale = a if a > 0.0 else -a
            diff = b - a
            if (diff if diff > 0.0 else -diff) / (1e-12 if 1e-12 > scale else scale) > tol:
                return False
    if result.s != before.prev_s:
        for s, prev, a in zip(result.s, before.prev_s, after.avails):
            diff = s - prev
            if (diff if diff > 0.0 else -diff) > tol * (a if a > 1.0 else 1.0):
                return False
    return result.kkt_residual <= min(tol, _KKT_TOL)


def _settle(state: AuctionState, converged: bool, trace: list[IterationRecord]) -> AuctionOutcome:
    """The outcome of a run that stopped at state, settled at its clearing."""
    result = state.clearing
    assert result is not None
    payoffs = compute_payoffs(
        state.buyers, state.sellers, result.bids, result.d, result.asks, result.s
    )
    prices = [b / d if d > _REPORT_THRESHOLD else None for b, d in zip(result.bids, result.d)]
    return AuctionOutcome(
        clearing=result,
        unit_prices=tuple(prices),
        payoffs=payoffs,
        iterations=state.iteration,
        converged=converged,
        trace=tuple(trace),
    )


def run_auction(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    params: MarketParams,
    config: AuctionConfig = AuctionConfig(),
) -> AuctionOutcome:
    """Iterate clear/re-quote until the quotes go stationary.

    Returns the outcome built from the last clearing and the exact quotes it
    cleared. A run that hits max_iters still returns an outcome, flagged
    converged=False. The trace (when recorded) has one entry per clearing.
    """
    state = _initial_state(buyers, sellers, params)
    trace: list[IterationRecord] = []
    while True:
        nxt = auction_step(state, config)
        result = nxt.clearing
        assert result is not None
        if config.record_trace:
            trace.append(
                IterationRecord(
                    iteration=nxt.iteration,
                    clearing=result,
                    theta=social_welfare(state.buyers, state.sellers, result.d, result.s),
                )
            )
        if _stationary(state, nxt, config):
            return _settle(nxt, True, trace)
        if nxt.iteration >= config.max_iters:
            return _settle(nxt, False, trace)
        state = nxt

