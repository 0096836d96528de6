"""Market clearing from communicated scalars only.

The controller maximizes sum(b_i * log d_i) - sum(c_j * s_j) subject to the
per-buyer budget p*d_i <= b_i, per-seller availability 0 <= s_j <= a_j, and
energy balance sum(d) = sum(s). Buyer demand at clearing price mu is
b_i / max(mu, p); supply is a merit-order step correspondence of the asks, so
the dual problem reduces to finding where demand meets a step function, which
this module resolves in closed form.

Two solvers live here:

* :func:`clear_market` — the exact optimum. Marginal sellers (asks tied at mu)
  share the residual in proportion to their availability.
* :func:`clear_market_proximal` — the exact optimum of the same objective with
  a small proximal penalty pulling seller allocations toward their previous
  values. Its stationary points coincide with exact clearing; the auction
  engine iterates it because the all-or-nothing merit order is discontinuous
  in near-tied asks and re-quoting alone cannot stabilize that. After the
  shared input step, which is O(N_b + N_s) but skips the availabilities,
  asks and weights that are the tuples its previous call checked, and a
  prev_s that is an allocation this module returned, a round clears in
  one of two regimes:

  - sold out: demand at the top breakpoint exceeds all that is offered,
    so every seller sells its whole availability, as in clear_market's
    sold-out case; both settle through one exit. The test reads each
    seller's upper kink, O(N_s) without a sort, or, when prev_s equals
    the availabilities, only the asks, with no Python-level pass; such a
    round settles on a returned prev_s itself, which is that allocation.
  - otherwise the price search guesses the bracketing segment with
    :func:`sweep_guess`, then confirms the guess with :func:`first_passing`
    and the exact O(N_s) supply sum at the segment's two ends (bisecting
    the rest of the grid if the guess was off): O(N_s log N_s), two exact
    sums in the usual case. The welfare planner finds its price with the
    same two functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, filterfalse
from operator import is_, itemgetter
from typing import Callable

from .market import MarketParams
from .utility import check_nonnegative, check_positive

#: Bids at or below this are excluded from clearing and receive d = 0.
BID_FLOOR = 1e-9

#: Relative tolerance under which two asks count as one price level.
TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class ClearingResult:
    """Allocations and price from one clearing, and the quotes it cleared.

    mu is None when either market side is empty (no trade); allocations are
    then all zero. bids, asks, avails and params are the inputs that were
    cleared, as floats: the one record of a round's quotes, which an auction
    outcome and its trace read from here. What they fix is computed on read.
    A trading clearing's s is an _Allocation, a tuple of finite floats
    that clear_market_proximal takes back as prev_s unchecked.
    """

    d: tuple[float, ...]
    s: tuple[float, ...]
    mu: float | None
    bids: tuple[float, ...]
    asks: tuple[float, ...]
    avails: tuple[float, ...]
    params: MarketParams

    @property
    def no_trade(self) -> bool:
        return self.mu is None

    @cached_property
    def buyer_budget_active(self) -> tuple[bool, ...]:
        """Per buyer, whether its budget p*d_i <= b_i binds: a bid above
        BID_FLOOR at a price mu <= p."""
        capped = self.mu is not None and self.mu <= self.params.p
        return tuple([capped and b > BID_FLOOR for b in self.bids])

    @cached_property
    def kkt_residual(self) -> float:
        """The dimensionless maximum violation of the optimality system.

        Computed by :func:`kkt_residual` at the first read, and kept: the
        auction engine reads it only for a round whose quotes and allocations
        have already settled.
        """
        return kkt_residual(self)


_Quotes = tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], float, float]

# What the last call of clear_market_proximal checked: (avails, their fsum
# total, asks, weights), each a tuple of floats that passed its check, or
# None. One entry, compared by identity, read once and written once per
# call, so a concurrent call can at worst check its inputs again.
_checked: tuple = (None, 0.0, None, None)


def _floats(values: tuple[float, ...] | list[float]) -> tuple[float, ...]:
    """values converted by one map(float) pass: values itself when it is a
    tuple of floats, which that pass returns element for element, so that
    only a tuple of floats is ever kept in _checked."""
    floats = tuple(map(float, values))
    if type(values) is tuple and all(map(is_, floats, values)):
        return values
    return floats


def _quotes(
    bids: tuple[float, ...] | list[float],
    asks: tuple[float, ...] | list[float],
    avails: tuple[float, ...] | list[float],
    params: MarketParams,
    known: tuple = (None, 0.0, None),
) -> _Quotes | ClearingResult:
    """The input step both solvers share: the quotes as checked float tuples
    with the active bid and availability totals, or the no-trade result.

    known is (avails, total, asks) from _checked, or nothing. Availabilities
    that are that very tuple skip their conversion, check and total, and
    asks that are its asks skip theirs when the availabilities do too: a
    tuple of floats cannot change, so each check would pass again and the
    total come out the same. The bids are checked in the pass that filters
    the active ones; a faulty bid sends them to check_nonnegative, which
    names the first. The checks run in a fixed order, bids, availabilities,
    asks, then the two totals, so the first fault is the one reported.

    Every active bid exceeds BID_FLOOR > 0 and every active availability is
    positive, so a zero total is the same as an empty side. fsum raises
    OverflowError when finite terms sum past the largest float, and returns
    inf when a term is inf.
    """
    known_avails, known_total, known_asks = known
    avails_known = avails is known_avails
    asks_known = avails_known and asks is known_asks
    bids = tuple(map(float, bids))
    if not asks_known:
        asks = _floats(asks)
    if not avails_known:
        avails = _floats(avails)
    if len(asks) != len(avails):
        raise ValueError(f"{len(asks)} asks vs {len(avails)} availabilities")
    # A bid that is negative or NaN is below the floor and fails b >= 0.0;
    # an infinite one is active and makes the total inf.
    active = []
    valid = True
    for b in bids:
        if b > BID_FLOOR:
            active.append(b)
        elif not b >= 0.0:
            valid = False
    try:
        total_bid = math.fsum(active)
    except OverflowError:
        total_bid = math.inf  # raised below, unless a bid is at fault
    if not valid or total_bid == math.inf:
        check_nonnegative("bids", *bids)
    if not avails_known:
        check_nonnegative("availabilities", *avails)
    if not asks_known:
        check_positive("asks of offering sellers", *compress(asks, avails))
    if total_bid == math.inf:
        raise ValueError("the bids sum past the largest float")
    if avails_known:
        total_avail = known_total
    else:
        try:
            total_avail = math.fsum(avails)
        except OverflowError:
            raise ValueError("the availabilities sum past the largest float") from None
    if total_bid <= 0 or total_avail <= 0:
        return ClearingResult(
            (0.0,) * len(bids), (0.0,) * len(asks), None, bids, asks, avails, params
        )
    return bids, asks, avails, total_bid, total_avail


def first_passing(n: int, guess: int, passes: Callable[[int], bool]) -> int:
    """Smallest i in [0, n) with passes(i), or n when none does.

    passes must be monotone (False up to some index, True from there on).
    The guess and the index below it are tested first, so a right guess
    costs two calls; a wrong one is narrowed by bisecting what remains,
    never more than about log2(n) + 2 calls. Every answer i has passes(i)
    and passes(i - 1) evaluated whenever those indices exist.
    """
    lo, hi = 0, n
    for i in (guess, guess - 1):
        if lo <= i < hi:
            if passes(i):
                hi = i
            else:
                lo = i + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def sweep_guess(
    events: list[tuple[float, float, float]], slope: float, total: float, p: float
) -> tuple[list[float], int]:
    """Sorted distinct breakpoints, and the index of the first in surplus.

    Each event (m, d_slope, d_intercept) adds to a running line
    slope*m + intercept, from the given slope and intercept 0; m is in
    surplus when the line reaches total / max(m, p). events is sorted in
    place and gets a sentinel at infinity, so each breakpoint is tested once
    all its events are in. Rounding in the running sums can misplace the
    guess, so it only orders a caller's exact tests (see first_passing).
    m if m >= p else p is max(m, p) inline; by CPython's rule for max (see
    clear_market_proximal) that is p if p > m else m, and the two differ
    only at NaN.
    """
    events.sort(key=itemgetter(0))
    grid = [events[0][0]]
    for m, _, _ in events:
        if m != grid[-1]:
            grid.append(m)
    events.append((math.inf, 0.0, 0.0))
    guess = 0
    m_guess = grid[0]
    intercept = 0.0
    for m, d_slope, d_intercept in events:
        if m > m_guess:
            if slope * m_guess + intercept >= total / (m_guess if m_guess >= p else p):
                break
            guess += 1
            m_guess = m
        slope += d_slope
        intercept += d_intercept
    return grid, guess


class _Allocation(tuple):
    """The seller allocations of a clearing that traded, built only here
    and only of finite floats that are never -0.0: 0.0, abs(a_j) of a
    checked availability, a positive share of one, or a proximal response
    clipped to [0, a_j] with max(0.0, v) first, which maps -0.0 and NaN to
    0.0."""

    __slots__ = ()


def _settle(
    bids: tuple[float, ...],
    asks: tuple[float, ...],
    avails: tuple[float, ...],
    params: MarketParams,
    mu: float,
    s: _Allocation,
) -> ClearingResult:
    # Budget-capped demand at mu. No budget binds above p.
    denom = max(mu, params.p)
    d = tuple([b / denom if b > BID_FLOOR else 0.0 for b in bids])
    return ClearingResult(d, s, mu, bids, asks, avails, params)


def _sold_out(
    quotes: _Quotes, params: MarketParams, top: float, capped: _Allocation | None = None
) -> ClearingResult:
    # Demand at the top breakpoint, p or the highest ask or upper kink,
    # exceeds all that is offered: every seller sells its availability, at
    # the price where demand meets their total, or at top if higher. abs is
    # `a if a > 0 else 0.0` on checked availabilities: it maps -0.0 to 0.0.
    # capped, when given, is an allocation equal to the availabilities, so
    # abs(a_j) bit for bit: it holds no -0.0.
    bids, asks, avails, total_bid, total_avail = quotes
    mu = max(total_bid / total_avail, top)
    if capped is None:
        capped = _Allocation(map(abs, avails))
    return _settle(bids, asks, avails, params, mu, capped)


def clear_market(
    bids: tuple[float, ...] | list[float],
    asks: tuple[float, ...] | list[float],
    avails: tuple[float, ...] | list[float],
    params: MarketParams,
) -> ClearingResult:
    """Exact clearing: merit-order dispatch against budget-capped demand.

    Demand below the floor price is constant at sum(b)/p, so the clearing
    price is either the lowest ask level whose cumulative availability covers
    demand (that level's sellers are marginal and share the residual in
    proportion to availability), the interior solution sum(b)/Q on a
    constant-supply stretch, or sum(b)/sum(a) when demand exceeds everything
    offered. Empty sides yield a well-typed no-trade result, never an
    exception; bids or availabilities whose total overflows a float raise
    ValueError.
    """
    quotes = _quotes(bids, asks, avails, params)
    if isinstance(quotes, ClearingResult):
        return quotes
    bids, asks, avails, total_bid, total_avail = quotes
    p = params.p
    active_sellers = [j for j, a in enumerate(avails) if a > 0]

    # Group active sellers into price levels (ties within TIE_REL_TOL).
    order = sorted(active_sellers, key=lambda j: (asks[j], j))
    levels: list[tuple[float, list[int], float]] = []
    # min and max inline, by CPython's rule (see clear_market_proximal)
    for j in order:
        c = asks[j]
        if levels and c - (top := levels[-1][0]) <= TIE_REL_TOL * (top if top > c else c):
            value, members, group_avail = levels.pop()
            members.append(j)
            levels.append((c if c > value else value, members, group_avail + avails[j]))
        else:
            levels.append((c, [j], avails[j]))

    mu: float
    full: list[int] = []
    marginal: list[int] = []
    residual = 0.0
    cum = 0.0
    for value, members, group_avail in levels:
        demand_here = total_bid / (p if p > value else value)
        if demand_here < cum:
            # Demand fell below cumulative supply strictly between levels:
            # supply is constant there, so mu solves total_bid/mu = cum.
            mu = total_bid / cum
            break
        if demand_here <= cum + group_avail:
            mu = value
            marginal = members
            residual = demand_here - cum
            residual = 0.0 if 0.0 > residual else residual
            residual = group_avail if group_avail < residual else residual
            break
        full.extend(members)
        cum += group_avail
    else:
        # Demand exceeds all offered energy at every ask level. The running
        # sum cum can round below fsum(avails), so total_bid / total_avail
        # may land just under the last level or p; it is then clamped there.
        return _sold_out(quotes, params, max(levels[-1][0], p))

    s = [0.0] * len(asks)
    for j in full:
        s[j] = avails[j]
    if marginal and residual > 0:
        group_avail = math.fsum(avails[j] for j in marginal)
        for j in marginal:
            s[j] = residual * (avails[j] / group_avail)
    return _settle(bids, asks, avails, params, mu, _Allocation(s))


def clear_market_proximal(
    bids: tuple[float, ...] | list[float],
    asks: tuple[float, ...] | list[float],
    avails: tuple[float, ...] | list[float],
    params: MarketParams,
    prev_s: tuple[float, ...] | list[float],
    weights: tuple[float, ...] | list[float],
) -> ClearingResult:
    """Clearing with seller allocations regularized toward prev_s.

    Every call converts its inputs with one map(float) pass each and checks
    them before any work, one helper call per list: weights one per seller
    and positive, prev_s one per seller and finite (a finite prev_s_j
    outside [0, a_j] is clipped, not refused), then the quotes as in
    clear_market. A failed check raises ValueError. There are two
    exceptions. One is a tuple this function checked on its previous call:
    the engine passes the same avails tuple every round, and the same asks
    and weights after a round that moved no seller, so the call keeps them
    in _checked and skips the conversion and check of each that is that
    very tuple again, and the availabilities' fsum total (see _quotes).
    Only a tuple of floats is kept, and it cannot change, so each skipped
    check would pass and each skipped conversion return the tuple itself.
    The other is a prev_s that is a trading clearing's s, an _Allocation,
    as the engine passes after its first round: its floats are finite by
    construction, so its conversion would return them and its check pass.
    Any other prev_s, a plain tuple too, is checked. Either way the result
    is the same bit for bit. The length checks always run. A call that
    raises or clears no trade leaves _checked as it was.
    Solves the clearing objective minus
    sum(w_j/2 * (s_j - prev_s_j)^2), whose seller response
    s_j(mu) = clip(prev_s_j + (mu - c_j)/w_j, 0, a_j) is continuous in the
    asks; it is written once and gives both the exact supply sums and the
    allocations. The price solves demand == supply
    exactly. Supply is nondecreasing and demand nonincreasing in mu, so the
    first breakpoint in surplus brackets the root. When demand at the top
    breakpoint, p or the highest upper kink, exceeds total availability, no
    breakpoint is in surplus: every seller is capped and the price is where
    demand meets total availability, found in O(N_s) with no sort. If
    prev_s equals the availabilities, every upper kink is the seller's ask,
    so that test needs no pass over the sellers at all, and a returned
    prev_s is itself the allocation: equal to each a_j and never -0.0, it
    is abs(a_j) bit for bit. Either way the round settles through
    :func:`_sold_out`, like clear_market's. Otherwise
    :func:`sweep_guess` sorts the breakpoints once and sweeps a running
    supply line to guess that breakpoint; the exact supply sum then confirms
    the guess and its left neighbour, and only a wrong guess falls back to
    bisection: O(N_s log N_s). Supply is linear on the bracketing segment, so
    the root is closed-form in the two exact sums at its ends (linear below
    the floor, a quadratic above it). Where a large weight makes that root
    magnify the sums' rounding more than 512-fold, one Newton step on the
    excess in exact arithmetic (:func:`_exact_newton_step`) restores it.
    At a stationary point (s == prev_s) interior sellers force mu == c_j, so
    fixed points satisfy the exact clearing optimality system. The result
    computes its kkt_residual only when it is first read.
    """
    global _checked
    known_avails, known_total, known_asks, known_weights = _checked
    n_s = len(asks)
    weights_known = weights is known_weights
    if not weights_known:
        try:
            weights = _floats(weights)
        except TypeError:
            weights = ()  # a scalar: refused below, like a list of another length
    if len(weights) != n_s:
        raise ValueError(f"{len(weights)} proximal weights vs {n_s} sellers")
    if not weights_known:
        check_positive("proximal weights", *weights)
    returned = type(prev_s) is _Allocation
    if not returned:
        prev_s = tuple(map(float, prev_s))
    if len(prev_s) != n_s:
        raise ValueError(f"{len(prev_s)} previous allocations vs {n_s} sellers")
    if not returned:
        for v in filterfalse(math.isfinite, prev_s):
            raise ValueError(f"previous allocations must be finite, got {v}")
    quotes = _quotes(bids, asks, avails, params, (known_avails, known_total, known_asks))
    if isinstance(quotes, ClearingResult):
        return quotes
    bids, asks, avails, total_bid, total_avail = quotes
    _checked = (avails, total_avail, asks, weights)
    p = params.p
    if prev_s == avails:
        # Every offering seller was capped last round, so its upper kink is
        # c_j + w_j*0.0 = c_j and top is p or the highest offering ask.
        top = max(p, max(compress(asks, avails)))
        if total_bid / top > total_avail:
            return _sold_out(quotes, params, top, prev_s if returned else None)
    # (prev_s_j clipped to [0, a_j], c_j, w_j, a_j) per seller. CPython
    # evaluates max(u, v) as `v if v > u else u` and min(u, v) as
    # `v if v < u else u`; per-agent loops spell the clamps out that way,
    # which gives the same floats at ties, -0.0 and NaN without paying a
    # builtin call per agent and round.
    sellers = []
    for v, cj, wj, aj in zip(prev_s, asks, weights, avails):
        v = 0.0 if 0.0 > v else v
        sellers.append((aj if aj < v else v, cj, wj, aj))

    def allocations(mu: float) -> list[float]:
        # A seller with nothing to offer sells nothing, whatever its ask.
        # max(0.0, v) maps the -0.0 of a prev_s_j of -0.0 plus a step that
        # underflows to 0.0, so an _Allocation holds none.
        out = []
        for pj, cj, wj, aj in sellers:
            if aj > 0:
                v = pj + (mu - cj) / wj
                v = v if v > 0.0 else 0.0
                out.append(aj if aj < v else v)
            else:
                out.append(0.0)
        return out

    # Seller j is linear in mu between its kinks c_j - w_j*prev_j (s_j = 0)
    # and c_j + w_j*(a_j - prev_j) (s_j = a_j). With prev_j in [0, a_j] no
    # lower kink lies above its upper kink, even rounded, so the top
    # breakpoint is p or the highest upper kink.
    offering = [seller for seller in sellers if seller[3] > 0]
    uppers = [cj + wj * (aj - pj) for pj, cj, wj, aj in offering]
    top = max(p, max(uppers))
    if total_bid / top > total_avail:
        # No supply term exceeds its a_j and fsum rounds correctly, so supply
        # at top is at most total_avail, below demand there: no breakpoint is
        # in surplus, and every seller is capped at the search's price too.
        return _sold_out(quotes, params, top)

    # Each event carries what it adds to the running supply line
    # slope*mu + intercept; p only joins the grid.
    events = [(p, 0.0, 0.0)]
    for (pj, cj, wj, aj), upper in zip(offering, uppers):
        base = pj - cj / wj
        events.append((cj - wj * pj, 1.0 / wj, base))
        events.append((upper, -1.0 / wj, aj - base))
    grid, guess = sweep_guess(events, 0.0, total_bid, p)

    def solve_segment(m0: float, m1: float, s0: float, s1: float) -> float:
        # Linear supply between breakpoints; demand constant below p.
        k = (s1 - s0) / (m1 - m0)
        if m1 <= p:
            if k <= 0:
                return m0
            return min(max(m0 + (total_bid / p - s0) / k, m0), m1)
        if k <= 0:
            return min(max(total_bid / s0, m0), m1) if s0 > 0 else m1
        coef_b = s0 - k * m0
        disc = coef_b * coef_b + 4.0 * k * total_bid
        # Positive root of k*mu^2 + coef_b*mu = total_bid. For coef_b >= 0,
        # -coef_b + sqrt(disc) cancels, so use the equivalent
        # 2 * total_bid / (coef_b + sqrt(disc)).
        if coef_b >= 0:
            mu_root = 2.0 * total_bid / (coef_b + math.sqrt(disc))
        else:
            mu_root = (-coef_b + math.sqrt(disc)) / (2.0 * k)
        return min(max(mu_root, m0), m1)

    # Each supply term is monotone in mu under IEEE rounding and fsum rounds
    # correctly, so supply(m) >= demand(m) is monotone along the grid and the
    # first breakpoint in surplus is exact whatever the guess. The search
    # evaluates the supplies at both ends of the bracket it returns.
    supplies: dict[int, float] = {}

    def in_surplus(i: int) -> bool:
        m = grid[i]
        supplies[i] = math.fsum(allocations(m))
        return supplies[i] >= total_bid / (m if m >= p else p)

    lo = first_passing(len(grid), guess, in_surplus)
    if lo == 0:
        mu = grid[0]  # already in surplus at the lowest breakpoint
    elif lo == len(grid):
        # Every seller is capped at top, so supply falls short of demand
        # there only through rounding. Demand at top is within total_avail,
        # so the responses, not the whole availabilities, keep the balance.
        mu = max(total_bid / total_avail, top)
    else:
        m0, m1, s0, s1 = grid[lo - 1], grid[lo], supplies[lo - 1], supplies[lo]
        mu = solve_segment(m0, m1, s0, s1)
        # The float root carries the rounding of s0, s1 and m0 into mu
        # magnified by about (s1 / k + |m0|) / mu, k the segment's slope:
        # a seller with a large weight makes k small, and its lower kink
        # c_j - w_j*prev_j far below zero. Past 512 (corpus markets reach
        # 23, wide-range ones 181), one Newton step on the exact excess
        # restores the root.
        if s1 > s0 and mu > 0 and s1 * (m1 - m0) / (s1 - s0) + abs(m0) > 512.0 * mu:
            mu = _exact_newton_step(mu, m0, m1, bids, offering, p)

    return _settle(bids, asks, avails, params, mu, _Allocation(allocations(mu)))


def _exact_newton_step(
    mu: float,
    m0: float,
    m1: float,
    bids: tuple[float, ...],
    offering: list[tuple[float, float, float, float]],
    p: float,
) -> float:
    """mu moved by one Newton step on the excess supply(mu) - demand(mu),
    taken in exact arithmetic and rounded once, kept within [m0, m1].

    offering holds (prev_j clipped to [0, a_j], c_j, w_j, a_j) per offering
    seller. The slope counts the sellers strictly between their kinks at
    the segment's midpoint, on which supply is linear; demand is
    total_bid / max(mu, p). Supply is linear on the segment, so below p
    the step lands on the root, and above it the step squares the float
    root's relative error.
    """
    x, mid = Fraction(mu), (Fraction(m0) + Fraction(m1)) / 2
    supply = slope = Fraction(0)
    for pj, cj, wj, aj in offering:
        w, a = Fraction(wj), Fraction(aj)
        base = Fraction(pj) - Fraction(cj) / w
        v = base + x / w
        supply += a if v >= a else v if v > 0 else 0
        if 0 < base + mid / w < a:
            slope += 1 / w
    total_bid = sum(Fraction(b) for b in bids if b > BID_FLOOR)
    if x > p:
        excess, dexcess = supply - total_bid / x, slope + total_bid / (x * x)
    else:
        excess, dexcess = supply - total_bid / Fraction(p), slope
    if dexcess <= 0:
        return mu
    return min(max(float(x - excess / dexcess), m0), m1)


def clearing_objective(
    bids: tuple[float, ...] | list[float],
    asks: tuple[float, ...] | list[float],
    d: tuple[float, ...] | list[float],
    s: tuple[float, ...] | list[float],
) -> float:
    """Controller objective sum(b*log d) - sum(c*s) over participating buyers."""
    total = 0.0
    for b, di in zip(bids, d):
        if b > BID_FLOOR:
            if di <= 0:
                return -math.inf
            total += b * math.log(di)
    return total - math.fsum(c * sj for c, sj in zip(asks, s))


def kkt_residual(result: ClearingResult) -> float:
    """Dimensionless maximum violation of the clearing optimality system.

    Checks primal feasibility (budgets, availability bounds, energy balance),
    stationarity (b_i/d_i = max(mu, p) for every active buyer, its budget
    binding where mu <= p; asks vs mu by dispatch status), and complementary
    slackness. Price mismatches are normalized by max(mu, p), balance by
    max(1, total traded); bound violations are absolute, so a one-unit
    overdispatch contributes at least 1. The quotes are the ones result
    cleared. A NaN that the checks read (price, allocations, bids,
    availabilities, offering sellers' asks) would pass every comparison
    below, so it gives NaN, which no tolerance accepts.
    """
    # A running max over the violations in a fixed order; `v > worst`
    # replaces worst exactly when max() over the same list would. worst
    # starts at 0 and never falls, so a term max(0, x) / q with q > 0 is
    # written x / q: when x <= 0 it cannot replace worst either way. For
    # the same reason a per-agent abs(x) is `x if x > 0.0 else -x`, which
    # differs only in the sign of a zero. The max(1.0, v) scales are inline
    # by CPython's rule (see clear_market_proximal). The
    # walks zip each quote with its field strictly, so fields of another
    # length raise instead of being cut short. The NaN test sums each list
    # in C, building nothing: a sum is NaN for a NaN or infinities of both
    # signs, which no clearing returns either.
    sums = (
        sum(result.bids), sum(result.d), sum(compress(result.asks, result.avails)),
        sum(result.avails), sum(result.s), result.mu or 0.0,
    )
    if any(map(math.isnan, sums)):
        return math.nan
    if result.mu is None:
        # with NaN ruled out above, max() equals a running max from 0.0
        return max(map(abs, (*result.d, *result.s)), default=0.0)
    p = result.params.p
    worst = 0.0

    mu = result.mu
    scale = max(mu, p)
    for b, d in zip(result.bids, result.d, strict=True):
        if -d > worst:
            worst = -d
        v = (p * d - b) / (b if b > 1.0 else 1.0)
        if v > worst:
            worst = v
        if b <= BID_FLOOR:
            v = d if d > 0.0 else -d
        elif d <= 0:
            v = 1.0
        else:
            v = b / d - scale
            v = (v if v > 0.0 else -v) / scale
        if v > worst:
            worst = v
    for c, a, s in zip(result.asks, result.avails, result.s, strict=True):
        if -s > worst:
            worst = -s
        v = s - a
        if v > worst:
            worst = v
        bound_tol = 1e-9 * (a if a > 1.0 else 1.0)
        if a <= 0:
            v = s if s > 0.0 else -s
        elif s >= a - bound_tol:
            v = (c - mu) / scale
        elif s <= bound_tol:
            v = (mu - c) / scale
        else:
            v = c - mu
            v = (v if v > 0.0 else -v) / scale
        if v > worst:
            worst = v
    total_d = math.fsum(result.d)
    v = abs(total_d - math.fsum(result.s)) / max(1.0, total_d)
    return v if v > worst else worst
