"""Full-information welfare benchmark.

Computes the allocation a planner who could read every agent's utility would
pick: maximize total welfare sum(u_i(d_i)) + sum(v_j(g_j - s_j)) subject to
the same budget caps, availability bounds, and energy balance the auction
enforces. The auction never consults this module; it exists so tests and
experiments can measure how close the bid-driven outcome gets.

The optimum's price is found exactly from sorted response breakpoints: the
breakpoint sweep of proximal clearing (clearing.sweep_guess), run on the
surplus line -(A/mu + B)*mu, guesses the bracketing segment, two exact excess
sums confirm it (clearing.first_passing bisects only if they disagree), and
the root on that segment is closed-form in those two sums (or in the
segment's line, where they leave no demand): O(N log N) per solve, no
rescale of either side to force the balance.

The planner builds each active buyer's constants (x, 1/y, b/p) once per
solve. The seller side, each offering seller's (x, 1/y, g, a) and its
breakpoint events presorted, depends on no bid: _seller_side builds it and
the module keeps the last one, keyed by the value of (tuple(sellers),
avails), so the efficiency study, which re-solves at every trace record's
bids, builds it once per market. Every input is checked on every call
before that lookup. Its kinks, excess sums and allocations are the list
rules of utility.py, marginals, demands and supplies, one call per list.
The welfare theta is market.social_welfare, the same sum the engine
records each round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .clearing import BID_FLOOR, first_passing, sweep_guess
from .market import BuyerState, MarketParams, SellerState, social_welfare
from .utility import check_nonnegative, demands, marginals, supplies


@dataclass(frozen=True)
class WelfareSolution:
    """Planner's optimum: allocations, shadow price, and welfare value.

    mu_star is the price equating marginal utility across the market; None
    when the marginal curves never cross with positive volume (no trade).
    """

    d_star: tuple[float, ...]
    s_star: tuple[float, ...]
    mu_star: float | None
    theta: float

    @property
    def no_trade(self) -> bool:
        return self.mu_star is None


# The key (tuple(sellers), avails) of the last seller side solve_welfare
# used, and that side: one entry, compared by value.
_seller_memo: tuple = (None, None)


def _seller_side(
    sellers: list[SellerState] | tuple[SellerState, ...], avails: tuple[float, ...]
) -> tuple[tuple[int, ...], tuple, tuple]:
    """The half of a planner solve that no bid moves: the indices of the
    sellers with something to offer, their constants (x, 1/y, g, a), and
    their breakpoint events, sorted by breakpoint alone with a stable sort.

    Seller j supplies g - max(x/mu - 1/y, 0) clipped to [0, a]: zero below
    marginal(g), capped at min(a, g) above marginal(g - min(a, g)). Each
    event is (kink, -dB, -dA) as in solve_welfare. A seller refuses its own
    lowest kink marginal(g) of 0.0; its other kink is no lower.
    """
    active_s = [j for j, a in enumerate(avails) if a > 0]
    offering = [sellers[j] for j in active_s]
    seller_k = [(s.x, 1.0 / s.y, s.g, avails[j]) for s, j in zip(offering, active_s)]
    # min(a, g) inline, by CPython's rule
    tops = [g if g < a else a for _, _, g, a in seller_k]
    lows = marginals(offering, [s.g for s in offering])
    highs = marginals(offering, [s.g - top for s, top in zip(offering, tops)])
    events = []
    for (x, inv_y, g, _), top, low, high in zip(seller_k, tops, lows, highs):
        events.append((low, g + inv_y, -x))
        events.append((high, top - (g + inv_y), x))
    events.sort(key=itemgetter(0))
    return tuple(active_s), tuple(seller_k), tuple(events)


def solve_welfare(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    bids: tuple[float, ...] | list[float],
    avails: tuple[float, ...] | list[float],
    params: MarketParams,
) -> WelfareSolution:
    """Maximize total welfare subject to budgets, availabilities, and balance.

    Strict concavity gives a unique optimum characterized by one price mu:
    buyers demand u'^-1(mu) capped at b/p, sellers supply down to the stock
    whose retained marginal value is mu, capped at their availability. Bids and
    availabilities are taken as given, typically the auction's final ones, and
    must be finite and >= 0; each bid's budget cap b/p must be finite, and
    the kink where it binds, x*y/(y*b/p + 1) or, where y*b/p overflows, the
    same value as x/(b/p + 1/y), must not underflow to 0.0.

    The price search uses sorted response breakpoints and a closed-form root
    on the bracketing segment: O(N log N), no rescale. With log utility every
    response is x/mu - 1/y clipped to its bounds, with two kinks in mu, so
    between consecutive kinks excess demand is A/mu + B. One sweep over the
    sorted kinks, carrying the surplus line -(A/mu + B)*mu, guesses the first
    kink not in excess demand. Excess demand is nonincreasing in mu, so the
    exact excess at the guess and at the kink below it confirms it; only a
    wrong guess falls back to bisection. The two exact values e0 > 0 >= e1 at
    the segment's ends m0 < m1 then fix its root -A/B, interpolated in 1/mu
    from the end whose value is the smaller, so a negligible end value leaves
    mu on that kink. Where that mu leaves no demand, mu is the root of the
    segment's line itself (_segment_root), since a buyer's demand at its
    choke kink fl(x*y) is rounding residue that can outweigh a tiny supply.
    A market without a mutually beneficial trade lands on allocations that
    sum to zero on one side, and is reported as no trade.
    """
    if len(bids) != len(buyers):
        raise ValueError(f"{len(bids)} bids vs {len(buyers)} buyers")
    if len(avails) != len(sellers):
        raise ValueError(f"{len(avails)} availabilities vs {len(sellers)} sellers")
    bids = tuple(map(float, bids))
    avails = tuple(map(float, avails))
    p, inf = params.p, math.inf
    # 0.0 <= b < inf fails exactly for NaN, the infinities and b < 0. The
    # cap b/p of a bid that passes is >= 0, so it is infinite only as inf.
    caps = []
    for i, b in enumerate(bids):
        if not 0.0 <= b < inf:
            raise ValueError(f"bids must be finite and >= 0, got {b} from buyer {i}")
        cap = b / p
        if cap == inf:
            raise ValueError(f"budget cap b/p of buyer {i} overflows: bid {b} at floor price {p}")
        caps.append(cap)
    # The cap kink marginal(b/p) is 0.0 where y*b/p overflows to inf; the
    # same kink is then x/(b/p + 1/y). One that is 0.0 either way is refused.
    cap_kinks = marginals(buyers, caps)
    while 0.0 in cap_kinks:
        i = cap_kinks.index(0.0)
        x, y = buyers[i].x, buyers[i].y
        cap_kinks[i] = x / (caps[i] + 1.0 / y)
        if cap_kinks[i] == 0.0:
            raise ValueError(
                f"cap kink x*y/(y*b/p + 1) of buyer {i} underflows to 0.0: "
                f"bid {bids[i]} (x={x}, y={y})"
            )
    check_nonnegative("availabilities", *avails)

    # Every check above runs on every call; only then is the seller side
    # looked up. The memo is read once and written once, so a concurrent
    # call can at worst rebuild a side, never mix two.
    global _seller_memo
    key = (tuple(sellers), avails)
    memo = _seller_memo
    if memo[0] == key:
        side = memo[1]
    else:
        side = _seller_side(sellers, avails)
        _seller_memo = (key, side)
    active_s, seller_k, seller_events = side
    active_b = [i for i, b in enumerate(bids) if b > BID_FLOOR]

    def autarky() -> WelfareSolution:
        d0 = (0.0,) * len(buyers)
        s0 = (0.0,) * len(sellers)
        return WelfareSolution(d0, s0, None, social_welfare(buyers, sellers, d0, s0))

    if not active_b or not active_s:
        return autarky()

    def excess(mu: float) -> float:
        return math.fsum(demands(buyer_k, mu)) - math.fsum(supplies(seller_k, mu))

    # Buyer i demands clip(x/mu - 1/y, 0, b/p): capped below marginal(b/p),
    # zero above marginal(0) = x*y. Between kinks excess demand is A/mu + B
    # (see _seller_side for the sellers' kinks); each event carries what it
    # adds to A and B as mu passes it. Below every kink all buyers demand
    # their cap and all sellers supply 0, so B starts at the sum of the
    # caps. Every kink is positive, so the sweep runs the surplus line
    # -B*mu - A in their place, each event carrying (kink, -dB, -dA). Each
    # agent keeps x*y positive and finite, and the checks above keep every
    # cap kink positive. The seller events come after the buyer events,
    # already in order, so the stable sort in sweep_guess puts every event
    # where it would put it in one unsorted list.
    buyer_k = []
    events = []
    cap_sum = 0.0
    for i in active_b:
        x, y = buyers[i].x, buyers[i].y
        cap = caps[i]
        inv_y = 1.0 / y
        cap_sum += cap
        buyer_k.append((x, inv_y, cap))
        events.append((cap_kinks[i], inv_y + cap, -x))
        events.append((x * y, -inv_y, x))
    events += seller_events
    grid, guess = sweep_guess(events, -cap_sum, 0.0, p)

    # The exact fsum test is monotone in mu, so the first kink not in excess
    # demand is exact whatever the guess, and the search evaluates the excess
    # at both ends of the bracket it returns.
    excesses: dict[int, float] = {}

    def no_excess(idx: int) -> bool:
        excesses[idx] = excess(grid[idx])
        return not excesses[idx] > 0

    lo = first_passing(len(grid), guess, no_excess)
    # Both ends are only reachable through rounding at the outermost kinks.
    if lo == 0:
        mu = grid[0]
    elif lo == len(grid):
        mu = grid[-1]
    else:
        # No kink lies strictly inside the segment, so excess is A/mu + B on
        # it, linear in 1/mu, and the two exact end values e0 > 0 >= e1 give
        # its root -A/B. Interpolate from the end with the smaller value: an
        # end value too small to move that kink leaves mu exactly on it, and
        # the denominator stays at least 1/2.
        m0, m1 = grid[lo - 1], grid[lo]
        e0, e1 = excesses[lo - 1], excesses[lo]
        if e0 >= -e1:
            mu = m1 / (1.0 - e1 / (e0 - e1) * (m1 - m0) / m0)
        else:
            mu = m0 / (1.0 - e0 / (e0 - e1) * (m1 - m0) / m1)
        mu = min(max(mu, m0), m1)

    bought, sold = demands(buyer_k, mu), supplies(seller_k, mu)
    total = math.fsum(bought)
    if 0 < lo < len(grid) and total <= 0.0:
        # The end values fix the root only where they lie on the segment's
        # line. At a choke kink fl(x*y) the demand x/fl(x*y) - 1/y is
        # rounding residue, which can outweigh a tiny supply and leave mu on
        # the wrong side of the kink, with no demand; the line itself does
        # not hold that residue.
        mu = _segment_root(buyer_k, seller_k, m0, m1)
        bought, sold = demands(buyer_k, mu), supplies(seller_k, mu)
        total = math.fsum(bought)
    if total <= 0.0 or math.fsum(sold) <= 0.0:
        return autarky()
    d = [0.0] * len(buyers)
    s = [0.0] * len(sellers)
    for i, q in zip(active_b, bought):
        d[i] = q
    for j, q in zip(active_s, sold):
        s[j] = q
    theta = social_welfare(buyers, sellers, d, s)
    return WelfareSolution(tuple(d), tuple(s), mu, theta)


def _segment_root(buyer_k: list, seller_k: tuple, m0: float, m1: float) -> float:
    """The root -A/B of the excess A/mu + B on the segment [m0, m1], clamped
    to it, or m1 where B >= 0.

    Each agent's response at the midpoint says which term it adds: a buyer
    strictly inside its bounds adds x/mu - 1/y, a seller strictly inside
    its bounds adds x/mu - g - 1/y, and every other agent its constant
    response, with the sign of excess demand. No kink lies inside the
    segment, so the midpoint speaks for all of it.
    """
    mid = 0.5 * (m0 + m1)
    slope, const = [], []
    for (x, inv_y, cap), q in zip(buyer_k, demands(buyer_k, mid)):
        if 0.0 < q < cap:
            slope.append(x)
            const.append(-inv_y)
        else:
            const.append(q)
    for (x, inv_y, g, a), q in zip(seller_k, supplies(seller_k, mid)):
        # min(a, g) inline, by CPython's rule
        if 0.0 < q < (g if g < a else a):
            slope.append(x)
            const += (-g, -inv_y)
        else:
            const.append(-q)
    intercept = math.fsum(const)
    if not intercept < 0.0:
        return m1
    return min(max(math.fsum(slope) / -intercept, m0), m1)


def efficiency_gap(theta_auction: float, theta_optimal: float) -> float:
    """Percent welfare shortfall of the auction against the planner optimum."""
    if theta_optimal <= 0:
        raise ValueError(f"optimal welfare must be positive, got {theta_optimal}")
    return 100.0 * (theta_optimal - theta_auction) / theta_optimal
