"""Full-information welfare benchmark.

Computes the allocation a planner who could read every agent's utility would
pick: maximize total welfare sum(u_i(d_i)) + sum(v_j(g_j - s_j)) subject to
the same budget caps, availability bounds, and energy balance the auction
enforces. The auction never consults this module; it exists so tests and
experiments can measure how close the bid-driven outcome gets.

The optimum's price is found exactly from sorted response breakpoints: one
sweep with a running A/mu + B guesses the bracketing segment, two exact excess
sums confirm it (bisection takes over only if they disagree), and the root on
that segment is closed-form: O(N log N) per solve, no rescale of either side
to force the balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .clearing import BID_FLOOR, first_passing
from .market import BuyerState, MarketParams, SellerState

_RANGE_TOL = 1e-9


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


def social_welfare(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    d: tuple[float, ...] | list[float],
    s: tuple[float, ...] | list[float],
) -> float:
    """Total welfare sum(u_i(d_i)) + sum(v_j(g_j - s_j)) of an allocation."""
    if len(d) != len(buyers):
        raise ValueError(f"{len(d)} allocations vs {len(buyers)} buyers")
    if len(s) != len(sellers):
        raise ValueError(f"{len(s)} allocations vs {len(sellers)} sellers")
    total = 0.0
    for buyer, di in zip(buyers, d):
        if di < -_RANGE_TOL or not math.isfinite(di):
            raise ValueError(f"buyer allocation out of range: {di}")
        total += buyer.utility.value(max(di, 0.0))
    for seller, sj in zip(sellers, s):
        slack = _RANGE_TOL * max(1.0, seller.g)
        if sj < -slack or sj > seller.g + slack or not math.isfinite(sj):
            raise ValueError(f"seller allocation out of range: {sj} (g={seller.g})")
        retained = min(max(seller.g - sj, 0.0), seller.g)
        total += seller.utility.value(retained)
    return total


def _buyer_response(buyer: BuyerState, bid: float, mu: float, p: float) -> float:
    if bid <= BID_FLOOR:
        return 0.0
    return min(buyer.utility.inverse_marginal(mu), bid / p)


def _seller_response(seller: SellerState, avail: float, mu: float) -> float:
    retained = seller.utility.inverse_marginal(mu)
    return min(max(seller.g - retained, 0.0), avail)


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
    must be finite and >= 0.

    The price search uses sorted response breakpoints and a closed-form root
    on the bracketing segment: O(N log N), no rescale. With log utility every
    response is x/mu - 1/y clipped to its bounds, with two kinks in mu, so
    between consecutive kinks excess demand is A/mu + B. One sweep over the
    sorted kinks, carrying A and B, guesses the first kink not in excess
    demand. Excess demand is nonincreasing in mu, so the exact excess at the
    guess and at the kink below it confirms it; only a wrong guess falls back
    to bisection. Then mu = A/(-B) on the segment that ends there.
    """
    if len(bids) != len(buyers):
        raise ValueError(f"{len(bids)} bids vs {len(buyers)} buyers")
    if len(avails) != len(sellers):
        raise ValueError(f"{len(avails)} availabilities vs {len(sellers)} sellers")
    bids = tuple(float(b) for b in bids)
    avails = tuple(float(a) for a in avails)
    for b in bids:
        if not math.isfinite(b) or b < 0:
            raise ValueError(f"bids must be finite and >= 0, got {b}")
    for a in avails:
        if not math.isfinite(a) or a < 0:
            raise ValueError(f"availabilities must be finite and >= 0, got {a}")
    p = params.p

    active_b = [i for i, b in enumerate(bids) if b > BID_FLOOR]
    active_s = [j for j, a in enumerate(avails) if a > 0]

    def autarky(mu: float | None) -> WelfareSolution:
        d0 = (0.0,) * len(buyers)
        s0 = (0.0,) * len(sellers)
        return WelfareSolution(d0, s0, mu, social_welfare(buyers, sellers, d0, s0))

    if not active_b or not active_s:
        return autarky(None)

    mu_lo = min(sellers[j].utility.marginal(sellers[j].g) for j in active_s)
    mu_hi = max(buyers[i].utility.marginal(0.0) for i in active_b)
    if mu_hi <= mu_lo:
        # The keenest buyer values energy below the cheapest seller's
        # marginal value of keeping it: no mutually beneficial trade.
        return autarky(None)

    def excess(mu: float) -> float:
        demand = math.fsum(_buyer_response(buyers[i], bids[i], mu, p) for i in active_b)
        supply = math.fsum(_seller_response(sellers[j], avails[j], mu) for j in active_s)
        return demand - supply

    # Buyer i demands clip(x/mu - 1/y, 0, b/p): capped below marginal(b/p),
    # zero above marginal(0). Seller j supplies g - max(x/mu - 1/y, 0) clipped
    # to [0, a]: zero below marginal(g), capped at min(a, g) above
    # marginal(g - min(a, g)). Rows hold both kinks, the utility and bounds.
    # Between kinks excess demand is A/mu + B; each event carries what it adds
    # to A and B as mu passes it. Below every kink all buyers demand their
    # cap and all sellers supply 0, so B starts at the sum of the caps.
    buyer_rows = []
    seller_rows = []
    events = []
    cap_sum = 0.0
    for i in active_b:
        u = buyers[i].utility
        cap = bids[i] / p
        lower, upper = u.marginal(cap), u.marginal(0.0)
        buyer_rows.append((lower, upper, u, cap))
        cap_sum += cap
        events.append((lower, u.x, -1.0 / u.y - cap))
        events.append((upper, -u.x, 1.0 / u.y))
    for j in active_s:
        u, g = sellers[j].utility, sellers[j].g
        top = min(avails[j], g)
        lower, upper = u.marginal(g), u.marginal(g - top)
        seller_rows.append((lower, upper, u, g, top))
        events.append((lower, u.x, -g - 1.0 / u.y))
        events.append((upper, -u.x, g + 1.0 / u.y - top))
    events.sort(key=itemgetter(0))
    grid = []
    for m, _, _ in events:
        if mu_lo <= m <= mu_hi and (not grid or m != grid[-1]):
            grid.append(m)

    # Guess the first kink not in excess demand from the running A/mu + B;
    # the exact fsum test, monotone in mu, confirms the guess and its left
    # neighbour, and bisects the rest of the grid only if they disagree.
    # Events below mu_lo are in before the first test; the sentinel at
    # infinity tests the last kink.
    events.append((math.inf, 0.0, 0.0))
    guess = 0
    m_guess = grid[0]
    run_a, run_b = 0.0, cap_sum
    for m, d_a, d_b in events:
        if m > m_guess:
            if run_a / m_guess + run_b <= 0:
                break
            guess += 1
            if m > mu_hi:
                break
            m_guess = m
        run_a += d_a
        run_b += d_b
    lo = first_passing(len(grid), guess, lambda idx: not excess(grid[idx]) > 0)
    # Both ends are only reachable through rounding at the outermost kinks.
    if lo == 0:
        mu = grid[0]
    elif lo == len(grid):
        mu = grid[-1]
    else:
        m0, m1 = grid[lo - 1], grid[lo]
        probe = 0.5 * (m0 + m1)  # no kink lies strictly inside the segment
        slope_terms: list[float] = []
        const_terms: list[float] = []
        for lower, upper, u, cap in buyer_rows:
            if probe <= lower:
                const_terms.append(cap)
            elif probe < upper:
                slope_terms.append(u.x)
                const_terms.append(-1.0 / u.y)
        for lower, upper, u, g, top in seller_rows:
            if probe >= upper:
                const_terms.append(-top)
            elif probe > lower:
                slope_terms.append(u.x)
                const_terms.extend((-g, -1.0 / u.y))
        slope = math.fsum(slope_terms)
        const = math.fsum(const_terms)
        mu = min(max(slope / -const, m0), m1) if const < 0 else m1

    d = [0.0] * len(buyers)
    s = [0.0] * len(sellers)
    for i in active_b:
        d[i] = _buyer_response(buyers[i], bids[i], mu, p)
    for j in active_s:
        s[j] = _seller_response(sellers[j], avails[j], mu)
    if math.fsum(d) <= 0.0 or math.fsum(s) <= 0.0:
        return autarky(None)
    theta = social_welfare(buyers, sellers, d, s)
    return WelfareSolution(tuple(d), tuple(s), mu, theta)


def efficiency_gap(theta_auction: float, theta_optimal: float) -> float:
    """Percent welfare shortfall of the auction against the planner optimum."""
    if theta_optimal <= 0:
        raise ValueError(f"optimal welfare must be positive, got {theta_optimal}")
    return 100.0 * (theta_optimal - theta_auction) / theta_optimal
