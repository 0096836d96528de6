"""Independent reference solvers the tests compare the package against.

Deliberately different algorithms from the ones under test: the clearing
objective is maximized with scipy's SLSQP from several starts, the
regularized clearing price and the welfare price are found by linear scans
over every kink of the response curves (the clearing price also by exact
rational bisection), the auction's equilibrium by a scan
over the buyers' choke prices when every seller is sold out and by plain
bisection otherwise, the welfare objective with a zooming grid search, and
the clearing optimality residual as the max of a list of every violation.
Slow but trustworthy. Beside them: the weak-duality bound on the planner's
welfare, which certifies an outcome's efficiency gap with no price search,
and a seeded generator of markets far wider than the acceptance corpus.
"""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
from scipy.optimize import LinearConstraint, minimize

from microgrid_auction.market import BuyerState, MarketParams, SellerState
from microgrid_auction.welfare import social_welfare


def best_clearing_objective(
    bids: tuple[float, ...],
    asks: tuple[float, ...],
    avails: tuple[float, ...],
    params: MarketParams,
) -> float | None:
    """Max of sum(b log d) - sum(c s) over the clearing polytope, via SLSQP.

    Returns None when every start fails (never seen in practice) or no buyer
    holds a positive bid.
    """
    nb, ns = len(bids), len(asks)
    b = np.asarray(bids, dtype=float)
    c = np.asarray(asks, dtype=float)
    a = np.asarray(avails, dtype=float)
    if nb == 0 or ns == 0 or np.all(b <= 0) or np.all(a <= 0):
        return None

    def neg(z: np.ndarray) -> float:
        d, s = z[:nb], z[nb:]
        if np.any(d <= 0):
            return 1e9
        return -(float(np.sum(b * np.log(d))) - float(np.dot(c, s)))

    def jac(z: np.ndarray) -> np.ndarray:
        d = z[:nb]
        return np.concatenate([-b / d, c])

    balance = LinearConstraint(np.concatenate([np.ones(nb), -np.ones(ns)]), 0, 0)
    bounds = [(1e-9, bi / params.p) for bi in b] + [(0.0, ai) for ai in a]
    best = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for scale in (0.05, 0.3, 1.0):
            z0 = np.concatenate([np.full(nb, scale), np.full(ns, scale * nb / max(ns, 1))])
            z0 = np.clip(z0, [b[0] for b in bounds], [b[1] for b in bounds])
            res = minimize(
                neg,
                z0,
                jac=jac,
                bounds=bounds,
                constraints=[balance],
                method="SLSQP",
                options={"maxiter": 500, "ftol": 1e-14},
            )
            if res.success and (best is None or res.fun < best):
                best = float(res.fun)
    return None if best is None else -best


def proximal_clearing_reference(
    bids: tuple[float, ...],
    asks: tuple[float, ...],
    avails: tuple[float, ...],
    p: float,
    prev: tuple[float, ...],
    weights: tuple[float, ...],
) -> tuple[float, tuple[float, ...]] | None:
    """Regularized clearing price and allocations by a linear scan.

    Seller j supplies s_j(mu) = clip(prev_j + (mu - c_j)/w_j, 0, a_j), with
    prev_j in [0, a_j]; buyers bidding above 1e-9 demand sum(b)/max(mu, p).
    Every kink of the supply curve, plus p, is visited in increasing order
    until supply covers demand. On the segment that ends there, supply is
    S0 + K*(mu - m0), where K sums 1/w_j over the sellers strictly between
    their bounds, and the price has a closed form. Returns (mu, s), or None
    when either side of the market is empty.
    """
    total_bid = math.fsum(b for b in bids if b > 1e-9)
    sellers = [j for j, a in enumerate(avails) if a > 0]
    if total_bid <= 0 or not sellers:
        return None

    def response(j: int, mu: float) -> float:
        return min(max(prev[j] + (mu - asks[j]) / weights[j], 0.0), avails[j])

    def supply(mu: float) -> float:
        return math.fsum(response(j, mu) for j in sellers)

    def demand(mu: float) -> float:
        return total_bid / max(mu, p)

    lower = {j: asks[j] - weights[j] * prev[j] for j in sellers}
    upper = {j: asks[j] + weights[j] * (avails[j] - prev[j]) for j in sellers}
    kinks = sorted({p, *lower.values(), *upper.values()})
    first = next((k for k, m in enumerate(kinks) if supply(m) >= demand(m)), None)
    if first is None:
        # every seller sits at its availability; demand meets that flat line
        mu = max(total_bid / math.fsum(avails[j] for j in sellers), kinks[-1])
    elif first == 0:
        mu = kinks[0]
    else:
        m0, m1 = kinks[first - 1], kinks[first]
        s0 = supply(m0)
        slope = math.fsum(1.0 / weights[j] for j in sellers if lower[j] <= m0 and upper[j] >= m1)
        if m1 <= p:
            # demand is flat at total_bid/p
            mu = m0 + (total_bid / p - s0) / slope if slope > 0 else m0
        elif slope > 0:
            # slope*mu^2 + beta*mu - total_bid = 0, larger root, without cancellation
            beta = s0 - slope * m0
            root = math.sqrt(beta * beta + 4.0 * slope * total_bid)
            mu = 2.0 * total_bid / (beta + root) if beta >= 0 else (root - beta) / (2.0 * slope)
        else:
            mu = total_bid / s0 if s0 > 0 else m1
        mu = min(max(mu, m0), m1)
    s = tuple(response(j, mu) if avails[j] > 0 else 0.0 for j in range(len(avails)))
    return mu, s


def proximal_price_exact(
    bids: tuple[float, ...],
    asks: tuple[float, ...],
    avails: tuple[float, ...],
    p: float,
    prev: tuple[float, ...],
    weights: tuple[float, ...],
) -> Fraction | None:
    """The regularized clearing price of the float inputs, in exact arithmetic.

    The same market as proximal_clearing_reference, with every sum and
    quotient taken over fractions: the first kink where supply covers
    demand brackets the price, and 200 halvings of that segment leave it
    within 2**-200 of the segment's length above the exact root. Returns
    None when either side of the market is empty.
    """
    total_bid = sum(Fraction(b) for b in bids if b > 1e-9)
    sellers = [j for j, a in enumerate(avails) if a > 0]
    if total_bid <= 0 or not sellers:
        return None
    c = {j: Fraction(asks[j]) for j in sellers}
    w = {j: Fraction(weights[j]) for j in sellers}
    a = {j: Fraction(avails[j]) for j in sellers}
    s0 = {j: Fraction(prev[j]) for j in sellers}
    floor = Fraction(p)

    def excess(mu: Fraction) -> Fraction:
        supply = sum(min(max(s0[j] + (mu - c[j]) / w[j], Fraction(0)), a[j]) for j in sellers)
        return total_bid / max(mu, floor) - supply

    kinks = sorted({floor, *(c[j] - w[j] * s0[j] for j in sellers), *(c[j] + w[j] * (a[j] - s0[j]) for j in sellers)})
    first = next((k for k, m in enumerate(kinks) if excess(m) <= 0), None)
    if first is None:
        # every seller sits at its availability; demand meets that flat line
        return max(total_bid / sum(a.values()), kinks[-1])
    if first == 0:
        return kinks[0]
    lo, hi = kinks[first - 1], kinks[first]
    for _ in range(200):
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


def kkt_residual_reference(result, bids, asks, avails, p: float) -> float:
    """Maximum violation of the clearing optimality system, as a list max.

    result is any object with d, s, mu (None for no trade) and
    buyer_budget_active. Every violation is collected in a fixed order and
    the list's max() returned: bound violations absolute, price mismatches
    over max(mu, p), the energy balance over max(1, total demand), and buyers
    bidding at most 1e-9 held to d = 0.
    """
    violations = [0.0]
    if result.mu is None:
        violations.extend(abs(v) for v in result.d)
        violations.extend(abs(v) for v in result.s)
        return max(violations)
    mu = result.mu
    scale = max(mu, p)
    for i, b in enumerate(bids):
        d = result.d[i]
        violations.append(max(0.0, -d))
        violations.append(max(0.0, p * d - b) / max(1.0, b))
        if b <= 1e-9:
            violations.append(abs(d))
        elif d <= 0:
            violations.append(1.0)
        elif result.buyer_budget_active[i]:
            violations.append(abs(b / d - p) / scale)
            violations.append(max(0.0, mu - p) / scale)
        else:
            violations.append(abs(b / d - mu) / scale)
    for j, (c, a) in enumerate(zip(asks, avails)):
        s = result.s[j]
        violations.append(max(0.0, -s))
        violations.append(max(0.0, s - a))
        bound_tol = 1e-9 * max(1.0, a)
        if a <= 0:
            violations.append(abs(s))
        elif s >= a - bound_tol:
            violations.append(max(0.0, c - mu) / scale)
        elif s <= bound_tol:
            violations.append(max(0.0, mu - c) / scale)
        else:
            violations.append(abs(c - mu) / scale)
    total_d = math.fsum(result.d)
    violations.append(abs(total_d - math.fsum(result.s)) / max(1.0, total_d))
    return max(violations)


def welfare_price_reference(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    bids: tuple[float, ...],
    avails: tuple[float, ...],
    p: float,
) -> float | None:
    """Full-information welfare price by a linear scan, or None for no trade.

    With u = x*log(y*q + 1) the inverse marginal at price mu is
    r(mu) = max(x/mu - 1/y, 0). A buyer bidding above 1e-9 demands
    min(r, b/p); a seller offering a > 0 supplies clip(g - r, 0, a). Every
    kink of those curves is visited in increasing order until supply covers
    demand. On the segment that ends there, each agent whose response is
    strictly inside its bounds contributes x/mu - 1/y (buyer) or
    x/mu - g - 1/y (seller, as negative supply) to excess demand, and every
    other agent a constant, so excess demand is A/mu + B and the price is
    A/(-B). No trade when either side is empty, when the keenest buyer's
    choke price x*y does not exceed the lowest seller marginal x*y/(y*g + 1),
    or when nothing is traded at the price.
    """
    demanders = [(b.x, b.y, bid / p) for b, bid in zip(buyers, bids) if bid > 1e-9]
    suppliers = [(s.x, s.y, s.g, a) for s, a in zip(sellers, avails) if a > 0]
    if not demanders or not suppliers:
        return None
    choke = max(x * y for x, y, _ in demanders)
    if choke <= min(x * y / (y * g + 1.0) for x, y, g, _ in suppliers):
        return None

    def demand(mu: float) -> list[float]:
        return [min(max(x / mu - 1.0 / y, 0.0), cap) for x, y, cap in demanders]

    def supply(mu: float) -> list[float]:
        return [min(max(g - max(x / mu - 1.0 / y, 0.0), 0.0), a) for x, y, g, a in suppliers]

    def excess(mu: float) -> float:
        return math.fsum(demand(mu)) - math.fsum(supply(mu))

    kinks = set()
    for x, y, cap in demanders:
        # x*y/(y*cap + 1) rounds to 0.0 once y*cap overflows; the same kink
        # written without that product is x/(cap + 1/y)
        y_cap = y * cap
        kinks.update((x / (cap + 1.0 / y) if math.isinf(y_cap) else x * y / (y_cap + 1.0), x * y))
    for x, y, g, a in suppliers:
        kinks.update((x * y / (y * g + 1.0), x * y / (y * max(g - a, 0.0) + 1.0)))
    kinks = sorted(kinks)
    first = next((k for k, m in enumerate(kinks) if excess(m) <= 0), len(kinks) - 1)
    mu = kinks[first]
    if first > 0:
        m0, m1 = kinks[first - 1], mu
        mid = 0.5 * (m0 + m1)
        slope, const = [], []
        for (x, y, cap), d in zip(demanders, demand(mid)):
            if 0.0 < d < cap:
                slope.append(x)
                const.append(-1.0 / y)
            else:
                const.append(d)
        for (x, y, g, a), s in zip(suppliers, supply(mid)):
            if 0.0 < s < min(a, g):
                slope.append(x)
                const.extend((-g, -1.0 / y))
            else:
                const.append(-s)
        intercept = math.fsum(const)
        if intercept < 0:
            mu = min(max(math.fsum(slope) / -intercept, m0), m1)
    if math.fsum(demand(mu)) <= 0 or math.fsum(supply(mu)) <= 0:
        return None
    return mu


def equilibrium_reference(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    p: float,
) -> tuple[float, list[float], list[float], list[float], list[float]] | None:
    """The auction's fixed point as a competitive equilibrium with floor p.

    Every formula is written out from x, y and g. A buyer facing
    pi = max(mu, p) demands d = max(x/pi - 1/y, 0) and bids b = pi*d. A
    seller offers a = clamp(g - (x/p - 1/y), 0, g), sells
    s = clamp(g - (x/mu - 1/y), 0, a) and asks c = min(x*y/(y*(g - s) + 1), p).

    When the demand at pi = p covers the total offer A, every seller is
    sold out and mu >= p: each bidding buyer's b = x - mu/y, so mu solves
    sum(max(x - mu/y, 0)) = mu*A. The buyers are visited by decreasing
    choke price x*y: with the first k bidding, mu = sum(x)/(A + sum(1/y)),
    and the first k for which the next choke price lies at or below that mu
    is the answer. Otherwise mu <= p solves sum(s(mu)) = demand at p, which
    plain bisection finds. Returns (mu, d, s, bids, asks), or None when
    nothing is demanded at p or nothing is offered.
    """
    avails = [min(max(s.g - (s.x / p - 1.0 / s.y), 0.0), s.g) for s in sellers]
    total_avail = math.fsum(avails)
    demand_at_p = math.fsum(max(b.x / p - 1.0 / b.y, 0.0) for b in buyers)
    if demand_at_p <= 0 or total_avail <= 0:
        return None

    def sold(mu: float) -> list[float]:
        return [
            min(max(s.g - (s.x / mu - 1.0 / s.y), 0.0), a) for s, a in zip(sellers, avails)
        ]

    if demand_at_p >= total_avail:
        order = sorted(buyers, key=lambda b: b.x * b.y, reverse=True)
        for k in range(1, len(order) + 1):
            mu = math.fsum(b.x for b in order[:k]) / (
                total_avail + math.fsum(1.0 / b.y for b in order[:k])
            )
            if k == len(order) or order[k].x * order[k].y <= mu:
                break
    else:
        lo, hi = 0.0, p
        while True:
            mu = 0.5 * (lo + hi)
            if not lo < mu < hi:
                break
            if math.fsum(sold(mu)) < demand_at_p:
                lo = mu
            else:
                hi = mu
    pi = max(mu, p)
    d = [max(b.x / pi - 1.0 / b.y, 0.0) for b in buyers]
    s = sold(mu)
    bids = [pi * q for q in d]
    asks = [min(v.x * v.y / (v.y * (v.g - q) + 1.0), p) for v, q in zip(sellers, s)]
    return mu, d, s, bids, asks


def equilibrium_gaps(outcome, reference) -> tuple[set[int], float, float, float]:
    """How far a trading auction outcome stops from equilibrium_reference.

    outcome is any object with bids, asks and a clearing holding mu, d and
    s; reference is equilibrium_reference's result for the same market.
    Returns the buyers whose bid is zero on one side only, the relative mu
    gap, the worst allocation gap |q - q_ref| / max(1, q_ref) over every d
    and s, and the worst relative ask gap.
    """
    mu, d, s, bids, asks = reference
    clearing = outcome.clearing
    zero_bids = {i for i, b in enumerate(outcome.clearing.bids) if b == 0.0}
    mismatch = zero_bids ^ {i for i, b in enumerate(bids) if b == 0.0}
    alloc = max(
        abs(q - ref) / max(1.0, ref)
        for q, ref in zip((*clearing.d, *clearing.s), (*d, *s), strict=True)
    )
    ask = max(abs(c - ref) / ref for c, ref in zip(outcome.clearing.asks, asks, strict=True))
    return mismatch, abs(clearing.mu - mu) / mu, alloc, ask


def best_welfare_by_grid(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    bids: tuple[float, ...],
    avails: tuple[float, ...],
    params: MarketParams,
    stages: int = 10,
    points: int = 21,
) -> float:
    """Welfare maximum over (s, d-split) by staged zooming grid search.

    Free coordinates: every seller's s_j in [0, a_j] and the first buyer's
    share of the traded total (the second buyer takes the rest), so markets
    up to 2x2 stay three-dimensional. Each stage zooms the grid around the
    incumbent until the local step is below 1e-3 in every coordinate.
    """
    if len(buyers) > 2 or len(sellers) > 2 or not sellers:
        raise ValueError("grid oracle only scales to 2x2 markets with supply")
    nb, ns = len(buyers), len(sellers)
    caps = [bid / params.p for bid in bids]
    if nb == 0:
        # balance forces zero trade
        return social_welfare(buyers, sellers, (), (0.0,) * ns)

    # Coordinates are the traded total T plus split fractions, never raw
    # allocations: the binding constraints (budget total, availability total)
    # are then axis endpoints instead of diagonal ridges a coordinate-box
    # zoom would cut off. Splits are clip-projected onto the feasible
    # segment, so every grid point is feasible and per-agent binding caps
    # (d_i = b_i/p, s_j = a_j) are hit exactly by whole fraction intervals.
    t_max = min(math.fsum(avails), math.fsum(caps))
    lows = [0.0] + [0.0] * (ns - 1) + [0.0] * (nb - 1)
    highs = [t_max] + [1.0] * (ns - 1) + [1.0] * (nb - 1)
    ndim = len(lows)

    bx = np.array([b.x for b in buyers])
    by = np.array([b.y for b in buyers])
    sx = np.array([s.x for s in sellers])
    sy = np.array([s.y for s in sellers])
    sg = np.array([s.g for s in sellers])

    def split(total: np.ndarray, frac: np.ndarray, cap0: float, cap1: float):
        lo = np.maximum(0.0, total - cap1)
        hi = np.minimum(cap0, total)
        first = np.clip(frac * total, lo, hi)
        return first, total - first

    def evaluate(axes: list[np.ndarray]) -> np.ndarray:
        grids = np.meshgrid(*axes, indexing="ij")
        total = grids[0]
        if ns == 1:
            s0, s1 = total, None
        else:
            s0, s1 = split(total, grids[1], avails[0], avails[1])
        if nb == 1:
            d0, d1 = total, None
        else:
            d0, d1 = split(total, grids[ns], caps[0], caps[1])
        value = sx[0] * np.log1p(sy[0] * np.clip(sg[0] - s0, 0.0, None))
        if s1 is not None:
            value = value + sx[1] * np.log1p(sy[1] * np.clip(sg[1] - s1, 0.0, None))
        value = value + bx[0] * np.log1p(by[0] * d0)
        if d1 is not None:
            value = value + bx[1] * np.log1p(by[1] * np.clip(d1, 0.0, None))
        return value

    best_val = -math.inf
    best_pt = [0.0] * ndim
    for _ in range(stages):
        axes = [np.linspace(lows[k], highs[k], points) for k in range(ndim)]
        value = evaluate(axes)
        idx = np.unravel_index(int(np.argmax(value)), value.shape)
        if float(value[idx]) > best_val:
            best_val = float(value[idx])
            best_pt = [float(axes[k][idx[k]]) for k in range(ndim)]
        done = True
        for k in range(ndim):
            step = (highs[k] - lows[k]) / (points - 1)
            scale = max(abs(highs[k]), 1.0)
            if step > 1e-3 * scale:
                done = False
            span = max(2 * step, 1e-4)
            lows[k] = max(lows[k], best_pt[k] - span)
            highs[k] = min(highs[k], best_pt[k] + span)
        if done:
            break

    def split_scalar(total: float, frac: float, cap0: float, cap1: float):
        first = min(max(frac * total, max(0.0, total - cap1)), min(cap0, total))
        return first, total - first

    # cross-check the winner against the package's welfare evaluation
    total = best_pt[0]
    svec = (total,) if ns == 1 else split_scalar(total, best_pt[1], avails[0], avails[1])
    d = (total,) if nb == 1 else split_scalar(total, best_pt[ns], caps[0], caps[1])
    assert abs(social_welfare(buyers, sellers, d, svec) - best_val) < 1e-9
    return best_val


def wide_range_market(k: int) -> tuple[list[BuyerState], list[SellerState]]:
    """Market k of a seeded stress corpus far wider than the fixture's.

    N_b and N_s are uniform on [1, 60]; buyer x and y and seller y and g are
    log-uniform on [0.05, 20], and seller x log-uniform on [0.01, 5]. So
    choke prices x*y span 0.0025 to 400 against the floor p = 0.25, and a
    seller's marginal value at full stock spans five decades.
    """
    rng = random.Random(f"wide-range market {k}")

    def log_uniform(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    nb, ns = rng.randint(1, 60), rng.randint(1, 60)
    buyers = [BuyerState(log_uniform(0.05, 20.0), log_uniform(0.05, 20.0)) for _ in range(nb)]
    sellers = [
        SellerState(log_uniform(0.01, 5.0), log_uniform(0.05, 20.0), log_uniform(0.05, 20.0))
        for _ in range(ns)
    ]
    return buyers, sellers


def dual_bound(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    bids: tuple[float, ...],
    avails: tuple[float, ...],
    p: float,
    mu: float,
) -> float:
    """The weak-duality bound L(mu) on the planner's welfare, for any mu > 0.

    Pricing the energy balance at mu splits the planner's problem into one
    concave problem per agent:

        L(mu) = sum_i max over 0 <= d <= cap_i of [x log(1 + y d) - mu d]
              + sum_j max over 0 <= s <= min(a_j, g_j) of [x log(1 + y (g - s)) + mu s]

    with cap = b/p for a buyer bidding above 1e-9 and 0 otherwise. Each max
    sits where the stationary point x/mu - 1/y, clipped to the agent's box,
    puts it: d = clip(x/mu - 1/y, 0, cap) and the retained stock
    g - s = clip(x/mu - 1/y, g - min(a, g), g). Every allocation that meets
    the balance has welfare at most L(mu) (Boyd and Vandenberghe, Convex
    Optimization, 2004, section 5.2), so L(mu) minus an outcome's welfare
    bounds its efficiency gap from above, with no price search and no
    no-trade verdict.
    """
    terms = []
    for buyer, bid in zip(buyers, bids, strict=True):
        cap = bid / p if bid > 1e-9 else 0.0
        d = min(max(buyer.x / mu - 1.0 / buyer.y, 0.0), cap)
        terms.extend((buyer.x * math.log1p(buyer.y * d), -mu * d))
    for seller, a in zip(sellers, avails, strict=True):
        g = seller.g
        kept = min(max(seller.x / mu - 1.0 / seller.y, g - min(a, g)), g)
        terms.extend((seller.x * math.log1p(seller.y * kept), mu * (g - kept)))
    return math.fsum(terms)


def welfare_value(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    d: tuple[float, ...],
    s: tuple[float, ...],
) -> float:
    """Total welfare sum(x log(1 + y d)) + sum(x log(1 + y (g - s))), by fsum."""
    return math.fsum(
        [b.x * math.log1p(b.y * q) for b, q in zip(buyers, d, strict=True)]
        + [v.x * math.log1p(v.y * max(v.g - q, 0.0)) for v, q in zip(sellers, s, strict=True)]
    )
