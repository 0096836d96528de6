"""Market clearing from communicated scalars only.

The controller maximizes sum(b_i * log d_i) - sum(c_j * s_j) subject to the
per-buyer budget p*d_i <= b_i, per-seller availability 0 <= s_j <= a_j, and
energy balance sum(d) = sum(s). Buyer demand at clearing price mu is
b_i / max(mu, p); supply is a merit-order step correspondence of the asks, so
the dual problem reduces to finding where demand meets a step function, which
this module resolves in closed form.

Two solvers live here:

* :func:`clear_market` — the exact optimum. Marginal sellers (asks tied at mu)
  share the residual per a :class:`TiePolicy`.
* :func:`clear_market_proximal` — the exact optimum of the same objective with
  a small proximal penalty pulling seller allocations toward their previous
  values. Its stationary points coincide with exact clearing; the auction
  engine iterates it because the all-or-nothing merit order is discontinuous
  in near-tied asks and damping alone cannot stabilize that. Its price search
  sorts the supply breakpoints once and bisects over them, evaluating the
  O(N_s) supply sum at about log2(2*N_s) breakpoints: O(N_s log N_s) per
  clearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

from .market import MarketParams

#: Bids at or below this are excluded from clearing and receive d = 0.
BID_FLOOR = 1e-9

#: Relative tolerance under which two asks count as one price level.
TIE_REL_TOL = 1e-12


class NumericalFailure(RuntimeError):
    """Raised when clearing cannot bracket a price on inconsistent inputs."""


@dataclass(frozen=True)
class TiePolicy:
    """How marginal sellers (asks tied at the clearing price) split residual demand.

    variant "proportional" shares in proportion to availability; "proximal"
    projects the previous allocations onto the residual budget (the closest
    feasible split in Euclidean distance), and requires ``prev`` to carry one
    previous allocation per seller.
    """

    variant: Literal["proportional", "proximal"] = "proportional"
    prev: tuple[float, ...] | None = None


PROPORTIONAL = TiePolicy("proportional")


def proximal(prev: tuple[float, ...] | list[float]) -> TiePolicy:
    """Tie policy keeping marginal allocations as close as possible to prev."""
    return TiePolicy("proximal", tuple(float(v) for v in prev))


@dataclass(frozen=True)
class ClearingResult:
    """Allocations and price from one clearing.

    mu is None when either market side is empty (no trade); allocations are
    then all zero. buyer_budget_active flags buyers whose budget cap binds
    (equivalently, mu <= p). kkt_residual is the dimensionless maximum
    violation of the optimality system, computed by :func:`kkt_residual`.
    """

    d: tuple[float, ...]
    s: tuple[float, ...]
    mu: float | None
    buyer_budget_active: tuple[bool, ...]
    kkt_residual: float

    @property
    def no_trade(self) -> bool:
        return self.mu is None


def _validate_inputs(
    bids: tuple[float, ...],
    asks: tuple[float, ...],
    avails: tuple[float, ...],
) -> None:
    if len(asks) != len(avails):
        raise ValueError(f"{len(asks)} asks vs {len(avails)} availabilities")
    for b in bids:
        if not math.isfinite(b) or b < 0:
            raise ValueError(f"bids must be finite and >= 0, got {b}")
    for c, a in zip(asks, avails):
        if not math.isfinite(a) or a < 0:
            raise ValueError(f"availabilities must be finite and >= 0, got {a}")
        if a > 0 and (not math.isfinite(c) or c <= 0):
            raise ValueError(f"asks of offering sellers must be positive, got {c}")


def _no_trade(n_buyers: int, n_sellers: int) -> ClearingResult:
    return ClearingResult(
        d=(0.0,) * n_buyers,
        s=(0.0,) * n_sellers,
        mu=None,
        buyer_budget_active=(False,) * n_buyers,
        kkt_residual=0.0,
    )


def aggregate_demand(bids: tuple[float, ...] | list[float], params: MarketParams, mu: float) -> float:
    """Total buyer demand at price mu: sum of min(b/mu, b/p)."""
    if not math.isfinite(mu) or mu <= 0:
        raise ValueError(f"price must be positive and finite, got {mu}")
    denom = max(mu, params.p)
    return math.fsum(b / denom for b in bids)


def aggregate_supply(
    asks: tuple[float, ...] | list[float],
    avails: tuple[float, ...] | list[float],
    mu: float,
) -> tuple[float, float]:
    """Merit-order supply correspondence at price mu.

    Returns (low, high): low counts availability with asks strictly below mu,
    high additionally counts asks tied at mu (within TIE_REL_TOL relative).
    """
    if not math.isfinite(mu) or mu <= 0:
        raise ValueError(f"price must be positive and finite, got {mu}")
    low = 0.0
    tied = 0.0
    for c, a in zip(asks, avails):
        if a <= 0:
            continue
        if abs(c - mu) <= TIE_REL_TOL * max(c, mu):
            tied += a
        elif c < mu:
            low += a
    return low, low + tied


def _shift_projection(
    prev: list[float], caps: list[float], total: float
) -> list[float]:
    # Euclidean projection of prev onto {sum(s) = total, 0 <= s <= caps}:
    # s_j = clip(prev_j + t, 0, cap_j) with t chosen so the sum matches.
    if total <= 0:
        return [0.0] * len(prev)
    cap_sum = math.fsum(caps)
    if total >= cap_sum:
        return list(caps)
    breakpoints = sorted({-pj for pj in prev} | {cj - pj for pj, cj in zip(prev, caps)})

    def mass(t: float) -> float:
        return math.fsum(min(max(pj + t, 0.0), cj) for pj, cj in zip(prev, caps))

    lo_t = breakpoints[0]
    for bp in breakpoints:
        if mass(bp) >= total:
            hi_t = bp
            break
        lo_t = bp
    else:  # pragma: no cover - total < cap_sum guarantees a bracket
        raise NumericalFailure("projection could not bracket the shift")
    m_lo, m_hi = mass(lo_t), mass(hi_t)
    if m_hi <= m_lo:
        t = hi_t
    else:
        t = lo_t + (total - m_lo) * (hi_t - lo_t) / (m_hi - m_lo)
    return [min(max(pj + t, 0.0), cj) for pj, cj in zip(prev, caps)]


def clear_market(
    bids: tuple[float, ...] | list[float],
    asks: tuple[float, ...] | list[float],
    avails: tuple[float, ...] | list[float],
    params: MarketParams,
    tie_policy: TiePolicy = PROPORTIONAL,
) -> ClearingResult:
    """Exact clearing: merit-order dispatch against budget-capped demand.

    Demand below the floor price is constant at sum(b)/p, so the clearing
    price is either the lowest ask level whose cumulative availability covers
    demand (that level's sellers are marginal and share the residual per
    tie_policy), the interior solution sum(b)/Q on a constant-supply stretch,
    or sum(b)/sum(a) when demand exceeds everything offered. Empty sides
    yield a well-typed no-trade result, never an exception.
    """
    bids = tuple(float(b) for b in bids)
    asks = tuple(float(c) for c in asks)
    avails = tuple(float(a) for a in avails)
    _validate_inputs(bids, asks, avails)
    p = params.p

    active_buyers = [i for i, b in enumerate(bids) if b > BID_FLOOR]
    active_sellers = [j for j, a in enumerate(avails) if a > 0]
    total_bid = math.fsum(bids[i] for i in active_buyers)
    total_avail = math.fsum(avails[j] for j in active_sellers)
    if not active_buyers or not active_sellers or total_bid <= 0 or total_avail <= 0:
        return _no_trade(len(bids), len(asks))

    # Group active sellers into price levels (ties within TIE_REL_TOL).
    order = sorted(active_sellers, key=lambda j: (asks[j], j))
    levels: list[tuple[float, list[int], float]] = []
    for j in order:
        if levels and asks[j] - levels[-1][0] <= TIE_REL_TOL * max(asks[j], levels[-1][0]):
            value, members, group_avail = levels.pop()
            members.append(j)
            levels.append((max(value, asks[j]), members, group_avail + avails[j]))
        else:
            levels.append((asks[j], [j], avails[j]))

    mu: float
    full: list[int] = []
    marginal: list[int] = []
    residual = 0.0
    cum = 0.0
    for value, members, group_avail in levels:
        demand_here = total_bid / max(value, p)
        if demand_here < cum:
            # Demand fell below cumulative supply strictly between levels:
            # supply is constant there, so mu solves total_bid/mu = cum.
            mu = total_bid / cum
            break
        if demand_here <= cum + group_avail:
            mu = value
            marginal = members
            residual = min(max(demand_here - cum, 0.0), group_avail)
            break
        full.extend(members)
        cum += group_avail
    else:
        # Demand exceeds all offered energy at every ask level.
        mu = total_bid / total_avail
        if mu < levels[-1][0] or mu < p:  # pragma: no cover - unreachable on valid input
            raise NumericalFailure("clearing price fell below the last ask level")

    s = [0.0] * len(asks)
    for j in full:
        s[j] = avails[j]
    if marginal and residual > 0:
        caps = [avails[j] for j in marginal]
        if tie_policy.variant == "proportional":
            group_avail = math.fsum(caps)
            shares = [residual * cap / group_avail for cap in caps]
        elif tie_policy.variant == "proximal":
            if tie_policy.prev is None or len(tie_policy.prev) != len(asks):
                raise ValueError("proximal tie policy needs one previous allocation per seller")
            shares = _shift_projection([tie_policy.prev[j] for j in marginal], caps, residual)
        else:  # pragma: no cover - Literal keeps this unreachable
            raise ValueError(f"unknown tie policy {tie_policy.variant!r}")
        for j, share in zip(marginal, shares):
            s[j] = share

    denom = max(mu, p)
    active_set = set(active_buyers)
    d = [bids[i] / denom if i in active_set else 0.0 for i in range(len(bids))]
    budget_active = tuple(mu <= p and bids[i] > BID_FLOOR for i in range(len(bids)))
    result = ClearingResult(
        d=tuple(d), s=tuple(s), mu=mu, buyer_budget_active=budget_active, kkt_residual=0.0
    )
    return replace(result, kkt_residual=kkt_residual(result, bids, asks, avails, params))


def clear_market_proximal(
    bids: tuple[float, ...] | list[float],
    asks: tuple[float, ...] | list[float],
    avails: tuple[float, ...] | list[float],
    params: MarketParams,
    prev_s: tuple[float, ...] | list[float],
    weights: tuple[float, ...] | list[float] | float = 0.5,
) -> ClearingResult:
    """Clearing with seller allocations regularized toward prev_s.

    Solves the clearing objective minus sum(w_j/2 * (s_j - prev_s_j)^2), whose
    seller response s_j(mu) = clip(prev_s_j + (mu - c_j)/w_j, 0, a_j) is
    continuous in the asks. The price solves demand == supply exactly: sort
    once, bisect over breakpoints, O(N_s log N_s). Supply is nondecreasing and
    demand nonincreasing in mu, so the first breakpoint in surplus brackets the
    root, which is closed-form on that segment (linear below the floor, a
    quadratic above it).
    At a stationary point (s == prev_s) interior sellers force mu == c_j, so
    fixed points satisfy the exact clearing optimality system.
    """
    bids = tuple(float(b) for b in bids)
    asks = tuple(float(c) for c in asks)
    avails = tuple(float(a) for a in avails)
    _validate_inputs(bids, asks, avails)
    p = params.p
    n_s = len(asks)
    if isinstance(weights, (int, float)):
        weights = (float(weights),) * n_s
    else:
        weights = tuple(float(w) for w in weights)
    if len(weights) != n_s or any(not math.isfinite(w) or w <= 0 for w in weights):
        raise ValueError("proximal weights must be positive, one per seller")
    if len(prev_s) != n_s:
        raise ValueError(f"{len(prev_s)} previous allocations vs {n_s} sellers")
    prev = [min(max(float(v), 0.0), avails[j]) for j, v in enumerate(prev_s)]

    active_buyers = [i for i, b in enumerate(bids) if b > BID_FLOOR]
    active_sellers = [j for j, a in enumerate(avails) if a > 0]
    total_bid = math.fsum(bids[i] for i in active_buyers)
    total_avail = math.fsum(avails[j] for j in active_sellers)
    if not active_buyers or not active_sellers or total_bid <= 0 or total_avail <= 0:
        return _no_trade(len(bids), n_s)

    rows = [(prev[j], asks[j], weights[j], avails[j]) for j in active_sellers]

    def supply(mu: float) -> float:
        return math.fsum(min(max(pj + (mu - cj) / wj, 0.0), aj) for pj, cj, wj, aj in rows)

    def demand(mu: float) -> float:
        return total_bid / max(mu, p)

    points: set[float] = {p}
    for pj, cj, wj, aj in rows:
        points.add(cj - wj * pj)
        points.add(cj + wj * (aj - pj))
    grid = sorted(points)

    def solve_segment(m0: float, m1: float, s0: float, s1: float) -> float:
        # Linear supply between breakpoints; demand constant below p.
        if m1 <= m0:
            return m0
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
    # correctly, so supply(m) >= demand(m) is monotone along the grid: bisect
    # for the first breakpoint in surplus. lo ends one past the last deficit
    # probe and hi on the first surplus probe, so the bracket's supplies are
    # already known.
    lo, hi = 0, len(grid)
    s_lo = s_hi = 0.0
    while lo < hi:
        mid = (lo + hi) // 2
        s_mid = supply(grid[mid])
        if s_mid >= demand(grid[mid]):
            hi, s_hi = mid, s_mid
        else:
            lo, s_lo = mid + 1, s_mid
    if lo == 0:
        mu = grid[0]  # already in surplus at the lowest breakpoint
    elif lo == len(grid):
        # All sellers capped: demand meets the flat total-availability line.
        mu = total_bid / total_avail
        if mu < grid[-1] and mu < p:  # pragma: no cover - inconsistent inputs
            raise NumericalFailure("regularized clearing could not bracket a price")
        mu = max(mu, grid[-1])
    else:
        mu = solve_segment(grid[lo - 1], grid[lo], s_lo, s_hi)

    s = [0.0] * n_s
    for j, (pj, cj, wj, aj) in zip(active_sellers, rows):
        s[j] = min(max(pj + (mu - cj) / wj, 0.0), aj)
    denom = max(mu, p)
    active_set = set(active_buyers)
    d = [bids[i] / denom if i in active_set else 0.0 for i in range(len(bids))]
    budget_active = tuple(mu <= p and bids[i] > BID_FLOOR for i in range(len(bids)))
    result = ClearingResult(
        d=tuple(d), s=tuple(s), mu=mu, buyer_budget_active=budget_active, kkt_residual=0.0
    )
    return replace(result, kkt_residual=kkt_residual(result, bids, asks, avails, params))


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


def kkt_residual(
    result: ClearingResult,
    bids: tuple[float, ...] | list[float],
    asks: tuple[float, ...] | list[float],
    avails: tuple[float, ...] | list[float],
    params: MarketParams,
) -> float:
    """Dimensionless maximum violation of the clearing optimality system.

    Checks primal feasibility (budgets, availability bounds, energy balance),
    stationarity (b_i/d_i = mu for uncapped buyers, = p with mu <= p for
    capped ones; asks vs mu by dispatch status), and complementary slackness.
    Price mismatches are normalized by max(mu, p), balance by max(1, total
    traded); bound violations are absolute, so a one-unit overdispatch
    contributes at least 1.
    """
    p = params.p
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
        if b <= BID_FLOOR:
            violations.append(abs(d))
            continue
        if d <= 0:
            violations.append(1.0)
            continue
        unit_price = b / d
        if result.buyer_budget_active[i]:
            violations.append(abs(unit_price - p) / scale)
            violations.append(max(0.0, mu - p) / scale)
        else:
            violations.append(abs(unit_price - mu) / scale)
    for j, (c, a) in enumerate(zip(asks, avails)):
        s = result.s[j]
        violations.append(max(0.0, -s))
        violations.append(max(0.0, s - a))
        if a <= 0:
            violations.append(abs(s))
            continue
        bound_tol = 1e-9 * max(1.0, a)
        if s >= a - bound_tol:
            violations.append(max(0.0, c - mu) / scale)
        elif s <= bound_tol:
            violations.append(max(0.0, mu - c) / scale)
        else:
            violations.append(abs(c - mu) / scale)
    total_d = math.fsum(result.d)
    total_s = math.fsum(result.s)
    violations.append(abs(total_d - total_s) / max(1.0, total_d))
    return max(violations)
