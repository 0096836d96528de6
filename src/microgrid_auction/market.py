"""Market primitives: agent states, availability declaration, payoffs.

Buyers value consumed energy d through u(d) = x*log(y*d + 1) and communicate a
single scalar bid b (total money offered). Sellers value retained generation
g - s through v(g - s) = x*log(y*(g - s) + 1) and communicate a scalar ask c
(reserve price per unit). The controller never sees x or y. The truthful
re-quotes b = u'(d)*d and c = v'(g - s) are written once, in the engine's
auction step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .utility import LogUtility

#: Relative slack used when validating allocations against declared limits.
ALLOC_TOL = 1e-9


@dataclass(frozen=True)
class MarketParams:
    """Market-wide constants.

    Attributes:
        p: price floor for buyers and price ceiling for asks, in money per
           unit energy. Buyers cannot pay less than p per unit; sellers cannot
           ask more.
    """

    p: float = 0.25

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p > 0):
            raise ValueError(f"price floor must be positive and finite, got {self.p}")


@dataclass(frozen=True)
class BuyerState:
    """One buyer: private utility parameters plus communicated/allocated state.

    Attributes:
        x: private utility scale (money units).
        y: private utility shape (per unit energy).
        b: current communicated bid, total money offered.
        d: current allocated energy.
    """

    x: float
    y: float
    b: float = 0.0
    d: float = 0.0

    def __post_init__(self) -> None:
        LogUtility(self.x, self.y)  # validates x, y
        if self.b < 0 or not math.isfinite(self.b):
            raise ValueError(f"bid must be finite and >= 0, got {self.b}")
        if self.d < 0 or not math.isfinite(self.d):
            raise ValueError(f"allocation must be finite and >= 0, got {self.d}")

    @cached_property
    def utility(self) -> LogUtility:
        return LogUtility(self.x, self.y)


@dataclass(frozen=True)
class SellerState:
    """One seller: private utility parameters plus communicated/allocated state.

    Attributes:
        x: private utility scale (money units).
        y: private utility shape (per unit energy).
        g: generated energy this round.
        a: declared availability, fixed at auction start; 0 marks an inert
           seller that never enters clearing.
        c: current communicated ask, money per unit energy.
        s: current allocated (sold) energy.
    """

    x: float
    y: float
    g: float
    a: float = 0.0
    c: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        LogUtility(self.x, self.y)
        if not (math.isfinite(self.g) and self.g > 0):
            raise ValueError(f"generation must be positive and finite, got {self.g}")
        if not (0.0 <= self.a <= self.g * (1.0 + ALLOC_TOL)):
            raise ValueError(f"availability must lie in [0, g], got {self.a}")
        if self.c < 0 or not math.isfinite(self.c):
            raise ValueError(f"ask must be finite and >= 0, got {self.c}")
        if not (0.0 <= self.s <= self.a * (1.0 + ALLOC_TOL) + ALLOC_TOL):
            raise ValueError(f"sold energy must lie in [0, a], got {self.s}")

    @cached_property
    def utility(self) -> LogUtility:
        return LogUtility(self.x, self.y)


@dataclass(frozen=True)
class Payoffs:
    """Realized payoffs for one clearing: buyers, sellers, and the controller."""

    buyer_payoffs: tuple[float, ...]
    seller_payoffs: tuple[float, ...]
    mc_revenue: float


def declare_availability(seller: SellerState, params: MarketParams) -> float:
    """Energy a seller is willing to offer at the floor price.

    The declared amount is the largest s whose marginal retained value stays
    at or below p: a = clamp(g - v'^{-1}(p), 0, g). Declared once, before the
    first iteration, and never revised during an auction.
    """
    retained = seller.utility.inverse_marginal(params.p)
    return min(max(seller.g - retained, 0.0), seller.g)


def compute_payoffs(
    buyers: Sequence[BuyerState],
    sellers: Sequence[SellerState],
    params: MarketParams,
    *,
    bids: Sequence[float] | None = None,
    d: Sequence[float] | None = None,
    asks: Sequence[float] | None = None,
    s: Sequence[float] | None = None,
) -> Payoffs:
    """Settle one clearing at the communicated scalars.

    Buyers pay their full bid: pi_i = u(d_i) - b_i. Sellers are reimbursed at
    their own ask: pi_j = v(g_j - s_j) + c_j * s_j. The controller keeps the
    difference, mc_revenue = sum(b) - sum(c * s), which is nonnegative at any
    clearing solution. bids, d, asks and s default to the agents' own b, d, c
    and s fields; the engine passes its final quotes and clearing instead of
    rebuilding every agent.
    """
    del params  # payoffs depend only on communicated scalars and allocations
    bids = [buyer.b for buyer in buyers] if bids is None else bids
    d = [buyer.d for buyer in buyers] if d is None else d
    asks = [seller.c for seller in sellers] if asks is None else asks
    s = [seller.s for seller in sellers] if s is None else s
    buyer_pi = tuple(
        buyer.utility.value(q) - b for buyer, b, q in zip(buyers, bids, d)
    )
    seller_pi = tuple(
        seller.utility.value(max(seller.g - q, 0.0)) + c * q
        for seller, c, q in zip(sellers, asks, s)
    )
    revenue = math.fsum(bids) - math.fsum(c * q for c, q in zip(asks, s))
    return Payoffs(buyer_pi, seller_pi, revenue)
