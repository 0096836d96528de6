"""Market primitives: agent parameters, availability declaration, payoffs and
social welfare.

Buyers value consumed energy d through u(d) = x*log(y*d + 1) and communicate a
single scalar bid b (total money offered). Sellers value retained generation
g - s through v(g - s) = x*log(y*(g - s) + 1) and communicate a scalar ask c
(reserve price per unit). The controller never sees x or y. An agent object
holds only those private parameters; the quotes and allocations live in the
engine's state, and the truthful re-quotes b = u'(d)*d and c = v'(g - s) are
written once, in the engine's auction step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .utility import LogUtility

# Slack, scaled by max(1, g) for sellers, within which social_welfare accepts
# an allocation just outside its bounds.
_RANGE_TOL = 1e-9


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
    """One buyer's private utility parameters.

    Attributes:
        x: private utility scale (money units).
        y: private utility shape (per unit energy).
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        LogUtility(self.x, self.y)  # validates x, y

    @cached_property
    def utility(self) -> LogUtility:
        return LogUtility(self.x, self.y)


@dataclass(frozen=True)
class SellerState:
    """One seller's private utility parameters and generation.

    Attributes:
        x: private utility scale (money units).
        y: private utility shape (per unit energy).
        g: generated energy this round.
    """

    x: float
    y: float
    g: float

    def __post_init__(self) -> None:
        LogUtility(self.x, self.y)
        if not (math.isfinite(self.g) and self.g > 0):
            raise ValueError(f"generation must be positive and finite, got {self.g}")

    @cached_property
    def utility(self) -> LogUtility:
        return LogUtility(self.x, self.y)


@dataclass(frozen=True)
class Payoffs:
    """Realized payoffs for one clearing: buyers, sellers, and the controller."""

    buyer_payoffs: tuple[float, ...]
    seller_payoffs: tuple[float, ...]
    mc_revenue: float


def seller_supply(seller: SellerState, avail: float, mu: float) -> float:
    """Energy a seller parts with at price mu: clamp(g - v'^{-1}(mu), 0, avail)."""
    retained = seller.utility.inverse_marginal(mu)
    return min(max(seller.g - retained, 0.0), avail)


def declare_availability(seller: SellerState, params: MarketParams) -> float:
    """Energy a seller is willing to offer at the floor price.

    The declared amount is the largest s whose marginal retained value stays
    at or below p: a = seller_supply(seller, g, p). Declared once, before the
    first iteration, and never revised during an auction.
    """
    return seller_supply(seller, seller.g, params.p)


def compute_payoffs(
    buyers: Sequence[BuyerState],
    sellers: Sequence[SellerState],
    bids: Sequence[float],
    d: Sequence[float],
    asks: Sequence[float],
    s: Sequence[float],
) -> Payoffs:
    """Settle one clearing at the communicated scalars.

    Buyers pay their full bid: pi_i = u(d_i) - b_i. Sellers are reimbursed at
    their own ask: pi_j = v(g_j - s_j) + c_j * s_j. The controller keeps the
    difference, mc_revenue = sum(b) - sum(c * s), which is nonnegative at any
    clearing solution. Raises ValueError when a quote or allocation list is
    not as long as its agent list.
    """
    buyer_pi = tuple(
        buyer.utility.value(q) - b for buyer, b, q in zip(buyers, bids, d, strict=True)
    )
    seller_pi = tuple(
        seller.utility.value(max(seller.g - q, 0.0)) + c * q
        for seller, c, q in zip(sellers, asks, s, strict=True)
    )
    revenue = math.fsum(bids) - math.fsum(c * q for c, q in zip(asks, s))
    return Payoffs(buyer_pi, seller_pi, revenue)


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
