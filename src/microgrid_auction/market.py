"""Market primitives: agent parameters, availability declaration, payoffs and
social welfare.

Buyers value consumed energy d through u(d) = x*log(y*d + 1) and communicate a
single scalar bid b (total money offered). Sellers value retained generation
g - s through v(g - s) = x*log(y*(g - s) + 1) and communicate a scalar ask c
(reserve price per unit). The controller never sees x or y. An agent object
holds only those private parameters; the quotes and allocations live in the
engine's state, and the truthful re-quotes b = u'(d)*d and c = v'(g - s) are
written once, in the engine's auction step.

Payoffs, social welfare and the seller supply rule evaluate LogUtility's
expressions written out over each agent's x, y and g, bit for bit the same,
so no per-agent loop here calls into a utility.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .utility import check_nonnegative, check_parameters, check_positive

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
        check_positive("price floor", self.p)


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
        check_parameters(self.x, self.y)


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
        check_parameters(self.x, self.y)
        check_positive("generation", self.g)
        # The lowest price the seller can quote, marginal(g); the asks and the
        # planner's kinks lie at or above it, so none of them reaches 0.0.
        if self.x * self.y / (self.y * self.g + 1.0) == 0.0:
            raise ValueError(
                f"lowest ask x*y/(y*g + 1) underflows to 0.0 (x={self.x}, y={self.y}, g={self.g})"
            )


@dataclass(frozen=True)
class Payoffs:
    """Realized payoffs for one clearing: buyers, sellers, and the controller."""

    buyer_payoffs: tuple[float, ...]
    seller_payoffs: tuple[float, ...]
    mc_revenue: float


def seller_supplies(
    constants: Sequence[tuple[float, float, float, float]], mu: float
) -> list[float]:
    """Energy each seller parts with at price mu: clip(g - v'^{-1}(mu), 0, a).

    constants holds (x, 1/y, g, a) per seller, a being the most it may
    sell. v'^{-1}(mu) is LogUtility.inverse_marginal written out,
    max(x/mu - 1/y, 0), with its check on mu; min and max are inline by
    CPython's rule (see clearing.clear_market_proximal), so each result is
    bit for bit min(max(g - inverse_marginal(mu), 0.0), a).
    """
    check_positive("marginal value", mu)
    supplies = []
    for x, inv_y, g, a in constants:
        retained = x / mu - inv_y
        q = g - (0.0 if 0.0 > retained else retained)
        q = 0.0 if 0.0 > q else q
        supplies.append(a if a < q else q)
    return supplies


def declare_availability(seller: SellerState, params: MarketParams) -> float:
    """Energy a seller is willing to offer at the floor price.

    The declared amount is the largest s whose marginal retained value stays
    at or below p: the seller's supply at p with all of g on offer. Declared
    once, before the first iteration, and never revised during an auction.
    """
    g = seller.g
    return seller_supplies(((seller.x, 1.0 / seller.y, g, g),), params.p)[0]


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
    not as long as its agent list, and, with LogUtility.value's check and
    message, when a buyer's allocation or a seller's retained stock
    max(g - s, 0) is not finite and >= 0: one check per list, not per agent.
    """
    log1p = math.log1p
    check_nonnegative("quantity", *d)
    buyer_pi = [
        buyer.x * log1p(buyer.y * q) - b for buyer, b, q in zip(buyers, bids, d, strict=True)
    ]
    # max(g - q, 0.0) inline, by CPython's rule
    retained = [
        0.0 if 0.0 > (r := seller.g - q) else r for seller, q in zip(sellers, s, strict=True)
    ]
    check_nonnegative("quantity", *retained)
    seller_pi = [
        seller.x * log1p(seller.y * r) + c * q
        for seller, c, q, r in zip(sellers, asks, s, retained, strict=True)
    ]
    revenue = math.fsum(bids) - math.fsum([c * q for c, q in zip(asks, s)])
    return Payoffs(tuple(buyer_pi), tuple(seller_pi), revenue)


def social_welfare(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    d: tuple[float, ...] | list[float],
    s: tuple[float, ...] | list[float],
) -> float:
    """Total welfare sum(u_i(d_i)) + sum(v_j(g_j - s_j)) of an allocation.

    The range tests admit only finite allocations, so every clipped quantity
    is finite and >= 0, which is all LogUtility.value would check.
    """
    if len(d) != len(buyers):
        raise ValueError(f"{len(d)} allocations vs {len(buyers)} buyers")
    if len(s) != len(sellers):
        raise ValueError(f"{len(s)} allocations vs {len(sellers)} sellers")
    inf, log1p = math.inf, math.log1p
    total = 0.0
    # min and max inline, by CPython's rule. A chained comparison against
    # inf is false for NaN and the infinities, so it is the finite test too;
    # g + slack may round up to inf, so a seller's upper bound stays apart.
    for buyer, di in zip(buyers, d):
        if not -_RANGE_TOL <= di < inf:
            raise ValueError(f"buyer allocation out of range: {di}")
        total += buyer.x * log1p(buyer.y * (0.0 if 0.0 > di else di))
    for seller, sj in zip(sellers, s):
        g = seller.g
        slack = _RANGE_TOL * (g if g > 1.0 else 1.0)
        if sj > g + slack or not -slack <= sj < inf:
            raise ValueError(f"seller allocation out of range: {sj} (g={g})")
        retained = g - sj
        retained = 0.0 if 0.0 > retained else retained
        total += seller.x * log1p(seller.y * (g if g < retained else retained))
    return total
