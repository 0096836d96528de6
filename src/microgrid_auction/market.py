"""Market primitives: agent parameters, payoffs and social welfare.

Buyers value consumed energy d through u(d) = x*log(y*d + 1) and communicate a
single scalar bid b (total money offered). Sellers value retained generation
g - s through v(g - s) = x*log(y*(g - s) + 1) and communicate a scalar ask c
(reserve price per unit). The controller never sees x or y. An agent object
holds only those private parameters; the quotes and allocations live in the
engine's state. The truthful quotes b = u'(d)*d and c = min(v'(g - s), p)
are the engine's: its opening asks call utility.marginals, and each round
writes the marginal out in auction_step's two bid comprehensions and in
_requote_sellers (see utility.py for why).

A seller's lowest-ask check, payoffs and social welfare evaluate the
utilities through the list rules of utility.py, one call per list.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .utility import check_nonnegative, check_parameters, check_positive, marginals, values

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
        if marginals((self,), (self.g,))[0] == 0.0:
            raise ValueError(
                f"lowest ask x*y/(y*g + 1) underflows to 0.0 (x={self.x}, y={self.y}, g={self.g})"
            )


@dataclass(frozen=True)
class Payoffs:
    """Realized payoffs for one clearing: buyers, sellers, and the controller."""

    buyer_payoffs: tuple[float, ...]
    seller_payoffs: tuple[float, ...]
    mc_revenue: float


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
    check_nonnegative("quantity", *d)
    buyer_pi = [u - b for u, b in zip(values(buyers, d), bids, strict=True)]
    # max(g - q, 0.0) inline, by CPython's rule
    retained = [
        0.0 if 0.0 > (r := seller.g - q) else r for seller, q in zip(sellers, s, strict=True)
    ]
    check_nonnegative("quantity", *retained)
    seller_pi = [
        v + c * q for v, c, q in zip(values(sellers, retained), asks, s, strict=True)
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
    is finite and >= 0, which is all utility.values leaves to its caller.
    """
    if len(d) != len(buyers):
        raise ValueError(f"{len(d)} allocations vs {len(buyers)} buyers")
    if len(s) != len(sellers):
        raise ValueError(f"{len(s)} allocations vs {len(sellers)} sellers")
    inf = math.inf
    # min and max inline, by CPython's rule. A chained comparison against
    # inf is false for NaN and the infinities, so it is the finite test too;
    # g + slack may round up to inf, so a seller's upper bound stays apart.
    quantities = []
    for di in d:
        if not -_RANGE_TOL <= di < inf:
            raise ValueError(f"buyer allocation out of range: {di}")
        quantities.append(0.0 if 0.0 > di else di)
    for seller, sj in zip(sellers, s):
        g = seller.g
        slack = _RANGE_TOL * (g if g > 1.0 else 1.0)
        if sj > g + slack or not -slack <= sj < inf:
            raise ValueError(f"seller allocation out of range: {sj} (g={g})")
        retained = g - sj
        retained = 0.0 if 0.0 > retained else retained
        quantities.append(g if g < retained else retained)
    total = 0.0
    for v in values([*buyers, *sellers], quantities):
        total += v
    return total
