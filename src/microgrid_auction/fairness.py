"""Post-auction fair redistribution of seller dispatch.

The auction can split residual demand unevenly across sellers with near-equal
asks. This module reshuffles the seller allocations after the fact while
holding the total energy sold and the total reimbursement fixed: allocations
move to the maximum-entropy feasible split (a water-filling level K with
s_j = min(a_j, K)), and every unit is repriced at the volume-weighted average
ask. The welfare cost of doing so is reported as a fraction of the traded
welfare. Buyer allocations are never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .market import BuyerState, SellerState, social_welfare
from .utility import check_nonnegative

if TYPE_CHECKING:
    from .engine import AuctionOutcome


class InfeasibleTotal(ValueError):
    """Requested total energy exceeds the combined availability."""


@dataclass(frozen=True)
class RedistributionResult:
    """Water-filled seller allocations with a uniform per-unit price.

    K is the water level: s_r_j = min(a_j, K). kappa_F is the fraction of
    traded welfare given up for the fairer split, 0 when nothing moved.
    """

    s_r: tuple[float, ...]
    c_r: float
    K: float
    kappa_F: float


def water_fill(avails: tuple[float, ...] | list[float], total: float) -> tuple[tuple[float, ...], float]:
    """Spread total energy over sellers as evenly as their caps allow.

    Sorts availabilities ascending and peels off sellers whose cap sits below
    an even split of what remains; everyone left shares level K = remaining /
    count. The result s_j = min(a_j, K) maximizes allocation entropy among
    splits that respect the caps and sum to total. O(n log n).
    """
    avails = tuple(float(a) for a in avails)
    check_nonnegative("availabilities", *avails)
    check_nonnegative("total energy", total)
    cap_sum = math.fsum(avails)
    if total > cap_sum * (1 + 1e-9) + 1e-12:
        raise InfeasibleTotal(f"cannot place {total} energy into caps summing to {cap_sum}")
    total = min(total, cap_sum)
    n = len(avails)
    if n == 0:
        return (), 0.0

    order = sorted(range(n), key=lambda j: (avails[j], j))
    s_r = [0.0] * n
    remaining = total
    level = avails[order[-1]]
    for pos, j in enumerate(order):
        candidate = remaining / (n - pos)
        if candidate <= avails[j]:
            level = candidate
            # min and max inline, by CPython's rule (see
            # clearing.clear_market_proximal)
            for jj in order[pos:]:
                a = avails[jj]
                s_r[jj] = a if a < level else level
            break
        s_r[j] = avails[j]
        remaining -= avails[j]
        remaining = 0.0 if 0.0 > remaining else remaining
    return tuple(s_r), level


def uniform_reprice(
    asks: tuple[float, ...] | list[float], allocs: tuple[float, ...] | list[float]
) -> float:
    """Single per-unit price preserving the total reimbursement: sum(c*s)/sum(s)."""
    if len(asks) != len(allocs):
        raise ValueError(f"{len(asks)} asks vs {len(allocs)} allocations")
    volume = math.fsum(allocs)
    if volume <= 0:
        raise ValueError("cannot reprice zero traded volume")
    return math.fsum(c * s for c, s in zip(asks, allocs)) / volume


def price_of_fairness(theta_auction: float, theta_redistributed: float) -> float:
    """Relative welfare given up by redistribution: (before - after) / before."""
    if theta_auction <= 0:
        raise ValueError(f"traded welfare must be positive, got {theta_auction}")
    return (theta_auction - theta_redistributed) / theta_auction


def redistribute(
    outcome: "AuctionOutcome",
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
) -> RedistributionResult:
    """Water-fill the outcome's seller dispatch and reprice it uniformly.

    Keeps total energy and total seller reimbursement exactly as the auction
    left them; buyer allocations are unchanged, so the welfare delta comes
    only from which sellers retain their stock. Needs the agents' utilities
    to measure that delta, so it runs outside the bid-only auction loop.
    Returns the allocations unchanged (kappa_F = 0) when nothing was traded.
    """
    clearing = outcome.clearing
    if len(sellers) != len(clearing.s) or len(buyers) != len(clearing.d):
        raise ValueError("agent lists do not match the outcome's allocations")
    traded = math.fsum(clearing.s)
    if clearing.no_trade or traded <= 0:
        return RedistributionResult(s_r=clearing.s, c_r=0.0, K=0.0, kappa_F=0.0)
    s_r, level = water_fill(clearing.avails, traded)
    c_r = uniform_reprice(clearing.asks, clearing.s)
    theta_auction = social_welfare(buyers, sellers, clearing.d, clearing.s)
    theta_redistributed = social_welfare(buyers, sellers, clearing.d, s_r)
    return RedistributionResult(
        s_r=s_r,
        c_r=c_r,
        K=level,
        kappa_F=price_of_fairness(theta_auction, theta_redistributed),
    )
