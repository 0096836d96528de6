"""Logarithmic utility shared by buyers and sellers, and the input rules.

Every agent values energy through x * log(y * q + 1): a buyer at consumed
energy, a seller at retained generation. This is the only module that
writes its closed forms. LogUtility holds them for one agent, and the list
rules hold each once for a whole list, one call per list and bit for bit
LogUtility's result per agent: values, x * log1p(y * q); marginals,
x * y / (y * q + 1.0), so marginal(0) is the choke price x * y; and
demands and supplies, the exact inverse marginal x/mu - 1/y clipped to a
buyer's budget cap or a seller's availability, min and max inline by
CPython's rule (see clearing.clear_market_proximal). Between two kinks
every response is linear in 1/mu, which gives the welfare planner a
closed-form price there. The engine's per-round loops, the bids in
auction_step and the targets in _requote_sellers, still write the marginal
out: fused with their floor and ceiling tests it costs less than a list
call and a second pass.

The three input rules every module shares are written once with their
messages: check_nonnegative (finite and >= 0) for quantities, bids and
availabilities, check_positive (positive and finite) for prices,
parameters, weights and tolerances, and check_count (an int >= 1) for
iteration caps, market sizes and replications. Callers check a whole list
in one call, and values and marginals leave the check of their quantities
to theirs.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .market import BuyerState, SellerState

# 0 <= v <= _FMAX holds exactly for the finite v >= 0 (-0.0 included): NaN
# fails every comparison and the infinities fall outside, so one chained
# comparison is the whole check.
_FMAX = sys.float_info.max


def check_nonnegative(name: str, *values: float) -> None:
    """Raise ValueError unless every value is finite and >= 0."""
    for v in values:
        if not 0.0 <= v <= _FMAX:
            raise ValueError(f"{name} must be finite and >= 0, got {v}")


def check_positive(name: str, *values: float) -> None:
    """Raise ValueError unless every value is positive and finite."""
    for v in values:
        if not 0.0 < v <= _FMAX:
            raise ValueError(f"{name} must be positive and finite, got {v}")


def check_count(name: str, *values: int) -> None:
    """Raise ValueError unless there is a value and every value is an int
    >= 1. A bool is an int but no count, and a float such as inf or 2.5
    passes ">= 1" but is refused too."""
    if not values:
        raise ValueError(f"{name} must not be empty")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be >= 1 and an int, got {v!r}")


def check_parameters(x: float, y: float) -> None:
    """Raise ValueError unless scale x, shape y and the choke price x*y are
    positive and finite.

    LogUtility runs it at construction, and so do the agents, which hold x
    and y and never build a utility. x*y is marginal(0), the top of every
    price an agent quotes: a product that overflows to inf or underflows to
    0.0 would reach the auction and the planner as a quote or a kink outside
    their domain.
    """
    check_positive("utility scale x", x)
    check_positive("utility shape y", y)
    if not 0.0 < x * y <= _FMAX:
        raise ValueError(
            f"choke price x*y must be positive and finite, got {x * y} (x={x}, y={y})"
        )


@dataclass(frozen=True)
class LogUtility:
    """x * log(y * q + 1): the utility family for both roles.

    Buyers evaluate it at consumed energy; sellers evaluate it at retained
    generation. marginal(0) = x * y is the choke price, and the inverse
    marginal x/m - 1/y is exact.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        check_parameters(self.x, self.y)

    def value(self, q: float) -> float:
        check_nonnegative("quantity", q)
        return self.x * math.log1p(self.y * q)

    def marginal(self, q: float) -> float:
        check_nonnegative("quantity", q)
        return self.x * self.y / (self.y * q + 1.0)

    def inverse_marginal(self, m: float) -> float:
        check_positive("marginal value", m)
        return max(self.x / m - 1.0 / self.y, 0.0)


def values(
    agents: Sequence[BuyerState | SellerState], quantities: Sequence[float]
) -> list[float]:
    """LogUtility.value of each agent at its quantity."""
    log1p = math.log1p
    return [a.x * log1p(a.y * q) for a, q in zip(agents, quantities, strict=True)]


def marginals(
    agents: Sequence[BuyerState | SellerState], quantities: Sequence[float]
) -> list[float]:
    """LogUtility.marginal of each agent at its quantity: 0.0 where y * q
    overflows."""
    return [a.x * a.y / (a.y * q + 1.0) for a, q in zip(agents, quantities, strict=True)]


def demands(constants: Sequence[tuple[float, float, float]], mu: float) -> list[float]:
    """Each buyer's demand at price mu, min(inverse_marginal(mu), b/p), from
    its constants (x, 1/y, b/p)."""
    check_positive("marginal value", mu)
    result = []
    for x, inv_y, cap in constants:
        q = x / mu - inv_y
        q = 0.0 if 0.0 > q else q
        result.append(cap if cap < q else q)
    return result


def supplies(constants: Sequence[tuple[float, float, float, float]], mu: float) -> list[float]:
    """Energy each seller parts with at price mu,
    min(max(g - inverse_marginal(mu), 0.0), a), from its constants
    (x, 1/y, g, a), a being the most it may sell."""
    check_positive("marginal value", mu)
    result = []
    for x, inv_y, g, a in constants:
        retained = x / mu - inv_y
        q = g - (0.0 if 0.0 > retained else retained)
        q = 0.0 if 0.0 > q else q
        result.append(a if a < q else q)
    return result
