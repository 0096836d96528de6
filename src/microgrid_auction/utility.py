"""Logarithmic utility shared by buyers and sellers.

LogUtility defines three closed forms for x * log(y * q + 1): value,
marginal, and inverse marginal. The engine's re-quotes, the welfare
planner's responses, and the welfare and payoff sums write these expressions
out over per-agent constants instead of calling them, bit for bit the same,
so their per-agent loops make no call into a utility. The full-information
welfare solver relies on this family: its responses are x/m - 1/y clipped
to bounds, so its price has a closed form between kinks.

This module also holds the two input rules every module shares, each
written once with its message: check_nonnegative (finite and >= 0) for
quantities, bids and availabilities, and check_positive (positive and
finite) for prices, parameters, weights and tolerances. Callers check a
whole list in one call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
