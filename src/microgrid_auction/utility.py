"""Logarithmic utility shared by buyers and sellers.

LogUtility defines three closed forms for x * log(y * q + 1): value,
marginal, and inverse marginal. The engine's re-quotes, the welfare
planner's responses, and the welfare and payoff sums write these expressions
out over per-agent constants instead of calling them, bit for bit the same,
so their per-agent loops make no call into a utility. The full-information
welfare solver relies on this family: its responses are x/m - 1/y clipped
to bounds, so its price has a closed form between kinks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# 0 <= q <= _FMAX holds exactly for the finite q >= 0 (-0.0 included): NaN
# fails every comparison and +inf exceeds the largest finite float.
_FMAX = sys.float_info.max


def check_parameters(x: float, y: float) -> None:
    """Raise ValueError unless scale x, shape y and the choke price x*y are
    positive and finite.

    LogUtility runs it at construction, and so do the agents, which hold x
    and y and never build a utility. x*y is marginal(0), the top of every
    price an agent quotes: a product that overflows to inf or underflows to
    0.0 would reach the auction and the planner as a quote or a kink outside
    their domain.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"utility scale x must be positive and finite, got {x}")
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"utility shape y must be positive and finite, got {y}")
    if not 0.0 < x * y <= _FMAX:
        raise ValueError(
            f"choke price x*y must be positive and finite, got {x * y} (x={x}, y={y})"
        )


def check_quantity(q: float) -> None:
    """Raise ValueError unless quantity q is finite and >= 0.

    value and marginal run it on q, and so do the loops that write those
    expressions out.
    """
    if not 0.0 <= q <= _FMAX:
        raise ValueError(f"quantity must be finite and >= 0, got {q}")


def check_price(m: float) -> None:
    """Raise ValueError unless marginal value m is positive and finite.

    inverse_marginal runs it on m, and so do the supply and demand loops
    that write it out, once per price.
    """
    if not 0.0 < m <= _FMAX:
        raise ValueError(f"marginal value must be positive and finite, got {m}")


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
        check_quantity(q)
        return self.x * math.log1p(self.y * q)

    def marginal(self, q: float) -> float:
        check_quantity(q)
        return self.x * self.y / (self.y * q + 1.0)

    def inverse_marginal(self, m: float) -> float:
        check_price(m)
        return max(self.x / m - 1.0 / self.y, 0.0)
