"""Logarithmic utility shared by buyers and sellers.

The engine only ever talks to a utility through three callables: value,
marginal, and inverse marginal, all closed-form for x * log(y * q + 1). The
full-information welfare solver relies on this family: its responses are
x/m - 1/y clipped to bounds, so its price has a closed form between kinks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# 0 <= q <= _FMAX holds exactly for the finite q >= 0 (-0.0 included): NaN
# fails every comparison and +inf exceeds the largest finite float.
_FMAX = sys.float_info.max


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
        if not (math.isfinite(self.x) and self.x > 0):
            raise ValueError(f"utility scale x must be positive and finite, got {self.x}")
        if not (math.isfinite(self.y) and self.y > 0):
            raise ValueError(f"utility shape y must be positive and finite, got {self.y}")

    def value(self, q: float) -> float:
        if not 0.0 <= q <= _FMAX:
            raise ValueError(f"quantity must be finite and >= 0, got {q}")
        return self.x * math.log1p(self.y * q)

    def marginal(self, q: float) -> float:
        if not 0.0 <= q <= _FMAX:
            raise ValueError(f"quantity must be finite and >= 0, got {q}")
        return self.x * self.y / (self.y * q + 1.0)

    def inverse_marginal(self, m: float) -> float:
        if not 0.0 < m <= _FMAX:
            raise ValueError(f"marginal value must be positive and finite, got {m}")
        return max(self.x / m - 1.0 / self.y, 0.0)
