"""Scenario generation and the scenario file format.

Agent parameters are drawn from uniform ranges with a documented generator
(the stdlib Mersenne Twister via random.Random, seeded directly) and a fixed
draw order: per buyer x then y, then per seller x, y, g. Any scenario is
therefore reproducible from (seed, counts, ranges) on any platform.

Scenario files are JSON: {"p": float, "buyers": [{"x", "y"}...],
"sellers": [{"x", "y", "g"}...]}, floats at 17 significant digits so a
round-trip preserves exact values. The file carries the market, not the
seed it was drawn from.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .market import BuyerState, MarketParams, SellerState
from .serialize import dumps, read_number
from .utility import check_positive


def _check_range(name: str, bounds: tuple[float, float]) -> None:
    lo, hi = bounds
    check_positive(f"{name} range", lo, hi)
    if lo > hi:
        raise ValueError(f"{name} range has lo > hi: {bounds}")


@dataclass(frozen=True)
class ParameterRanges:
    """Uniform draw bounds for agent parameters.

    Buyer and seller utility scales are separate knobs: experiments often
    need buyers keen and sellers cheap (or vice versa) to land the market in
    a particular demand regime. Every bound must be positive and finite,
    and no pair may have lo > hi.
    """

    buyer_x: tuple[float, float] = (0.5, 1.5)
    buyer_y: tuple[float, float] = (0.5, 1.5)
    seller_x: tuple[float, float] = (0.5, 1.5)
    seller_y: tuple[float, float] = (0.5, 1.5)
    gen: tuple[float, float] = (2.0, 5.0)

    def __post_init__(self) -> None:
        _check_range("buyer_x", self.buyer_x)
        _check_range("buyer_y", self.buyer_y)
        _check_range("seller_x", self.seller_x)
        _check_range("seller_y", self.seller_y)
        _check_range("gen", self.gen)

    @classmethod
    def centered(cls, width: float = 0.5) -> "ParameterRanges":
        """All utility parameters uniform in [1 - width, 1 + width]."""
        if not 0 <= width < 1:
            raise ValueError(f"width must be in [0, 1), got {width}")
        span = (1.0 - width, 1.0 + width)
        return cls(buyer_x=span, buyer_y=span, seller_x=span, seller_y=span)


@dataclass(frozen=True)
class Scenario:
    params: MarketParams
    buyers: tuple[BuyerState, ...]
    sellers: tuple[SellerState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "buyers", tuple(self.buyers))
        object.__setattr__(self, "sellers", tuple(self.sellers))


def draw_buyers(rng: random.Random, n: int, ranges: ParameterRanges) -> list[BuyerState]:
    """n buyers from rng, drawing x then y for each."""
    return [
        BuyerState(x=rng.uniform(*ranges.buyer_x), y=rng.uniform(*ranges.buyer_y))
        for _ in range(n)
    ]


def draw_sellers(rng: random.Random, n: int, ranges: ParameterRanges) -> list[SellerState]:
    """n sellers from rng, drawing x, y then g for each."""
    return [
        SellerState(
            x=rng.uniform(*ranges.seller_x),
            y=rng.uniform(*ranges.seller_y),
            g=rng.uniform(*ranges.gen),
        )
        for _ in range(n)
    ]


def generate_scenario(
    seed: int,
    n_buyers: int,
    n_sellers: int,
    ranges: ParameterRanges = ParameterRanges(),
    params: MarketParams = MarketParams(),
) -> Scenario:
    """Draw a random market; identical arguments give identical scenarios."""
    if n_buyers < 0 or n_sellers < 0:
        raise ValueError("agent counts must be >= 0")
    rng = random.Random(seed)
    buyers = draw_buyers(rng, n_buyers, ranges)
    sellers = draw_sellers(rng, n_sellers, ranges)
    return Scenario(params=params, buyers=buyers, sellers=sellers)


def scenario_to_json(scenario: Scenario) -> str:
    return dumps(
        {
            "p": scenario.params.p,
            "buyers": [{"x": b.x, "y": b.y} for b in scenario.buyers],
            "sellers": [{"x": s.x, "y": s.y, "g": s.g} for s in scenario.sellers],
        }
    )


def scenario_from_json(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid scenario JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("scenario JSON must be an object")
    try:
        params = MarketParams(p=read_number("p", raw["p"]))
        buyers = tuple(
            BuyerState(*(read_number(f"buyer {k}", b[k]) for k in ("x", "y")))
            for b in raw.get("buyers", [])
        )
        sellers = tuple(
            SellerState(*(read_number(f"seller {k}", s[k]) for k in ("x", "y", "g")))
            for s in raw.get("sellers", [])
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed scenario JSON: {exc}") from exc
    return Scenario(params=params, buyers=buyers, sellers=sellers)


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_json(fh.read())
