"""Seeded simulation studies over the auction engine.

Four runners, each reproducible bit-for-bit from its config:

- exp_payoff_sweep: mean buyer and seller payoffs across market sizes, with
  rank-correlation trend statistics per seller count.
- exp_case_study: two small markets (one supply-rich, one demand-rich)
  reported agent by agent, before and after fair redistribution.
- exp_welfare_fairness: welfare under no trade, trade, and trade plus
  redistribution, with the price of fairness per cell.
- exp_efficiency: per-iteration gap between the auction's welfare and the
  full-information benchmark, for four market sizes.

A config holds only the experiment: its seed, its market sizes and one
ParameterRanges, `ranges`, for its buyers and sellers, all listed in its
report's config block. Every auction runs at MarketParams() and the
AuctionConfig defaults, so a report reproduces from its config alone.
Configs refuse market sizes and replications that are not ints >= 1, or
empty lists of them, naming the field. Every runner checks balance, bound
and revenue invariants on each outcome before emitting a row, so a
violating run is never serialized.
Randomness comes from a fixed splitmix64-based seed mixer so reports are
identical across platforms and processes.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from .engine import AuctionConfig, AuctionOutcome, run_auction
from .fairness import redistribute
from .market import BuyerState, MarketParams, SellerState, social_welfare
from .scenario import ParameterRanges, draw_buyers, draw_sellers
from .serialize import dumps, to_csv
from .utility import check_count, values
from .welfare import efficiency_gap, solve_welfare

_MASK = (1 << 64) - 1

# Salts keeping the independent random streams of one study disjoint.
_SALT_SELLERS = 0x5E11
_SALT_BUYERS = 0xB0B
_SALT_CASE = 0xCA5E
_SALT_CELLS = 0xFA1

_REVENUE_TOL = 1e-9
_BALANCE_TOL = 1e-8
_BOUND_TOL = 1e-9
_IR_TOL = 1e-6


def splitmix64(x: int) -> int:
    """One splitmix64 output step; the portable core of the seed mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix_seed(*parts: int) -> int:
    """Fold integers into one 64-bit stream seed, order-sensitive."""
    acc = 0x243F6A8885A308D3
    for part in parts:
        acc = splitmix64(acc ^ (part & _MASK))
    return acc


def spearman_rho(xs: list[float] | tuple[float, ...], ys: list[float] | tuple[float, ...]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")

    def ranks(values: list[float] | tuple[float, ...]) -> list[float]:
        order = sorted(range(n), key=lambda i: values[i])
        out = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            # 1-based average rank over the tied block
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx = ranks(xs)
    ry = ranks(ys)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        raise ValueError("constant ranks have no correlation")
    return cov / math.sqrt(vx * vy)


def verify_outcome(
    outcome: AuctionOutcome,
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
) -> None:
    """Refuse an outcome that breaks a structural guarantee.

    Balance, allocation bounds, and nonnegative controller revenue must hold
    for every outcome; the participation guarantees (buyer and seller payoffs
    at least their walk-away values) only bind once the quotes have settled,
    so they are checked on converged outcomes only. Raises RuntimeError so a
    violating run can never be serialized into a report.
    """
    clearing = outcome.clearing
    total_d = math.fsum(clearing.d)
    total_s = math.fsum(clearing.s)
    if abs(total_d - total_s) > _BALANCE_TOL * max(1.0, total_d):
        raise RuntimeError(f"balance violated: sum d {total_d} vs sum s {total_s}")
    # max(1.0, v) inline, by CPython's rule (see clearing.clear_market_proximal)
    for j, (sj, aj) in enumerate(zip(clearing.s, clearing.avails)):
        if sj < -_BOUND_TOL or sj > aj + _BOUND_TOL * (aj if aj > 1.0 else 1.0):
            raise RuntimeError(f"seller {j} allocation {sj} outside [0, {aj}]")
    for i, (di, bi) in enumerate(zip(clearing.d, clearing.bids)):
        if di < -_BOUND_TOL:
            raise RuntimeError(f"buyer {i} allocation {di} negative")
        if clearing.params.p * di > bi + _BOUND_TOL * (bi if bi > 1.0 else 1.0):
            raise RuntimeError(f"buyer {i} allocation {di} breaks budget {bi}")
    if outcome.payoffs.mc_revenue < -_REVENUE_TOL:
        raise RuntimeError(f"controller revenue negative: {outcome.payoffs.mc_revenue}")
    if not outcome.converged:
        return
    for i, pi in enumerate(outcome.payoffs.buyer_payoffs):
        if pi < -_IR_TOL:
            raise RuntimeError(f"buyer {i} worse off than walking away: {pi}")
    # A seller walks away with v(g); SellerState has checked that g is
    # finite and > 0.
    walk_away = values(sellers, [seller.g for seller in sellers])
    for j, (v, pj) in enumerate(zip(walk_away, outcome.payoffs.seller_payoffs)):
        if pj < v - _IR_TOL:
            raise RuntimeError(f"seller {j} worse off than walking away: {pj}")


def _run_verified(
    buyers: list[BuyerState] | tuple[BuyerState, ...],
    sellers: list[SellerState] | tuple[SellerState, ...],
    trace: bool = False,
) -> AuctionOutcome:
    """Run one study auction at MarketParams() and the AuctionConfig
    defaults, traced when asked, and refuse it by verify_outcome."""
    outcome = run_auction(buyers, sellers, MarketParams(), AuctionConfig(record_trace=trace))
    verify_outcome(outcome, buyers, sellers)
    return outcome


@dataclass(frozen=True)
class ExperimentReport:
    """Uniform result container: tidy records plus summary aggregates."""

    name: str
    config: dict[str, Any]
    records: tuple[dict[str, Any], ...]
    aggregates: dict[str, Any]

    def to_json(self) -> str:
        return dumps(
            {
                "name": self.name,
                "config": self.config,
                "records": list(self.records),
                "aggregates": self.aggregates,
            }
        )

    def to_csv(self) -> str:
        """Records only, one row per record; aggregates live in the JSON form."""
        if not self.records:
            return ""
        header = list(self.records[0].keys())
        rows = [[rec[key] for key in header] for rec in self.records]
        return to_csv(header, rows)


@dataclass(frozen=True)
class PayoffSweepConfig:
    """Payoff-vs-market-size sweep.

    Buyer draws are shared across seller counts and buyer counts reuse
    prefixes of one pool per replication, so cells differ only in the
    population actually present. The windows in ranges keep every buyer's
    marginal value at zero above the floor price and place the
    supply-saturation crossover mid-sweep, where the trend statistics are
    informative.
    """

    seed: int = 42
    seller_counts: tuple[int, ...] = (10, 15)
    buyer_counts: tuple[int, ...] = tuple(range(5, 51, 5))
    replications: int = 100
    ranges: ParameterRanges = field(
        default_factory=lambda: ParameterRanges(
            buyer_x=(0.35, 0.55), buyer_y=(1.2, 1.6), seller_x=(0.3, 0.7), seller_y=(1.2, 1.8)
        )
    )

    def __post_init__(self) -> None:
        check_count("seller_counts", *self.seller_counts)
        check_count("buyer_counts", *self.buyer_counts)
        check_count("replications", self.replications)
        # A repeated count would report its cell twice, and the trend ranks
        # the buyer counts, which takes two of them.
        for name in ("seller_counts", "buyer_counts"):
            counts = getattr(self, name)
            if len(set(counts)) < len(counts):
                raise ValueError(f"{name} must not repeat a count, got {counts!r}")
        if len(self.buyer_counts) < 2:
            raise ValueError(
                f"buyer_counts must hold at least two counts, got {self.buyer_counts!r}"
            )


def exp_payoff_sweep(config: PayoffSweepConfig | None = None) -> ExperimentReport:
    """Mean payoffs per (seller count, buyer count) cell, plus trends.

    Raises ValueError when no run of a cell converges: its means are undefined.
    """
    cfg = config or PayoffSweepConfig()
    nb_max = max(cfg.buyer_counts)
    sums: dict[tuple[int, int], list[float]] = {}
    unconverged = 0
    for ns in cfg.seller_counts:
        for rep in range(cfg.replications):
            seller_rng = random.Random(mix_seed(cfg.seed, _SALT_SELLERS, ns, rep))
            sellers = draw_sellers(seller_rng, ns, cfg.ranges)
            buyer_rng = random.Random(mix_seed(cfg.seed, _SALT_BUYERS, rep))
            buyer_pool = draw_buyers(buyer_rng, nb_max, cfg.ranges)
            for nb in cfg.buyer_counts:
                buyers = buyer_pool[:nb]
                outcome = _run_verified(buyers, sellers)
                if not outcome.converged:
                    unconverged += 1
                    continue
                acc = sums.setdefault((ns, nb), [0.0, 0.0, 0.0])
                acc[0] += math.fsum(outcome.payoffs.buyer_payoffs) / nb
                acc[1] += math.fsum(outcome.payoffs.seller_payoffs) / ns
                acc[2] += 1

    records = []
    trend = []
    for ns in cfg.seller_counts:
        cells_x: list[float] = []
        cells_buyer: list[float] = []
        cells_seller: list[float] = []
        for nb in cfg.buyer_counts:
            if (ns, nb) not in sums:
                raise ValueError(
                    f"no run converged in cell (n_sellers={ns}, n_buyers={nb}): "
                    f"{cfg.replications} of {cfg.replications} runs unconverged"
                )
            buyer_sum, seller_sum, count = sums[(ns, nb)]
            records.append(
                {
                    "n_sellers": ns,
                    "n_buyers": nb,
                    "converged_runs": int(count),
                    "mean_buyer_payoff": buyer_sum / count,
                    "mean_seller_payoff": seller_sum / count,
                }
            )
            cells_x.append(float(nb))
            cells_buyer.append(buyer_sum / count)
            cells_seller.append(seller_sum / count)
        trend.append(
            {
                "n_sellers": ns,
                "rho_seller": spearman_rho(cells_x, cells_seller),
                "rho_buyer": spearman_rho(cells_x, cells_buyer),
            }
        )
    aggregates = {"trend": trend, "unconverged_runs": unconverged}
    return ExperimentReport("payoff-sweep", asdict(cfg), tuple(records), aggregates)


@dataclass(frozen=True)
class CaseStudyConfig:
    """Two markets sharing one seller draw: 5 buyers, then 10.

    With wide buyer budgets and cheap sellers in ranges, the small market
    leaves slack supply (every served buyer pays the floor price) and the
    large one saturates every seller, so the pair brackets both clearing
    regimes.
    """

    seed: int = 2024
    n_sellers: int = 5
    buyer_counts: tuple[int, ...] = (5, 10)
    ranges: ParameterRanges = field(
        default_factory=lambda: ParameterRanges(buyer_x=(0.5, 1.2), seller_x=(0.1, 0.4))
    )

    def __post_init__(self) -> None:
        check_count("n_sellers", self.n_sellers)
        check_count("buyer_counts", *self.buyer_counts)


def exp_case_study(config: CaseStudyConfig | None = None) -> ExperimentReport:
    """Per-agent quotes, allocations, and prices, before and after fairness."""
    cfg = config or CaseStudyConfig()
    seller_rng = random.Random(mix_seed(cfg.seed, _SALT_CASE, 1))
    sellers = draw_sellers(seller_rng, cfg.n_sellers, cfg.ranges)
    buyer_rng = random.Random(mix_seed(cfg.seed, _SALT_CASE, 2))
    buyer_pool = draw_buyers(buyer_rng, max(cfg.buyer_counts), cfg.ranges)

    records: list[dict[str, Any]] = []
    summaries = []
    for case_idx, nb in enumerate(cfg.buyer_counts, start=1):
        buyers = buyer_pool[:nb]
        outcome = _run_verified(buyers, sellers)
        red = redistribute(outcome, buyers, sellers)
        prices = outcome.unit_prices
        clearing = outcome.clearing
        for i, buyer in enumerate(buyers):
            records.append(
                {
                    "case": case_idx,
                    "agent_kind": "buyer",
                    "agent_id": i,
                    "x": buyer.x,
                    "y": buyer.y,
                    "gen": None,
                    "avail": None,
                    "quote": clearing.bids[i],
                    "alloc": clearing.d[i],
                    "unit_price": prices[i],
                    "alloc_redistributed": clearing.d[i],
                    "price_redistributed": prices[i],
                }
            )
        for j, seller in enumerate(sellers):
            records.append(
                {
                    "case": case_idx,
                    "agent_kind": "seller",
                    "agent_id": j,
                    "x": seller.x,
                    "y": seller.y,
                    "gen": seller.g,
                    "avail": clearing.avails[j],
                    "quote": clearing.asks[j],
                    "alloc": clearing.s[j],
                    "unit_price": clearing.asks[j] if clearing.s[j] > 0 else None,
                    "alloc_redistributed": red.s_r[j],
                    "price_redistributed": red.c_r if red.s_r[j] > 0 else None,
                }
            )
        summaries.append(
            {
                "case": case_idx,
                "n_buyers": nb,
                "n_sellers": cfg.n_sellers,
                "converged": outcome.converged,
                "iterations": outcome.iterations,
                "mu": clearing.mu,
                "water_level": red.K,
                "uniform_price": red.c_r,
                "kappa_F": red.kappa_F,
            }
        )
    return ExperimentReport("case-study", asdict(cfg), tuple(records), {"cases": summaries})


@dataclass(frozen=True)
class WelfareFairnessConfig:
    """Welfare comparison cells: 50 sellers against a rising buyer count.

    The low buyer counts leave sellers partially dispatched (redistribution
    moves energy and costs welfare); from 50 buyers up every seller sells
    its full availability and redistribution is a no-op.
    """

    seed: int = 77
    n_sellers: int = 50
    buyer_counts: tuple[int, ...] = (20, 30, 50, 60, 100)
    ranges: ParameterRanges = field(
        default_factory=lambda: ParameterRanges(buyer_x=(0.9, 1.6), seller_x=(0.1, 0.4))
    )

    def __post_init__(self) -> None:
        check_count("n_sellers", self.n_sellers)
        check_count("buyer_counts", *self.buyer_counts)


def exp_welfare_fairness(config: WelfareFairnessConfig | None = None) -> ExperimentReport:
    """Welfare with no trade, with trade, and after redistribution, per cell."""
    cfg = config or WelfareFairnessConfig()
    # Every cell faces the same sellers.
    seller_rng = random.Random(mix_seed(cfg.seed, _SALT_CELLS, cfg.n_sellers))
    sellers = draw_sellers(seller_rng, cfg.n_sellers, cfg.ranges)
    records = []
    for nb in cfg.buyer_counts:
        buyer_rng = random.Random(mix_seed(cfg.seed, _SALT_CELLS, 999, nb))
        buyers = draw_buyers(buyer_rng, nb, cfg.ranges)
        outcome = _run_verified(buyers, sellers)
        red = redistribute(outcome, buyers, sellers)
        clearing = outcome.clearing
        theta_no_trade = social_welfare(buyers, sellers, (0.0,) * nb, (0.0,) * cfg.n_sellers)
        theta_trade = social_welfare(buyers, sellers, clearing.d, clearing.s)
        theta_redist = social_welfare(buyers, sellers, clearing.d, red.s_r)
        saturated = all(
            abs(s - a) <= _BOUND_TOL * (a if a > 1.0 else 1.0)
            for s, a in zip(clearing.s, clearing.avails)
        )
        records.append(
            {
                "n_sellers": cfg.n_sellers,
                "n_buyers": nb,
                "converged": outcome.converged,
                "iterations": outcome.iterations,
                "mu": clearing.mu,
                "all_saturated": saturated,
                "theta_no_trade": theta_no_trade,
                "theta_trade": theta_trade,
                "theta_redistributed": theta_redist,
                "kappa_F": red.kappa_F,
            }
        )
    return ExperimentReport("welfare-fairness", asdict(cfg), tuple(records), {})


@dataclass(frozen=True)
class EfficiencyConfig:
    """Welfare-gap trajectories for four market sizes, each market drawn
    from ranges with keen buyers and cheap sellers."""

    seed: int = 88
    sizes: tuple[tuple[int, int], ...] = ((5, 5), (5, 10), (25, 50), (50, 100))
    ranges: ParameterRanges = field(
        default_factory=lambda: ParameterRanges(buyer_x=(0.9, 1.6), seller_x=(0.1, 0.4))
    )

    def __post_init__(self) -> None:
        if any(len(size) != 2 for size in self.sizes):
            raise ValueError(f"sizes must hold (n_sellers, n_buyers) pairs, got {self.sizes!r}")
        check_count("sizes", *(n for size in self.sizes for n in size))


def exp_efficiency(config: EfficiencyConfig | None = None) -> ExperimentReport:
    """Gap to the full-information benchmark at every iteration.

    The benchmark is re-solved at each iteration's bids because the budget
    caps it honors move with the bids; availabilities are fixed for the whole
    run, so the final gap measures how much welfare the bid dynamics leave
    on the table.
    """
    cfg = config or EfficiencyConfig()
    records = []
    finals = []
    for ns, nb in cfg.sizes:
        rng = random.Random(mix_seed(cfg.seed, ns, nb))
        buyers = draw_buyers(rng, nb, cfg.ranges)
        sellers = draw_sellers(rng, ns, cfg.ranges)
        outcome = _run_verified(buyers, sellers, trace=True)
        final_gap = None
        for rec in outcome.trace:
            benchmark = solve_welfare(
                buyers, sellers, rec.clearing.bids, rec.clearing.avails, rec.clearing.params
            )
            gap = efficiency_gap(rec.theta, benchmark.theta)
            records.append(
                {
                    "n_sellers": ns,
                    "n_buyers": nb,
                    "iteration": rec.iteration,
                    "gap_percent": gap,
                }
            )
            final_gap = gap
        finals.append(
            {
                "n_sellers": ns,
                "n_buyers": nb,
                "converged": outcome.converged,
                "iterations": outcome.iterations,
                "final_gap_percent": final_gap,
            }
        )
    return ExperimentReport("efficiency", asdict(cfg), tuple(records), {"final": finals})


#: Study name -> (config class, runner); the experiment command's choices.
STUDIES: dict[str, tuple[type, Callable[..., ExperimentReport]]] = {
    "sweep": (PayoffSweepConfig, exp_payoff_sweep),
    "fairness": (WelfareFairnessConfig, exp_welfare_fairness),
    "efficiency": (EfficiencyConfig, exp_efficiency),
    "case": (CaseStudyConfig, exp_case_study),
}
