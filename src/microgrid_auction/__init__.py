"""Iterative double-auction engine for energy trading in a microgrid."""

from .clearing import (
    BID_FLOOR,
    ClearingResult,
    clear_market,
    clear_market_proximal,
    clearing_objective,
    kkt_residual,
)
from .engine import (
    AuctionConfig,
    AuctionOutcome,
    AuctionState,
    IterationRecord,
    auction_step,
    run_auction,
)
from .experiments import (
    CaseStudyConfig,
    EfficiencyConfig,
    ExperimentReport,
    PayoffSweepConfig,
    WelfareFairnessConfig,
    exp_case_study,
    exp_efficiency,
    exp_payoff_sweep,
    exp_welfare_fairness,
    mix_seed,
    spearman_rho,
    splitmix64,
    verify_outcome,
)
from .fairness import (
    InfeasibleTotal,
    RedistributionResult,
    price_of_fairness,
    redistribute,
    uniform_reprice,
    water_fill,
)
from .market import (
    BuyerState,
    MarketParams,
    Payoffs,
    SellerState,
    compute_payoffs,
    social_welfare,
)
from .scenario import (
    ParameterRanges,
    Scenario,
    generate_scenario,
    load_scenario,
    scenario_from_json,
    scenario_to_json,
)
from .utility import LogUtility
from .welfare import WelfareSolution, efficiency_gap, solve_welfare

__version__ = "0.1.0"
