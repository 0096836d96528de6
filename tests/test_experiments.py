import dataclasses
import hashlib
import json
import random

import pytest

from microgrid_auction.engine import AuctionConfig, run_auction
from microgrid_auction.experiments import (
    CaseStudyConfig,
    EfficiencyConfig,
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
from microgrid_auction.market import BuyerState, MarketParams, SellerState
from microgrid_auction.serialize import dumps

P = MarketParams()


def test_splitmix64_is_a_deterministic_bijection_sample():
    assert splitmix64(0) == splitmix64(0)
    seen = {splitmix64(i) for i in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= v < 2**64 for v in seen)


def test_mix_seed_order_and_arity_sensitivity():
    assert mix_seed(1, 2) == mix_seed(1, 2)
    assert mix_seed(1, 2) != mix_seed(2, 1)
    assert mix_seed(1) != mix_seed(1, 0)
    assert 0 <= mix_seed(2**70, -5) < 2**64


def test_spearman_rho_known_values():
    assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # tie in ys: average ranks; hand value via the rank-correlation formula
    rho = spearman_rho([1, 2, 3, 4], [10, 10, 20, 30])
    assert rho == pytest.approx(0.9486832980505139)
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1.0])
    with pytest.raises(ValueError):
        spearman_rho([1], [1.0])
    with pytest.raises(ValueError):
        spearman_rho([1, 2, 3], [5, 5, 5])


def _converged(seed=5, nb=3, ns=3):
    rng = random.Random(seed)
    buyers = [BuyerState(rng.uniform(0.9, 1.6), rng.uniform(1.2, 1.8)) for _ in range(nb)]
    sellers = [
        SellerState(rng.uniform(0.1, 0.4), rng.uniform(1.2, 1.8), rng.uniform(2.0, 5.0))
        for _ in range(ns)
    ]
    outcome = run_auction(buyers, sellers, P, AuctionConfig(max_iters=2000))
    assert outcome.converged
    return outcome, buyers, sellers


def test_verify_outcome_accepts_an_honest_run():
    outcome, buyers, sellers = _converged()
    verify_outcome(outcome, buyers, sellers)


def test_verify_outcome_rejects_bound_violations():
    outcome, buyers, sellers = _converged()
    bad_s = tuple(a + 0.5 for a in outcome.clearing.avails)
    broken = dataclasses.replace(
        outcome, clearing=dataclasses.replace(outcome.clearing, s=bad_s)
    )
    with pytest.raises(RuntimeError):
        verify_outcome(broken, buyers, sellers)


def test_verify_outcome_rejects_negative_revenue():
    outcome, buyers, sellers = _converged()
    broken = dataclasses.replace(
        outcome, payoffs=dataclasses.replace(outcome.payoffs, mc_revenue=-1e-3)
    )
    with pytest.raises(RuntimeError):
        verify_outcome(broken, buyers, sellers)


def test_verify_outcome_rejects_budget_overrun():
    outcome, buyers, sellers = _converged()
    bad_d = tuple(d + (b / P.p) for d, b in zip(outcome.clearing.d, outcome.clearing.bids))
    broken = dataclasses.replace(
        outcome, clearing=dataclasses.replace(outcome.clearing, d=bad_d)
    )
    with pytest.raises(RuntimeError):
        verify_outcome(broken, buyers, sellers)


@pytest.mark.parametrize(
    "config_class, fields, message",
    [
        # a bare "max() arg is an empty sequence" from the runner
        (PayoffSweepConfig, {"buyer_counts": ()}, "buyer_counts must not be empty"),
        # "-1 of -1 runs unconverged"
        (PayoffSweepConfig, {"replications": -1}, "replications must be >= 1 and an int, got -1"),
        # an empty report
        (PayoffSweepConfig, {"seller_counts": ()}, "seller_counts must not be empty"),
        # ZeroDivisionError in the mean payoff of the empty cell
        (PayoffSweepConfig, {"buyer_counts": (0, 5)}, "buyer_counts must be >= 1 and an int, got 0"),
        (PayoffSweepConfig, {"replications": True}, "replications must be >= 1 and an int, got True"),
        # "need at least two points" from the trend, after every auction ran
        (PayoffSweepConfig, {"buyer_counts": (4,)}, r"buyer_counts must hold at least two counts, got \(4,\)"),
        # four records for two cells
        (PayoffSweepConfig, {"seller_counts": (3, 3)}, r"seller_counts must not repeat a count, got \(3, 3\)"),
        # three records for two cells
        (PayoffSweepConfig, {"buyer_counts": (4, 4, 6)}, r"buyer_counts must not repeat a count, got \(4, 4, 6\)"),
        # a bare "max() arg is an empty sequence" from the runner
        (CaseStudyConfig, {"buyer_counts": ()}, "buyer_counts must not be empty"),
        (CaseStudyConfig, {"n_sellers": 2.5}, "n_sellers must be >= 1 and an int, got 2.5"),
        # an empty report
        (EfficiencyConfig, {"sizes": ()}, "sizes must not be empty"),
        # "optimal welfare must be positive" from the first gap
        (EfficiencyConfig, {"sizes": ((0, 5),)}, "sizes must be >= 1 and an int, got 0"),
        (EfficiencyConfig, {"sizes": ((5,),)}, r"sizes must hold \(n_sellers, n_buyers\) pairs"),
        # an empty report
        (WelfareFairnessConfig, {"buyer_counts": ()}, "buyer_counts must not be empty"),
        (WelfareFairnessConfig, {"n_sellers": 0}, "n_sellers must be >= 1 and an int, got 0"),
    ],
    ids=[
        "sweep no buyer counts", "sweep negative replications", "sweep no seller counts",
        "sweep zero buyers", "sweep bool replications", "sweep one buyer count",
        "sweep repeated seller count", "sweep repeated buyer count", "case no buyer counts",
        "case fractional sellers", "efficiency no sizes", "efficiency zero sellers",
        "efficiency size not a pair", "fairness no buyer counts", "fairness zero sellers",
    ],
)
def test_study_configs_refuse_bad_sizes_naming_the_field(config_class, fields, message):
    with pytest.raises(ValueError, match=message):
        config_class(**fields)


@pytest.mark.parametrize(
    "config_class, digest",
    [
        (PayoffSweepConfig, "c6bed5c259748135bd3a610fd226652384ed6636b6c2365cc8f2ff0467283459"),
        (WelfareFairnessConfig, "6a06075b0915dc08bab40d94bde73ba995ab31f71abb487c8c1b20687c57b73c"),
        (EfficiencyConfig, "5763cdd1144933106293f81e57b0ce143020488154751b403a43ca3a013d918e"),
        (CaseStudyConfig, "401e454c493811481d0bfce7e902ef2b189c89cb75710e607211b31eb96b8517"),
    ],
    ids=["sweep", "fairness", "efficiency", "case"],
)
def test_default_study_configs_serialize_as_pinned(config_class, digest):
    """Each default config, the config block of its report, keeps its
    bytes. The four digests were last re-recorded when each config's
    buyer_ranges and seller_ranges became one ranges field, holding the
    buyer half of the first and the seller half of the second: the pairs
    the runners drew from."""
    config = dumps(dataclasses.asdict(config_class()))
    assert hashlib.sha256(config.encode()).hexdigest() == digest


TINY_SWEEP = PayoffSweepConfig(
    seed=7, seller_counts=(3, 5), buyer_counts=(4, 8, 12), replications=6, max_iters=2000
)


@pytest.mark.parametrize(
    "runner, config",
    [
        (exp_payoff_sweep, TINY_SWEEP),
        (exp_case_study, CaseStudyConfig(buyer_counts=(3, 8), n_sellers=4)),
        (exp_welfare_fairness, WelfareFairnessConfig(n_sellers=10, buyer_counts=(4, 20))),
        (exp_efficiency, EfficiencyConfig(sizes=((3, 4), (5, 6)))),
    ],
    ids=["sweep", "case", "fairness", "efficiency"],
)
def test_every_range_pair_reaches_the_draws(runner, config):
    """Narrowing any one of the five pairs of a study's ranges to its lower
    half changes the report's records or aggregates: no pair is written into
    the config block and then never drawn from."""
    base = runner(config)
    for name in ("buyer_x", "buyer_y", "seller_x", "seller_y", "gen"):
        lo, hi = getattr(config.ranges, name)
        narrowed = dataclasses.replace(config.ranges, **{name: (lo, (lo + hi) / 2)})
        report = runner(dataclasses.replace(config, ranges=narrowed))
        assert (report.records, report.aggregates) != (base.records, base.aggregates), name


def test_payoff_sweep_report_shape_and_determinism():
    report = exp_payoff_sweep(TINY_SWEEP)
    assert report.name == "payoff-sweep"
    assert len(report.records) == 6  # 2 seller counts x 3 buyer counts
    for record in report.records:
        assert record["converged_runs"] == 6
    assert report.aggregates["unconverged_runs"] == 0
    again = exp_payoff_sweep(TINY_SWEEP)
    assert report.to_json() == again.to_json()


def test_payoff_sweep_names_a_cell_in_which_no_run_converged():
    config = PayoffSweepConfig(
        seller_counts=(3,), buyer_counts=(2, 4, 6), replications=2, max_iters=1
    )
    with pytest.raises(ValueError, match=r"\(n_sellers=3, n_buyers=2\): 2 of 2 runs unconverged"):
        exp_payoff_sweep(config)


def test_payoff_sweep_trend_directions():
    report = exp_payoff_sweep(TINY_SWEEP)
    for trend in report.aggregates["trend"]:
        assert trend["rho_seller"] > 0.5
        assert trend["rho_buyer"] < -0.5
    # within one seller population, buyers dilute each other
    by_cell = {(r["n_sellers"], r["n_buyers"]): r for r in report.records}
    for ns in TINY_SWEEP.seller_counts:
        assert (
            by_cell[(ns, 4)]["mean_buyer_payoff"]
            > by_cell[(ns, 12)]["mean_buyer_payoff"]
        )


def test_case_study_report_regimes():
    config = CaseStudyConfig(buyer_counts=(3, 8), n_sellers=4)
    report = exp_case_study(config)
    cases = report.aggregates["cases"]
    assert [case["n_buyers"] for case in cases] == [3, 8]
    assert all(case["converged"] for case in cases)
    # per-agent records: one row per agent per case
    assert len(report.records) == (3 + 4) + (8 + 4)
    for case in cases:
        assert case["kappa_F"] >= -1e-12
    # buyer pools nest: the smaller case's buyers prefix the larger one's
    first = [r for r in report.records if r["case"] == 1 and r["agent_kind"] == "buyer"]
    second = [r for r in report.records if r["case"] == 2 and r["agent_kind"] == "buyer"]
    for a, b in zip(first, second):
        assert a["x"] == b["x"] and a["y"] == b["y"]


def test_welfare_fairness_orderings():
    config = WelfareFairnessConfig(n_sellers=10, buyer_counts=(4, 20))
    report = exp_welfare_fairness(config)
    assert len(report.records) == 2
    for record in report.records:
        assert record["converged"]
        assert record["theta_trade"] >= record["theta_no_trade"]
        assert record["theta_redistributed"] <= record["theta_trade"] + 1e-12
        if record["all_saturated"]:
            assert record["kappa_F"] == pytest.approx(0.0, abs=1e-9)
        else:
            assert record["kappa_F"] >= 0.0
    # few buyers leave slack; many buyers saturate the ten sellers
    assert not report.records[0]["all_saturated"]
    assert report.records[1]["all_saturated"]


def test_efficiency_gap_shrinks_to_zero():
    config = EfficiencyConfig(sizes=((3, 4), (5, 6)))
    report = exp_efficiency(config)
    finals = report.aggregates["final"]
    assert len(finals) == 2
    for final in finals:
        assert final["final_gap_percent"] < 1e-6
    for size in [(3, 4), (5, 6)]:
        rows = [
            r
            for r in report.records
            if (r["n_sellers"], r["n_buyers"]) == size
        ]
        assert rows[0]["gap_percent"] > rows[-1]["gap_percent"]
        assert rows[-1]["iteration"] == len(rows)


def test_report_serialization_roundtrip():
    report = exp_efficiency(EfficiencyConfig(sizes=((2, 2),)))
    parsed = json.loads(report.to_json())
    assert parsed["name"] == "efficiency"
    assert parsed["config"]["sizes"] == [[2, 2]]
    assert len(parsed["records"]) == len(report.records)
    csv_text = report.to_csv()
    header, *rows = csv_text.strip().split("\n")
    assert header.split(",") == list(report.records[0].keys())
    assert len(rows) == len(report.records)


@pytest.mark.parametrize(
    "study, digest",
    [
        (exp_efficiency, "9ca983673fc1560d26edc21c7dca76d658c54f41a8c4a2631ecd3ab0f82db661"),
        (exp_welfare_fairness, "36710ca533323bcccf0950ee708e7c21749c0739f1267944b240a9020c2f0c06"),
        (exp_case_study, "4f0248abe0fb3d7fc838c132dc42f6fdebc453707a2a6a9c5f75fd1d178d7afc"),
    ],
    ids=["efficiency", "welfare-fairness", "case-study"],
)
def test_study_json_is_pinned_byte_for_byte(study, digest):
    """A change that only speeds the auction up leaves every byte of the
    default study reports as it is. The three digests were last re-recorded
    when each study config's buyer_ranges and seller_ranges became one
    ranges field: only the config block changed, and the records and
    aggregates kept every byte. Before that, when buyers on a settled unit
    price began to bid their best response there, the efficiency study's
    final gap went from -2.1e-14 to 2.1e-14 percent, the fairness study's
    two mu moved by 1.2e-9 and 1.7e-8 relative, and the case study's quotes
    and allocations in their last bits."""
    assert hashlib.sha256(study().to_json().encode()).hexdigest() == digest
