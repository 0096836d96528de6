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
        (PayoffSweepConfig, "c4c7391174f7e75c15d61c737a105a522c46af12f131241825b99b0cd9a5b9ff"),
        (WelfareFairnessConfig, "ca45e7cd99db1ec63afe303f4777aa64981d7a0a74af19df806064687eb6a8bd"),
        (EfficiencyConfig, "805c8bdfc1806a1b871ada2f82549e6555d7da0bf3c7bf72fdde2cd82e96e428"),
        (CaseStudyConfig, "4f5dd364224b74f1f73b23b3fd0f8b81bb3b9a28aeadaf0a20db406e9f88890f"),
    ],
    ids=["sweep", "fairness", "efficiency", "case"],
)
def test_default_study_configs_serialize_as_pinned(config_class, digest):
    """The config checks add no field: each default config, the config
    block of its report, keeps its bytes."""
    config = dumps(dataclasses.asdict(config_class()))
    assert hashlib.sha256(config.encode()).hexdigest() == digest


TINY_SWEEP = PayoffSweepConfig(
    seed=7, seller_counts=(3, 5), buyer_counts=(4, 8, 12), replications=6, max_iters=2000
)


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
        (exp_efficiency, "1daff3144674791b7c814a57fee53c66e3ac667ed2989b7191cda170c9dfddb4"),
        (exp_welfare_fairness, "573b0d4e6f1692f08377d5d3777d3a44dcbe1a0594d9ffe2ca21e51dc6a6ae25"),
        (exp_case_study, "fc5f04d98c4dee4145bb37abd21d087a281da50fac3594a7562f96e29e6a01c9"),
    ],
    ids=["efficiency", "welfare-fairness", "case-study"],
)
def test_study_json_is_pinned_byte_for_byte(study, digest):
    """A change that only speeds the auction up leaves every byte of the
    default study reports as it is. The three digests were last re-recorded
    when buyers on a settled unit price began to bid their best response
    there: the efficiency study's final gap went from -2.1e-14 to 2.1e-14
    percent, the fairness study's two mu moved by 1.2e-9 and 1.7e-8
    relative, and the case study's quotes and allocations in their last
    bits."""
    assert hashlib.sha256(study().to_json().encode()).hexdigest() == digest
