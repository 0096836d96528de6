import dataclasses
import hashlib
import json
import math
import random

import pytest

from microgrid_auction import experiments
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


def _doctored(outcome, **clearing_fields):
    """The outcome with some clearing fields replaced; the doctored clearing
    still balances, so verify_outcome gets past its balance check."""
    clearing = dataclasses.replace(outcome.clearing, **clearing_fields)
    assert math.fsum(clearing.d) == pytest.approx(math.fsum(clearing.s), rel=1e-12)
    return dataclasses.replace(outcome, clearing=clearing)


def test_verify_outcome_rejects_an_unbalanced_outcome():
    outcome, buyers, sellers = _converged()
    d = (outcome.clearing.d[0] + 0.5, *outcome.clearing.d[1:])
    broken = dataclasses.replace(outcome, clearing=dataclasses.replace(outcome.clearing, d=d))
    with pytest.raises(RuntimeError, match="balance violated: sum d "):
        verify_outcome(broken, buyers, sellers)


def test_verify_outcome_rejects_bound_violations():
    outcome, buyers, sellers = _converged()
    # Halving seller 0's availability leaves its allocation above it.
    avails = (outcome.clearing.s[0] / 2, *outcome.clearing.avails[1:])
    broken = _doctored(outcome, avails=avails)
    with pytest.raises(RuntimeError, match=r"seller 0 allocation \S+ outside \[0, "):
        verify_outcome(broken, buyers, sellers)


def test_verify_outcome_rejects_a_negative_buyer_allocation():
    outcome, buyers, sellers = _converged()
    d0, d1, *rest = outcome.clearing.d
    broken = _doctored(outcome, d=(-0.1, d1 + d0 + 0.1, *rest))
    with pytest.raises(RuntimeError, match=r"buyer 0 allocation -0\.1 negative"):
        verify_outcome(broken, buyers, sellers)


def test_verify_outcome_rejects_negative_revenue():
    outcome, buyers, sellers = _converged()
    broken = dataclasses.replace(
        outcome, payoffs=dataclasses.replace(outcome.payoffs, mc_revenue=-1e-3)
    )
    with pytest.raises(RuntimeError, match="controller revenue negative: -0.001"):
        verify_outcome(broken, buyers, sellers)


def test_verify_outcome_rejects_budget_overrun():
    outcome, buyers, sellers = _converged()
    # Buyer 0 keeps its allocation but now bid half of what it costs at p.
    bids = (P.p * outcome.clearing.d[0] / 2, *outcome.clearing.bids[1:])
    broken = _doctored(outcome, bids=bids)
    with pytest.raises(RuntimeError, match=r"buyer 0 allocation \S+ breaks budget"):
        verify_outcome(broken, buyers, sellers)


@pytest.mark.parametrize(
    "side, worse, message",
    [
        ("buyer_payoffs", -1e-3, "buyer 0 worse off than walking away: -0.001"),
        # seller 0 walks away with v(g) > 0, so a zero payoff is below it
        ("seller_payoffs", 0.0, "seller 0 worse off than walking away: 0.0"),
    ],
    ids=["buyer", "seller"],
)
def test_verify_outcome_rejects_a_participation_violation(side, worse, message):
    outcome, buyers, sellers = _converged()
    payoffs = getattr(outcome.payoffs, side)
    broken = dataclasses.replace(
        outcome, payoffs=dataclasses.replace(outcome.payoffs, **{side: (worse, *payoffs[1:])})
    )
    with pytest.raises(RuntimeError, match=message):
        verify_outcome(broken, buyers, sellers)
    # An unconverged run is not held to participation.
    verify_outcome(dataclasses.replace(broken, converged=False), buyers, sellers)


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
        (PayoffSweepConfig, "c8ab6902c54a2e9cb7326f73f9545440e83dd016444ffa89cec73afcb3116f2e"),
        (WelfareFairnessConfig, "11879724fffda875f1592e51386cbc63e94af4fe28a45392cb1c70dd8d268d61"),
        (EfficiencyConfig, "7a43bc86f6b15e347406f6b68cb42e4f2e4e51121c381a48d3bcfdfa13da45f6"),
        (CaseStudyConfig, "789bf30cf8f641c4474a7a9f3e9288b03c3b6aef586f75e9e3a90c979716d8e4"),
    ],
    ids=["sweep", "fairness", "efficiency", "case"],
)
def test_default_study_configs_serialize_as_pinned(config_class, digest):
    """Each default config, the config block of its report, keeps its
    bytes. The four digests were last re-recorded when the configs dropped
    params, tol_rel and max_iters, which every study auction now takes from
    the engine's defaults; before that, when each config's buyer_ranges and
    seller_ranges became one ranges field."""
    config = dumps(dataclasses.asdict(config_class()))
    assert hashlib.sha256(config.encode()).hexdigest() == digest


TINY_SWEEP = PayoffSweepConfig(
    seed=7, seller_counts=(3, 5), buyer_counts=(4, 8, 12), replications=6
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


def test_payoff_sweep_names_a_cell_in_which_no_run_converged(monkeypatch):
    """The study takes the engine's default cap, which its markets never
    reach, so a run capped at one clearing stands in for a market that does
    not converge."""

    def one_clearing(buyers, sellers, params, config):
        return run_auction(buyers, sellers, params, dataclasses.replace(config, max_iters=1))

    monkeypatch.setattr(experiments, "run_auction", one_clearing)
    config = PayoffSweepConfig(seller_counts=(3,), buyer_counts=(2, 4, 6), replications=2)
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
        (exp_efficiency, "9e8f64b69d2448025da9e954f09ab816b90323bc4e8d0b39c8b6689f1cb71b7d"),
        (exp_welfare_fairness, "637ef75fbca896517edf69dc4b19907987dd8fbc492acb6242085fdfeda84a8b"),
        (exp_case_study, "36a4c0aea41645c36a5a1827877e55c80d93afea5e6e310a18d4f1bf7ed5179d"),
    ],
    ids=["efficiency", "welfare-fairness", "case-study"],
)
def test_study_json_is_pinned_byte_for_byte(study, digest):
    """A change that only speeds the auction up leaves every byte of the
    default study reports as it is. The three digests were last re-recorded
    when the study configs dropped params, tol_rel and max_iters, and before
    that when each config's buyer_ranges and seller_ranges became one ranges
    field: both times only the config block changed, and the records and
    aggregates kept every byte. Before that, when buyers on a settled unit
    price began to bid their best response there, the efficiency study's
    final gap went from -2.1e-14 to 2.1e-14 percent, the fairness study's
    two mu moved by 1.2e-9 and 1.7e-8 relative, and the case study's quotes
    and allocations in their last bits."""
    assert hashlib.sha256(study().to_json().encode()).hexdigest() == digest
