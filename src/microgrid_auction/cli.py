"""Command-line front end.

Subcommands:
  clear         one-shot clearing of explicit bids, asks, and availabilities
  auction       full iterative auction on a scenario file or a seeded draw
  redistribute  auction followed by fair redistribution of the cleared supply
  experiment    canned studies: sweep (payoff trends), fairness (welfare and
                fairness), efficiency (welfare-gap decay), case (two-market
                case study)
  scenario gen  draw a random scenario and write it as JSON

Exit codes: 0 success, 2 auction did not converge, 3 no trade under
--strict, 4 bad arguments, unreadable input, or I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from .clearing import clear_market
from .engine import AuctionConfig, AuctionOutcome, run_auction
from .experiments import STUDIES
from .fairness import RedistributionResult, redistribute
from .market import MarketParams
from .scenario import (
    ParameterRanges,
    Scenario,
    generate_scenario,
    load_scenario,
    scenario_to_json,
)
from .serialize import dumps, load_outcome, outcome_payload, to_csv

# The floor-price default, read from its one home.
_PRICE_FLOOR = MarketParams().p

TRACE_HEADER = ("iter", "agent_kind", "agent_id", "bid_or_ask", "alloc", "mu", "phi", "theta")

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_NO_TRADE = 3
EXIT_BAD_INPUT = 4


class UsageError(Exception):
    """Bad arguments or malformed input; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 means "not converged"
    # here, so usage problems are rerouted through UsageError instead.
    def error(self, message: str) -> Any:
        raise UsageError(message)


def _parse_floats(text: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--{name} expects comma-separated numbers: {exc}") from exc


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    defaults = AuctionConfig()
    sub.add_argument(
        "--tol", type=float, default=defaults.tol_rel,
        help="relative stationarity tolerance; the final KKT residual must be <= min(tol, 1e-6)",
    )
    sub.add_argument("--max-iters", type=int, default=defaults.max_iters, help="iteration cap")


def _add_draw_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="scenario seed when drawing")
    sub.add_argument("--buyers", type=int, default=5, help="buyer count when drawing")
    sub.add_argument("--sellers", type=int, default=5, help="seller count when drawing")
    sub.add_argument(
        "--width",
        type=float,
        default=0.5,
        help="half-width of the unit-centered parameter ranges when drawing",
    )
    sub.add_argument(
        "--price-floor", type=float, default=None, help=f"floor price (default {_PRICE_FLOOR})"
    )


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json", help="output format")


def _add_auction_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--scenario",
        help="scenario JSON path (replaces --seed/--buyers/--sellers/--width; "
        "--price-floor overrides its p)",
    )
    _add_draw_flags(sub)
    _add_engine_flags(sub)
    sub.add_argument("--strict", action="store_true", help="exit 3 when no trade clears")
    sub.add_argument("--trace-out", help="write the per-iteration trace CSV here")
    _add_output_flags(sub)


def _build_parser() -> _Parser:
    parser = _Parser(prog="microgrid-auction", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    clear = commands.add_parser("clear", help="clear one round of explicit quotes")
    clear.add_argument("--bids", required=True, help="comma-separated buyer bids")
    clear.add_argument("--asks", required=True, help="comma-separated seller asks")
    clear.add_argument("--avails", required=True, help="comma-separated seller availabilities")
    clear.add_argument("--price-floor", type=float, default=_PRICE_FLOOR)
    clear.add_argument("--strict", action="store_true", help="exit 3 when no trade clears")
    _add_output_flags(clear)
    clear.set_defaults(handler=_cmd_clear)

    auction = commands.add_parser("auction", help="run the iterative auction")
    _add_auction_flags(auction)
    auction.set_defaults(handler=_cmd_auction, redistribute=False)

    redist = commands.add_parser(
        "redistribute", help="redistribute a saved outcome, or run the auction and redistribute"
    )
    redist.add_argument(
        "--outcome",
        help="saved outcome JSON to redistribute; the scenario still supplies the utilities, "
        "and --tol, --max-iters and --trace-out do not apply",
    )
    _add_auction_flags(redist)
    redist.set_defaults(handler=_cmd_redistribute, redistribute=True)

    experiment = commands.add_parser("experiment", help="run a canned study")
    experiment.add_argument(
        "name",
        choices=tuple(STUDIES),
        help="sweep: payoff trends over market size; fairness: welfare and "
        "fairness; efficiency: welfare-gap decay; case: two-market case study",
    )
    experiment.add_argument("--seed", type=int, default=None, help="override the study seed")
    _add_output_flags(experiment)
    experiment.set_defaults(handler=_cmd_experiment)

    scenario = commands.add_parser("scenario", help="scenario file utilities")
    scenario_cmds = scenario.add_subparsers(dest="scenario_command", required=True)
    gen = scenario_cmds.add_parser("gen", help="draw a scenario and write it as JSON")
    _add_draw_flags(gen)
    gen.add_argument("--out", help="output path (default stdout)")
    gen.set_defaults(handler=_cmd_scenario_gen)

    return parser


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _draw_market(args: argparse.Namespace) -> Scenario:
    params = MarketParams(p=args.price_floor if args.price_floor is not None else _PRICE_FLOOR)
    return generate_scenario(
        args.seed,
        args.buyers,
        args.sellers,
        ranges=ParameterRanges.centered(args.width),
        params=params,
    )


def _load_market(args: argparse.Namespace) -> Scenario:
    if args.scenario is None:
        return _draw_market(args)
    scenario = load_scenario(args.scenario)
    if args.price_floor is None:
        return scenario
    return Scenario(
        params=MarketParams(p=args.price_floor), buyers=scenario.buyers, sellers=scenario.sellers
    )


def _outcome_csv(outcome: AuctionOutcome, red: RedistributionResult | None = None) -> str:
    clearing = outcome.clearing
    header = ["agent_kind", "agent_id", "quote", "alloc", "unit_price", "alloc_redistributed"]
    rows: list[list[Any]] = []
    for i, bid in enumerate(clearing.bids):
        rows.append(["buyer", i, bid, clearing.d[i], outcome.unit_prices[i], clearing.d[i]])
    for j, ask in enumerate(clearing.asks):
        served = clearing.s[j] > 0
        rows.append(
            [
                "seller",
                j,
                ask,
                clearing.s[j],
                ask if served else None,
                red.s_r[j] if red is not None else clearing.s[j],
            ]
        )
    return to_csv(header, rows)


def _trace_csv(outcome: AuctionOutcome) -> str:
    rows: list[list[Any]] = []
    for rec in outcome.trace:
        clearing = rec.clearing
        for i, (bid, d) in enumerate(zip(clearing.bids, clearing.d)):
            rows.append([rec.iteration, "buyer", i, bid, d, clearing.mu, rec.phi, rec.theta])
        for j, (ask, s) in enumerate(zip(clearing.asks, clearing.s)):
            rows.append([rec.iteration, "seller", j, ask, s, clearing.mu, rec.phi, rec.theta])
    return to_csv(TRACE_HEADER, rows)


def _cmd_clear(args: argparse.Namespace) -> int:
    bids = _parse_floats(args.bids, "bids")
    asks = _parse_floats(args.asks, "asks")
    avails = _parse_floats(args.avails, "avails")
    if len(asks) != len(avails):
        raise UsageError(f"{len(asks)} asks vs {len(avails)} avails")
    params = MarketParams(p=args.price_floor)
    result = clear_market(bids, asks, avails, params)
    if args.format == "json":
        payload = {
            "mu": result.mu,
            "p": params.p,
            "d": list(result.d),
            "s": list(result.s),
            "budget_active": list(result.buyer_budget_active),
            "kkt_residual": result.kkt_residual,
            "no_trade": result.no_trade,
        }
        _write(dumps(payload), args.out)
    else:
        header = ["agent_kind", "agent_id", "quote", "alloc"]
        rows: list[list[Any]] = [["buyer", i, b, result.d[i]] for i, b in enumerate(bids)]
        rows += [["seller", j, a, result.s[j]] for j, a in enumerate(asks)]
        _write(to_csv(header, rows), args.out)
    if args.strict and result.no_trade:
        return EXIT_NO_TRADE
    return EXIT_OK


def _report_outcome(
    args: argparse.Namespace, outcome: AuctionOutcome, red: RedistributionResult | None
) -> int:
    """Write an outcome in the requested format and return its exit code."""
    if args.format == "json":
        _write(dumps(outcome_payload(outcome, red)), args.out)
    else:
        _write(_outcome_csv(outcome, red), args.out)
    if args.strict and outcome.clearing.no_trade:
        return EXIT_NO_TRADE
    if not outcome.converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_auction(args: argparse.Namespace) -> int:
    scenario = _load_market(args)
    config = AuctionConfig(
        tol_rel=args.tol,
        max_iters=args.max_iters,
        record_trace=args.trace_out is not None,
    )
    outcome = run_auction(scenario.buyers, scenario.sellers, scenario.params, config)
    red = None
    if args.redistribute:
        red = redistribute(outcome, scenario.buyers, scenario.sellers)
    if args.trace_out is not None:
        _write(_trace_csv(outcome), args.trace_out)
    return _report_outcome(args, outcome, red)


def _cmd_redistribute(args: argparse.Namespace) -> int:
    if args.outcome is None:
        return _cmd_auction(args)
    if args.trace_out is not None:
        raise UsageError("--trace-out does not apply with --outcome: no auction runs")
    outcome = load_outcome(args.outcome)
    scenario = _load_market(args)
    red = redistribute(outcome, scenario.buyers, scenario.sellers)
    return _report_outcome(args, outcome, red)


def _cmd_experiment(args: argparse.Namespace) -> int:
    config_class, runner = STUDIES[args.name]
    report = runner(config_class() if args.seed is None else config_class(seed=args.seed))
    _write(report.to_json() if args.format == "json" else report.to_csv(), args.out)
    return EXIT_OK


def _cmd_scenario_gen(args: argparse.Namespace) -> int:
    _write(scenario_to_json(_draw_market(args)), args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SystemExit as exc:
        # argparse --help exits 0 through here; anything else is usage
        code = exc.code if isinstance(exc.code, int) else 0
        return code if code == 0 else EXIT_BAD_INPUT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entrypoint() -> None:
    sys.exit(main())
