#!/usr/bin/env python3
"""Benchmark of the microgrid auction package, timed end to end and traced per module.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

One client in this process runs its work items back to back (a closed loop,
no threads) in whole passes over the workload's items: two passes, then
more while the next one fits in --seconds. Every outcome is checked: each
auction goes through ``verify_outcome``, the efficiency study's converged
markets must stay within 0.5% of the full-information welfare, and every
repeated item must reproduce the first pass's outcome digest (or, for the
studies, byte-identical JSON).

Times are host-scaled (see hostspeed.py): a fixed kernel timed between
items tracks the shared host's speed, and each raw time is scaled to a
reference speed. Each auction's time is then the median over its passes.
The unscaled figures are printed in the line before the result.

--trace 0 prints the end-to-end metrics of that untraced loop. --trace 1
runs the same loop, then replays its first pass once with wrappers around
the package's public functions, and prints the per-module metrics of that
replay; the replay's extra wall time over an untraced pass is the tracing
overhead. The last stdout line is the JSON result; the line before it holds
the environment, sample counts and the failing items.

Workloads (inputs come only from --seed):

* corpus: the first 300 markets of the acceptance corpus fixture, in an
  order shuffled by the seed. Small markets, where iteration counts and the
  non-converging tail (nine markets that hit max_iters) dominate the time.
* large-market: single (300 buyers, 150 sellers) markets drawn from the
  seed. Proximal clearing, O(N_s) per breakpoint, is nearly all the time.
* welfare-study: the efficiency, welfare-fairness and case-study reports at
  their default study seeds, serialized to JSON, in an order shuffled by the
  seed. Most of the time is the full-information welfare solve per traced
  iteration.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
SOURCE_DIR = REPO_DIR / "src"
sys.path.insert(0, str(BENCH_DIR))

from hostspeed import HostSpeed  # noqa: E402
from tracer import Binding, Tracer  # noqa: E402

PACKAGE = "microgrid_auction"

#: Fresh imports plus input draws per run; setup_s is their median.
SETUP_REPEATS = 9
#: Passes every run makes at least, so each item is checked for determinism.
MIN_PASSES = 2
#: Least time between two host-speed samples in the timed loop.
SAMPLE_EVERY_S = 0.25

CORPUS_SALT = 0xC0
CORPUS_MARKETS = 300
CORPUS_MAX_SIZE = 30
LARGE_SALT = 0x1A5E
LARGE_BUYERS = 300
LARGE_SELLERS = 150
LARGE_MARKETS = 12
STUDIES = ("exp_efficiency", "exp_welfare_fairness", "exp_case_study")
#: C5's bound on the efficiency study's final welfare gap, in percent.
MAX_FINAL_GAP_PERCENT = 0.5

WORKLOADS = ("corpus", "large-market", "welfare-study")

END_TO_END_UNITS = {
    "setup_s": "s",
    "auctions_per_s": "1/s",
    "auction_p50_ms": "ms",
    "auction_p95_ms": "ms",
    "iters_p50": "count",
    "iters_p90": "count",
    "converged_share": "share",
    "peak_rss_mb": "MB",
}

#: Span name -> the bindings it wraps, as (module name, attribute) pairs.
#: Each caller's own binding is listed, because ``from .x import f`` copies
#: the reference into the importing module.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "experiments.runner": tuple(("experiments", name) for name in STUDIES),
    "engine.run_auction": (("engine", "run_auction"), ("experiments", "run_auction")),
    "engine.auction_step": (("engine", "auction_step"),),
    "clearing.clear_market_proximal": (("engine", "clear_market_proximal"),),
    "clearing.kkt_residual": (("clearing", "kkt_residual"),),
    "engine.trace": (("engine", "social_welfare"), ("engine", "clearing_objective")),
    "market.compute_payoffs": (("engine", "compute_payoffs"),),
    "experiments.verify_outcome": (("experiments", "verify_outcome"),),
    "welfare.solve_welfare": (("experiments", "solve_welfare"),),
    "welfare.social_welfare": (
        ("experiments", "social_welfare"),
        ("fairness", "social_welfare"),
        ("welfare", "social_welfare"),
    ),
    "fairness.redistribute": (("experiments", "redistribute"),),
    "fairness.water_fill": (("fairness", "water_fill"),),
    "serialize.dumps": (("experiments", "dumps"),),
}

#: Work size per call, summed for the per-unit self times.
SPAN_SIZES: dict[str, Callable[..., int]] = {
    "clearing.clear_market_proximal": lambda bids, asks, *rest, **kw: len(asks),
    "engine.auction_step": lambda state, config: len(state.buyers) + len(state.sellers),
    "welfare.solve_welfare": lambda buyers, sellers, *rest: len(buyers) + len(sellers),
}

CONSTRUCTIONS = "utility.LogUtility.constructions"

PER_LAYER_UNITS: dict[str, str] = {}
for _span in SPANS:
    PER_LAYER_UNITS[f"{_span}.calls"] = "count"
    PER_LAYER_UNITS[f"{_span}.self_s"] = "s"
PER_LAYER_UNITS.update(
    {
        "clearing.clear_market_proximal.us_per_seller": "us",
        "clearing.clear_market_proximal.wall_share": "share",
        "engine.auction_step.us_per_agent": "us",
        "engine.unconverged_iter_share": "share",
        CONSTRUCTIONS: "count",
        "utility.LogUtility.per_step": "count",
        "welfare.solve_welfare.us_per_agent": "us",
        "welfare.solve_welfare.wall_share": "share",
        "trace.wall_s": "s",
        "trace.untraced_share": "share",
        "trace.overhead_share": "share",
    }
)


@dataclass(frozen=True)
class Auction:
    """One attempted auction as the benchmark saw it.

    error is set when the auction raised or an output check failed; ms is
    the auction's wall time (for the studies, the study time per auction).
    """

    label: str
    ms: float
    iterations: int
    converged: bool
    error: str | None

    @property
    def ok(self) -> bool:
        return self.converged and self.error is None


class Package:
    """The package's modules from one fresh import."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        root = importlib.import_module(PACKAGE)
        if SOURCE_DIR not in Path(root.__file__).resolve().parents:
            raise ImportError(f"{PACKAGE} was imported from {root.__file__}, not from {SOURCE_DIR}")
        self.engine = root.engine
        self.clearing = root.clearing
        self.experiments = root.experiments
        self.fairness = root.fairness
        self.welfare = root.welfare
        self.utility = root.utility
        self.market = root.market
        self.params = root.MarketParams()
        self.config = root.AuctionConfig(max_iters=2500, record_trace=False)


# ---------------------------------------------------------------- inputs


def _draw_market(pkg: Package, rng: random.Random, nb: int, ns: int) -> tuple[list, list]:
    # Draw order and ranges of the acceptance tests' corpus fixture.
    buyers = [pkg.market.BuyerState(rng.uniform(0.5, 1.2), rng.uniform(1.2, 1.8)) for _ in range(nb)]
    sellers = [
        pkg.market.SellerState(rng.uniform(0.1, 0.4), rng.uniform(1.2, 1.8), rng.uniform(2.0, 5.0))
        for _ in range(ns)
    ]
    return buyers, sellers


def draw_items(pkg: Package, workload: str, seed: int) -> list[tuple[str, Any]]:
    """The workload's items for one pass, as (label, item) pairs."""
    order_rng = random.Random(seed)
    mix_seed = pkg.experiments.mix_seed
    if workload == "corpus":
        items = []
        for k in range(CORPUS_MARKETS):
            rng = random.Random(mix_seed(CORPUS_SALT, k))
            nb = rng.randint(1, CORPUS_MAX_SIZE)
            ns = rng.randint(1, CORPUS_MAX_SIZE)
            items.append((f"corpus k={k}", _draw_market(pkg, rng, nb, ns)))
        order_rng.shuffle(items)
        return items
    if workload == "large-market":
        return [
            (
                f"large seed={seed} m={m}",
                _draw_market(pkg, random.Random(mix_seed(LARGE_SALT, seed, m)), LARGE_BUYERS, LARGE_SELLERS),
            )
            for m in range(LARGE_MARKETS)
        ]
    if workload == "welfare-study":
        return [(name, name) for name in order_rng.sample(STUDIES, len(STUDIES))]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- work items


def _outcome_digest(outcome: Any) -> str:
    clearing = outcome.clearing
    key = (outcome.iterations, outcome.converged, clearing.mu, clearing.d, clearing.s)
    return hashlib.sha256(repr(key).encode()).hexdigest()


def run_market(pkg: Package, label: str, market: tuple[list, list]) -> tuple[list[Auction], str]:
    """One auction through the bindings a caller uses, then verify_outcome."""
    buyers, sellers = market
    start = time.perf_counter()
    try:
        outcome = pkg.engine.run_auction(buyers, sellers, pkg.params, pkg.config)
    except Exception as exc:  # a raising auction is a failed operation; the loop goes on
        ms = (time.perf_counter() - start) * 1e3
        return [Auction(label, ms, 0, False, f"raised {type(exc).__name__}: {exc}")], "raised"
    ms = (time.perf_counter() - start) * 1e3
    error = None
    try:
        pkg.experiments.verify_outcome(outcome, buyers, sellers)
    except RuntimeError as exc:
        error = f"verify_outcome: {exc}"
    return [Auction(label, ms, outcome.iterations, outcome.converged, error)], _outcome_digest(outcome)


def _study_auctions(report: Any) -> list[tuple[str, int, bool, str | None]]:
    rows: list[tuple[str, int, bool, str | None]] = []
    if report.name == "efficiency":
        for final in report.aggregates["final"]:
            error = None
            gap = final["final_gap_percent"]
            if final["converged"] and not gap < MAX_FINAL_GAP_PERCENT:
                error = f"final_gap_percent {gap} >= {MAX_FINAL_GAP_PERCENT}"
            rows.append((f"n_s={final['n_sellers']} n_b={final['n_buyers']}", final["iterations"], final["converged"], error))
    elif report.name == "welfare-fairness":
        for rec in report.records:
            rows.append((f"n_b={rec['n_buyers']}", rec["iterations"], rec["converged"], None))
    else:
        for case in report.aggregates["cases"]:
            rows.append((f"case={case['case']}", case["iterations"], case["converged"], None))
    return [(f"{report.name} {label}", *rest) for label, *rest in rows]


def run_study(pkg: Package, label: str, name: str) -> tuple[list[Auction], str]:
    """One study, serialized as `microgrid-auction experiment` does.

    Each of the study's auctions is charged the study's time divided by its
    auction count, since the study runs them internally.
    """
    start = time.perf_counter()
    try:
        report = getattr(pkg.experiments, name)()
        text = report.to_json()
        rows = _study_auctions(report)
    except Exception as exc:  # a raising study is a failed operation; the loop goes on
        ms = (time.perf_counter() - start) * 1e3
        return [Auction(label, ms, 0, False, f"raised {type(exc).__name__}: {exc}")], "raised"
    per_auction_ms = (time.perf_counter() - start) * 1e3 / len(rows)
    return [Auction(row[0], per_auction_ms, row[1], row[2], row[3]) for row in rows], text


def run_item(pkg: Package, workload: str, label: str, item: Any) -> tuple[list[Auction], str]:
    if workload == "welfare-study":
        return run_study(pkg, label, item)
    return run_market(pkg, label, item)


# ---------------------------------------------------------------- runs


@dataclass
class LoopResult:
    """Auctions of one or more passes, with raw times and their host-speed scale."""

    auctions: list[Auction] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)  # scaled item time per pass
    wall_s: float = 0.0
    mismatches: list[str] = field(default_factory=list)


def run_passes(
    pkg: Package,
    workload: str,
    items: list[tuple[str, Any]],
    reference: dict[str, str],
    speed: HostSpeed,
    seconds: float,
    min_passes: int,
) -> LoopResult:
    """Whole passes over items: min_passes, then more while they fit in seconds.

    Another pass starts only if, at the mean pass time so far, it would end
    within seconds of the start.

    reference maps item labels to the digest of their first run; a later run
    with another digest is a determinism mismatch.
    """
    result = LoopResult()
    passes: list[list[tuple[float, float, list[Auction]]]] = []
    start = time.perf_counter()
    while len(passes) < min_passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        timed = []
        for label, item in items:
            speed.sample(every=SAMPLE_EVERY_S)
            item_start = time.perf_counter()
            done, digest = run_item(pkg, workload, label, item)
            timed.append((item_start, time.perf_counter(), done))
            if reference.setdefault(label, digest) != digest:
                result.mismatches.append(label)
        passes.append(timed)
    result.wall_s = time.perf_counter() - start
    speed.sample()
    for timed in passes:
        total = 0.0
        for item_start, item_end, done in timed:
            scale = speed.scale(item_start, item_end)
            total += (item_end - item_start) * scale
            result.auctions.extend(done)
            result.scale.extend([scale] * len(done))
        result.pass_seconds.append(total)
    return result


def trace_bindings(pkg: Package, tracer: Tracer) -> list[Binding]:
    bindings: list[Binding] = []
    for span, targets in SPANS.items():
        size = SPAN_SIZES.get(span)
        for module, attr in targets:
            bindings.append(
                (getattr(pkg, module), attr, lambda fn, span=span, size=size: tracer.span(span, fn, size))
            )
    bindings.append(
        (pkg.utility.LogUtility, "__post_init__", lambda fn: tracer.counter(CONSTRUCTIONS, fn))
    )
    return bindings


def traced_pass(
    pkg: Package,
    workload: str,
    items: list[tuple[str, Any]],
    reference: dict[str, str],
    speed: HostSpeed,
) -> tuple[Tracer, LoopResult]:
    """One pass with every binding in SPANS wrapped; digests must match the untraced ones."""
    tracer = Tracer()
    with tracer.installed(trace_bindings(pkg, tracer)):
        traced = run_passes(pkg, workload, items, reference, speed, 0.0, 1)
    return tracer, traced


def timed_setup(
    workload: str, seed: int, speed: HostSpeed
) -> tuple[Package, list[tuple[str, Any]], list[float]]:
    """Fresh import plus input draws, SETUP_REPEATS times; keeps the last.

    Returns the host-scaled time of each repeat.
    """
    intervals = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        pkg = Package()
        items = draw_items(pkg, workload, seed)
        intervals.append((start, time.perf_counter()))
    speed.sample()
    return pkg, items, [(end - start) * speed.scale(start, end) for start, end in intervals]


# ---------------------------------------------------------------- metrics


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation) of at least one value."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(loop: LoopResult, scaled: bool = True) -> dict[str, float]:
    """Rate and percentiles from each auction's median time over the passes.

    The rate divides the auctions that converged and passed every check by
    the summed times of all auctions in a pass.
    """
    runs_ms: dict[str, list[float]] = {}
    for a, scale in zip(loop.auctions, loop.scale):
        runs_ms.setdefault(a.label, []).append(a.ms * scale if scaled else a.ms)
    ms = [statistics.median(runs) for runs in runs_ms.values()]
    ok = {a.label for a in loop.auctions if a.ok}
    return {
        "auctions_per_s": len(ok) / (math.fsum(ms) / 1e3),
        "auction_p50_ms": _quantile(ms, 50),
        "auction_p95_ms": _quantile(ms, 95),
    }


def end_to_end_metrics(
    loop: LoopResult, setup_s: list[float], peak_rss_mb: float
) -> tuple[dict[str, float], dict[str, int]]:
    iterations = {a.label: a.iterations for a in loop.auctions if a.error is None}
    iters = list(iterations.values())
    labels = {a.label for a in loop.auctions}
    ok = {a.label for a in loop.auctions if a.ok}
    values = {
        "setup_s": statistics.median(setup_s),
        **timing_metrics(loop),
        "iters_p50": _quantile(iters, 50) if iters else 0.0,
        "iters_p90": _quantile(iters, 90) if iters else 0.0,
        "converged_share": len(ok) / len(labels),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_s": len(setup_s),
        "auctions_per_s": len(labels),
        "auction_p50_ms": len(labels),
        "auction_p95_ms": len(labels),
        "iters_p50": len(iters),
        "iters_p90": len(iters),
        "converged_share": len(labels),
        "peak_rss_mb": 1,
    }
    return {name: values[name] for name in END_TO_END_UNITS}, samples


def per_layer_metrics(tracer: Tracer, traced: LoopResult, untraced_pass_s: float) -> dict[str, float]:
    """Per-module counts and raw self times of the traced pass."""
    calls = tracer.calls()
    self_s = tracer.self_times()
    inclusive = tracer.inclusive_times()
    wall = traced.wall_s

    def per_unit(span: str) -> float:
        return 1e6 * self_s.get(span, 0.0) / tracer.sizes[span] if tracer.sizes[span] else 0.0

    total_iters = sum(a.iterations for a in traced.auctions)
    unconverged_iters = sum(a.iterations for a in traced.auctions if not a.converged)
    steps = calls["engine.auction_step"]
    values: dict[str, float] = {}
    for span in SPANS:
        values[f"{span}.calls"] = calls[span]
        values[f"{span}.self_s"] = self_s.get(span, 0.0)
    values.update(
        {
            "clearing.clear_market_proximal.us_per_seller": per_unit("clearing.clear_market_proximal"),
            "clearing.clear_market_proximal.wall_share": inclusive.get("clearing.clear_market_proximal", 0.0) / wall,
            "engine.auction_step.us_per_agent": per_unit("engine.auction_step"),
            "engine.unconverged_iter_share": unconverged_iters / total_iters if total_iters else 0.0,
            CONSTRUCTIONS: tracer.counts[CONSTRUCTIONS],
            "utility.LogUtility.per_step": tracer.counts[CONSTRUCTIONS] / steps if steps else 0.0,
            "welfare.solve_welfare.us_per_agent": per_unit("welfare.solve_welfare"),
            "welfare.solve_welfare.wall_share": inclusive.get("welfare.solve_welfare", 0.0) / wall,
            "trace.wall_s": wall,
            "trace.untraced_share": (wall - tracer.root_time()) / wall,
            # Both sides host-scaled, so a change in host speed between them cancels.
            "trace.overhead_share": traced.pass_seconds[0] / untraced_pass_s - 1.0,
        }
    )
    return values


# ---------------------------------------------------------------- environment


def git_commit() -> str | None:
    """HEAD's commit id when the benchmark sits in a git work tree, else None."""
    git_dir = REPO_DIR / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------- main


def _failures(auctions: list[Auction]) -> list[str]:
    out = []
    for a in auctions:
        if a.error is not None:
            out.append(f"{a.label}: {a.error}")
        elif not a.converged:
            out.append(f"{a.label}: hit max_iters after {a.iterations} iterations")
    return sorted(set(out), key=lambda text: [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", text)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    sys.path.insert(0, str(SOURCE_DIR))
    speed = HostSpeed()
    try:
        pkg, items, setup_s = timed_setup(args.workload, args.seed, speed)
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {SOURCE_DIR}: {exc}", file=sys.stderr)
        return 2

    reference: dict[str, str] = {}
    loop = run_passes(pkg, args.workload, items, reference, speed, args.seconds, MIN_PASSES)
    # ru_maxrss is in KiB on Linux; read before any spans are kept.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(args.seed)
    details: dict[str, Any] = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(loop.pass_seconds),
        "items_per_pass": len(items),
        "wall_s": loop.wall_s,
        "host_scale_median": statistics.median(loop.scale),
        "environment": env,
    }
    checked = [loop]
    if args.trace:
        tracer, traced = traced_pass(pkg, args.workload, items, reference, speed)
        checked.append(traced)
        metrics = per_layer_metrics(tracer, traced, statistics.median(loop.pass_seconds))
        env["tracing_overhead_share"] = metrics["trace.overhead_share"]
        details["spans"] = len(tracer)
        units = PER_LAYER_UNITS
    else:
        metrics, details["samples"] = end_to_end_metrics(loop, setup_s, peak_rss_mb)
        details["unscaled"] = timing_metrics(loop, scaled=False)
        units = END_TO_END_UNITS

    attempted = len(loop.auctions)
    failures = _failures(loop.auctions)
    failed = sum(1 for a in loop.auctions if not a.ok)
    mismatches = sorted({m for result in checked for m in result.mismatches})
    errors = [a for result in checked for a in result.auctions if a.error is not None]
    details["failed_share"] = failed / attempted
    details["failed_items"] = failures
    details["determinism_mismatches"] = mismatches

    for name, value in metrics.items():
        print(f"{args.workload:>14}  {name:<48} {value:>14.6g} {units[name]}")
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not mismatches and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
