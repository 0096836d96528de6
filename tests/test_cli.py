import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from microgrid_auction.cli import TRACE_HEADER, main


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_clear_json_golden(capsys):
    code, out = run_cli(
        capsys, ["clear", "--bids", "1,2", "--asks", "0.3,0.5", "--avails", "2,3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == pytest.approx(0.6)
    assert doc["d"] == pytest.approx([5 / 3, 10 / 3])
    assert doc["s"] == pytest.approx([2.0, 3.0])
    assert doc["no_trade"] is False
    assert doc["kkt_residual"] <= 1e-7


def test_clear_csv_format(capsys):
    code, out = run_cli(
        capsys,
        [
            "clear",
            "--bids",
            "1,2",
            "--asks",
            "0.3,0.5",
            "--avails",
            "2,3",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "agent_kind,agent_id,quote,alloc"
    assert len(lines) == 5
    assert lines[1].startswith("buyer,0,")
    assert lines[3].startswith("seller,0,")


def test_clear_strict_no_trade_exit(capsys):
    argv = ["clear", "--bids", "0", "--asks", "0.2", "--avails", "1"]
    code, _ = run_cli(capsys, argv)
    assert code == 0
    code, _ = run_cli(capsys, argv + ["--strict"])
    assert code == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--bids", "1,,2", "--asks", "0.1", "--avails", "1"],
        ["--bids", "1,", "--asks", "0.1", "--avails", "1"],
        ["--bids", "", "--asks", "0.1", "--avails", "1"],
        # dropping the empty ask would still leave two asks for two avails
        ["--bids", "1", "--asks", "0.1,,0.2", "--avails", "1,2"],
    ],
    ids=["empty inside", "trailing comma", "empty list", "asks match avails"],
)
def test_clear_refuses_an_empty_entry(capsys, flags):
    """An empty entry is a usage error, not a number to drop."""
    code, out = run_cli(capsys, ["clear", *flags])
    assert code == 4 and out == ""


def test_clear_bad_inputs_exit_4(capsys):
    code, _ = run_cli(
        capsys, ["clear", "--bids", "1,abc", "--asks", "0.2", "--avails", "1"]
    )
    assert code == 4
    code, _ = run_cli(
        capsys, ["clear", "--bids", "1", "--asks", "0.2,0.3", "--avails", "1"]
    )
    assert code == 4
    # finite quotes whose total overflows a float
    for argv in (
        ["clear", "--bids", "1e308,1e308", "--asks", "0.2", "--avails", "2"],
        ["clear", "--bids", "1", "--asks", "0.2,0.3", "--avails", "1e308,1e308"],
    ):
        code, _ = run_cli(capsys, argv)
        assert code == 4


def test_clear_settles_demand_in_the_rounding_gap_of_the_supply_sum(capsys):
    # demand lands between the naive running sum of the availabilities and
    # their exact sum; this used to exit 1 with a traceback
    code, out = run_cli(
        capsys,
        [
            "clear",
            "--bids", "3.4249999999999994",
            "--asks",
            "0.10277908644295872,0.11221747210442294,0.13805528138833134,0.15024020353597256,"
            "0.17280914970622652,0.2077853421681139,0.21470318335846195",
            "--avails", "3.3,3.3,3.3,0.2,0.1,0.2,3.3",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == 0.25
    assert doc["kkt_residual"] <= 1e-12


def test_auction_json_payload(capsys):
    code, out = run_cli(capsys, ["auction", "--seed", "1", "--buyers", "4", "--sellers", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    for key in (
        "mu",
        "p",
        "bids",
        "asks",
        "avails",
        "d",
        "s",
        "budget_active",
        "kkt_residual",
        "unit_prices",
        "payoffs",
        "iterations",
    ):
        assert key in doc
    assert "redistribution" not in doc
    assert math.fsum(doc["d"]) == pytest.approx(math.fsum(doc["s"]), abs=1e-8)
    assert doc["payoffs"]["mc_revenue"] >= -1e-9


def test_auction_exit_codes(capsys):
    code, _ = run_cli(
        capsys,
        ["auction", "--seed", "1", "--buyers", "4", "--sellers", "3", "--max-iters", "1"],
    )
    assert code == 2
    code, _ = run_cli(capsys, ["auction", "--buyers", "0", "--sellers", "2", "--strict"])
    assert code == 3
    code, _ = run_cli(capsys, ["auction", "--buyers", "0", "--sellers", "2"])
    assert code == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_auction_rejects_a_tolerance_that_is_not_positive_and_finite(capsys, tol):
    code = main(["auction", "--seed", "1", "--buyers", "4", "--sellers", "3", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "tol_rel must be positive and finite" in captured.err


@pytest.mark.parametrize("command", ["auction", "redistribute"])
def test_damping_flag_is_gone(capsys, command):
    # every agent re-quotes its undamped target, so there is no step to set
    code = main([command, "--seed", "1", "--buyers", "4", "--sellers", "3", "--damping", "0.5"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "--damping" in captured.err


def test_auction_trace_csv(capsys, tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, out = run_cli(
        capsys,
        [
            "auction",
            "--seed",
            "2",
            "--buyers",
            "3",
            "--sellers",
            "2",
            "--trace-out",
            str(trace_path),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    lines = trace_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(TRACE_HEADER)
    assert len(lines) == 1 + doc["iterations"] * (3 + 2)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] in ("buyer", "seller")


def test_scenario_gen_and_reuse_are_identical(capsys, tmp_path):
    """scenario gen writes the market that auction draws from the same
    flags, at the default width and floor price and at others."""
    draw = ["--seed", "3", "--buyers", "4", "--sellers", "3"]
    for extra in ([], ["--width", "0.2", "--price-floor", "0.4"]):
        scenario_path = tmp_path / "market.json"
        code, _ = run_cli(capsys, ["scenario", "gen", *draw, *extra, "--out", str(scenario_path)])
        assert code == 0
        parsed = json.loads(scenario_path.read_text())
        assert len(parsed["buyers"]) == 4
        assert len(parsed["sellers"]) == 3
        assert parsed["p"] == (0.4 if extra else 0.25)

        code, from_file = run_cli(capsys, ["auction", "--scenario", str(scenario_path)])
        assert code == 0
        code, from_draw = run_cli(capsys, ["auction", *draw, *extra])
        assert code == 0
        assert from_file == from_draw


@pytest.mark.parametrize("command", ["auction", "redistribute"])
def test_outcome_csv_rows_match_the_json_outcome(capsys, command):
    """The CSV form writes one row per agent from the outcome that the JSON
    form writes for the same draw. Seed 8 leaves a buyer with no unit price
    and a seller unsold, so both empty cells are read too."""
    draw = [command, "--seed", "8", "--buyers", "4", "--sellers", "3"]
    code, text = run_cli(capsys, [*draw, "--format", "csv"])
    assert code == 0
    code, out = run_cli(capsys, draw)
    assert code == 0
    doc = json.loads(out)
    assert None in doc["unit_prices"] and 0.0 in doc["s"]
    s_r = doc["redistribution"]["s_r"] if command == "redistribute" else doc["s"]
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["agent_kind", "agent_id", "quote", "alloc", "unit_price", "alloc_redistributed"]
    read = [[kind, int(i), *(float(c) if c else None for c in cells)] for kind, i, *cells in rows]
    buyers = zip(doc["bids"], doc["d"], doc["unit_prices"])
    sellers = zip(doc["asks"], doc["s"], s_r)
    assert read == [
        *(["buyer", i, b, d, u, d] for i, (b, d, u) in enumerate(buyers)),
        *(["seller", j, c, s, c if s > 0 else None, r] for j, (c, s, r) in enumerate(sellers)),
    ]


def test_price_floor_overrides_only_the_scenario_files_p(capsys, tmp_path):
    """--scenario FILE --price-floor X runs the auction that FILE with its p
    replaced by X runs: the buyers and sellers are the file's."""
    scenario_path = tmp_path / "market.json"
    code, _ = run_cli(
        capsys, ["scenario", "gen", "--seed", "3", "--buyers", "4", "--sellers", "3", "--out", str(scenario_path)]
    )
    assert code == 0
    edited_path = tmp_path / "edited.json"
    edited_path.write_text(json.dumps({**json.loads(scenario_path.read_text()), "p": 0.4}))
    code, overridden = run_cli(capsys, ["auction", "--scenario", str(scenario_path), "--price-floor", "0.4"])
    assert code == 0
    code, edited = run_cli(capsys, ["auction", "--scenario", str(edited_path)])
    assert code == 0
    assert overridden == edited
    assert json.loads(overridden)["p"] == 0.4


def test_module_entry_point_writes_what_main_writes(capsys):
    """python3 -m microgrid_auction runs cli.entrypoint, which exits with
    main's code after writing main's output."""
    argv = ["scenario", "gen", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "microgrid_auction", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert (0, proc.stdout) == run_cli(capsys, argv)


def test_redistribute_inline(capsys):
    code, out = run_cli(
        capsys, ["redistribute", "--seed", "4", "--buyers", "5", "--sellers", "4"]
    )
    assert code == 0
    doc = json.loads(out)
    red = doc["redistribution"]
    assert math.fsum(red["s_r"]) == pytest.approx(math.fsum(doc["s"]), abs=1e-9)
    assert red["kappa_F"] >= -1e-12
    for s_r_j, a_j in zip(red["s_r"], doc["avails"]):
        assert s_r_j <= a_j + 1e-9
        assert s_r_j == pytest.approx(min(a_j, red["K"]), abs=1e-9)


def test_redistribute_refuses_a_trace_for_a_saved_outcome(capsys, tmp_path):
    """With --outcome no auction runs, so there is no trace to write: the
    command exits 4 naming both flags and leaves no file at the trace path."""
    outcome_path = tmp_path / "o.json"
    trace_path = tmp_path / "t.csv"
    draw = ["--seed", "3", "--buyers", "4", "--sellers", "3"]
    code, _ = run_cli(capsys, ["auction", *draw, "--out", str(outcome_path)])
    assert code == 0
    code = main(
        ["redistribute", *draw, "--outcome", str(outcome_path), "--trace-out", str(trace_path)]
    )
    err = capsys.readouterr().err
    assert code == 4
    assert "--trace-out" in err and "--outcome" in err
    assert not trace_path.exists()


def test_redistribute_saved_outcome_chain(capsys, tmp_path):
    scenario_path = tmp_path / "market.json"
    outcome_path = tmp_path / "outcome.json"
    run_cli(
        capsys,
        ["scenario", "gen", "--seed", "5", "--buyers", "4", "--sellers", "3", "--out", str(scenario_path)],
    )
    code, _ = run_cli(
        capsys,
        ["auction", "--scenario", str(scenario_path), "--out", str(outcome_path)],
    )
    assert code == 0
    code, out = run_cli(
        capsys,
        [
            "redistribute",
            "--scenario",
            str(scenario_path),
            "--outcome",
            str(outcome_path),
        ],
    )
    assert code == 0
    saved = json.loads(outcome_path.read_text())
    doc = json.loads(out)
    assert doc["bids"] == saved["bids"]
    assert "redistribution" in doc

    # outcome paired with the wrong market size is a usage error
    code, _ = run_cli(capsys, ["redistribute", "--outcome", str(outcome_path)])
    assert code == 4
    # json.load reads NaN and Infinity tokens unless the loader refuses them,
    # and an integer too large for a float overflows only on conversion
    nan_outcome = json.dumps({**saved, "bids": [math.nan, *saved["bids"][1:]], "kkt_residual": math.nan})
    huge_outcome = json.dumps({**saved, "bids": [10**400, *saved["bids"][1:]]})
    for text in ("{not json", nan_outcome, huge_outcome):
        outcome_path.write_text(text)
        code = main(["redistribute", "--scenario", str(scenario_path), "--outcome", str(outcome_path)])
        assert code == 4
        assert f"{outcome_path} is not an outcome file" in capsys.readouterr().err


def test_redistribute_rejects_a_converged_flag_that_is_not_a_boolean(capsys, tmp_path):
    # "false" is a truthy string: the outcome used to load as converged and
    # redistribute echoed "converged": true with exit 0
    scenario_path = tmp_path / "market.json"
    outcome_path = tmp_path / "outcome.json"
    main(["scenario", "gen", "--seed", "5", "--buyers", "4", "--sellers", "3", "--out", str(scenario_path)])
    main(["auction", "--scenario", str(scenario_path), "--out", str(outcome_path)])
    capsys.readouterr()
    saved = json.loads(outcome_path.read_text())
    outcome_path.write_text(json.dumps({**saved, "converged": "false"}))
    code = main(["redistribute", "--scenario", str(scenario_path), "--outcome", str(outcome_path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert f"{outcome_path} is not an outcome file: converged must be a JSON boolean" in captured.err


def test_files_with_a_string_or_boolean_for_a_number_exit_4(capsys, tmp_path):
    # float() read "0.25" and true as numbers, so both files used to load
    scenario_path = tmp_path / "market.json"
    outcome_path = tmp_path / "outcome.json"
    main(["scenario", "gen", "--seed", "5", "--buyers", "4", "--sellers", "3", "--out", str(scenario_path)])
    main(["auction", "--scenario", str(scenario_path), "--out", str(outcome_path)])
    capsys.readouterr()
    market = json.loads(scenario_path.read_text())
    saved = json.loads(outcome_path.read_text())
    bad_market = tmp_path / "bad_market.json"
    bad_market.write_text(json.dumps({**market, "p": "0.25"}))
    code = main(["auction", "--scenario", str(bad_market)])
    captured = capsys.readouterr()
    assert code == 4
    assert "p must be a JSON number, got '0.25'" in captured.err
    outcome_path.write_text(json.dumps({**saved, "d": [True, *saved["d"][1:]]}))
    code = main(["redistribute", "--scenario", str(scenario_path), "--outcome", str(outcome_path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert f"{outcome_path} is not an outcome file: d must be a JSON number, got True" in captured.err


@pytest.mark.parametrize(
    "field, value",
    [("iterations", -3), ("mu", -1.0), ("kkt_residual", -5.0)],
    ids=["iterations=-3", "mu=-1.0", "kkt_residual=-5.0"],
)
def test_redistribute_rejects_an_outcome_out_of_range(capsys, tmp_path, field, value):
    # these loaded and were echoed back with exit 0
    scenario_path = tmp_path / "market.json"
    outcome_path = tmp_path / "outcome.json"
    main(["scenario", "gen", "--seed", "5", "--buyers", "4", "--sellers", "3", "--out", str(scenario_path)])
    main(["auction", "--scenario", str(scenario_path), "--out", str(outcome_path)])
    capsys.readouterr()
    saved = json.loads(outcome_path.read_text())
    outcome_path.write_text(json.dumps({**saved, field: value}))
    code = main(["redistribute", "--scenario", str(scenario_path), "--outcome", str(outcome_path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert f"{outcome_path} is not an outcome file: {field} must be" in captured.err


_PER_AGENT_KEYS = (
    ("bids",), ("d",), ("budget_active",), ("unit_prices",), ("payoffs", "buyers"),
    ("asks",), ("avails",), ("s",), ("payoffs", "sellers"),
)


@pytest.mark.parametrize("key", _PER_AGENT_KEYS, ids=".".join)
def test_redistribute_rejects_per_agent_lists_of_unequal_length(capsys, tmp_path, key):
    # one list a buyer or seller short: before, a short bids list was echoed
    # back with exit 0 and a short avails list failed inside redistribution
    scenario_path = tmp_path / "market.json"
    outcome_path = tmp_path / "outcome.json"
    main(["scenario", "gen", "--seed", "5", "--buyers", "4", "--sellers", "3", "--out", str(scenario_path)])
    main(["auction", "--scenario", str(scenario_path), "--out", str(outcome_path)])
    capsys.readouterr()
    saved = json.loads(outcome_path.read_text())
    *parents, last = key
    holder = saved
    for name in parents:
        holder = holder[name]
    holder[last] = holder[last][:-1]
    outcome_path.write_text(json.dumps(saved))
    code = main(["redistribute", "--scenario", str(scenario_path), "--outcome", str(outcome_path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert f"{outcome_path} is not an outcome file: per-agent lists disagree in length" in captured.err


def test_experiment_command(capsys):
    code, out = run_cli(capsys, ["experiment", "case"])
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "case-study"
    assert len(doc["records"]) > 0
    code, _ = run_cli(capsys, ["experiment", "unknown-study"])
    assert code == 4


def test_help_and_usage_errors(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 4
    capsys.readouterr()
    assert main(["no-such-command"]) == 4
    capsys.readouterr()


def test_output_to_file(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, stdout = run_cli(
        capsys,
        ["clear", "--bids", "1", "--asks", "0.2", "--avails", "2", "--out", str(out_path)],
    )
    assert code == 0
    assert stdout == ""
    doc = json.loads(out_path.read_text())
    assert doc["mu"] == pytest.approx(0.5)
