import json
import math

import pytest
from hypothesis import given, strategies as st

from microgrid_auction.engine import run_auction
from microgrid_auction.market import BuyerState, MarketParams, SellerState
from microgrid_auction.serialize import (
    csv_cell,
    dumps,
    format_float,
    load_outcome,
    outcome_payload,
    to_csv,
)


def test_floats_print_17_significant_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1.0"
    assert format_float(-2.5) == "-2.5"


def test_dumps_known_document():
    doc = {"p": 0.25, "items": [1, 2.5, None, True, "a,b"], "empty": {}}
    text = dumps(doc)
    assert json.loads(text) == doc


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ({"mu": math.nan}, ValueError, "cannot serialize non-finite number nan"),
        ([-math.inf], ValueError, "cannot serialize non-finite number -inf"),
        ({1: 2.0}, TypeError, "JSON object keys must be strings, got 1"),
        ({"ids": {3, 4}}, TypeError, "cannot serialize set"),
    ],
    ids=["nan", "infinity", "integer key", "set"],
)
def test_dumps_refuses_what_json_cannot_hold(doc, error, message):
    with pytest.raises(error, match=message):
        dumps(doc)


@given(
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_float_roundtrip_exact(value):
    assert float(format_float(value)) == value


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**53), max_value=2**53),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=20),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=20,
    )
)
def test_dumps_parses_back(doc):
    parsed = json.loads(dumps(doc))

    def eq(a, b):
        if isinstance(a, float) or isinstance(b, float):
            return float(a) == float(b) or (math.isnan(a) and math.isnan(b))
        if isinstance(a, list):
            return len(a) == len(b) and all(eq(x, y) for x, y in zip(a, b))
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(eq(a[k], b[k]) for k in a)
        return a == b

    assert eq(doc, parsed)


def test_csv_cells():
    assert csv_cell(None) == ""
    assert csv_cell(True) == "true"
    assert csv_cell(3) == "3"
    assert csv_cell("with,comma") == '"with,comma"'
    assert csv_cell('say "hi"') == '"say ""hi"""'


def test_to_csv_sequence_rows():
    header = ("a", "b")
    text = to_csv(header, [[1, None], (2.5, "x")])
    assert text == "a,b\n1,\n2.5,x\n"
    with pytest.raises(ValueError, match="row width 1 vs header width 2"):
        to_csv(header, [[1]])


def test_outcome_file_round_trips_byte_for_byte(tmp_path):
    # buyer 0 is priced out, so its unit price is null
    buyers = [BuyerState(0.2, 1.0), BuyerState(1.0, 1.0), BuyerState(0.9, 1.5)]
    sellers = [SellerState(0.2, 1.0, 4.0), SellerState(0.3, 1.4, 3.0)]
    outcome = run_auction(buyers, sellers, MarketParams())
    assert outcome.unit_prices[0] is None
    text = dumps(outcome_payload(outcome))
    path = tmp_path / "outcome.json"
    path.write_text(text, encoding="utf-8")
    assert dumps(outcome_payload(load_outcome(str(path)))) == text


def test_loaded_outcome_keeps_the_files_residual(tmp_path):
    # A solver's result computes its residual when first read; a loaded one
    # reports what the file holds, not a residual of the file's numbers.
    outcome = run_auction([BuyerState(1.0, 1.0)], [SellerState(0.2, 1.0, 4.0)], MarketParams())
    payload = {**outcome_payload(outcome), "d": [1e308], "kkt_residual": 0.5}
    path = tmp_path / "outcome.json"
    path.write_text(dumps(payload), encoding="utf-8")
    assert load_outcome(str(path)).clearing.kkt_residual == 0.5


_MISTYPED = [
    ("converged", "false", "converged must be a JSON boolean, got 'false'"),
    ("converged", 0, "converged must be a JSON boolean, got 0"),
    ("budget_active", ["no"], "budget_active must be a JSON boolean, got 'no'"),
    ("iterations", 7.9, "iterations must be a JSON integer, got 7.9"),
    ("iterations", 7.0, "iterations must be a JSON integer, got 7.0"),
    ("iterations", True, "iterations must be a JSON integer, got True"),
]


@pytest.mark.parametrize(
    "field, value, message", _MISTYPED, ids=[f"{field}={value}" for field, value, _ in _MISTYPED]
)
def test_load_outcome_requires_json_booleans_and_an_integer_count(tmp_path, field, value, message):
    # bool("false") is True and int(7.9) is 7, so converting would accept them
    outcome = run_auction([BuyerState(1.0, 1.0)], [SellerState(0.2, 1.0, 4.0)], MarketParams())
    path = tmp_path / "outcome.json"
    path.write_text(dumps({**outcome_payload(outcome), field: value}), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_outcome(str(path))
    assert str(err.value) == f"{path} is not an outcome file: {message}"


_OUT_OF_RANGE = [
    ("iterations", -3, "iterations must be >= 0, got -3"),
    ("mu", -1.0, "mu must be positive or null, got -1.0"),
    ("mu", 0.0, "mu must be positive or null, got 0.0"),
    ("kkt_residual", -5.0, "kkt_residual must be >= 0, got -5.0"),
]


@pytest.mark.parametrize(
    "field, value, message", _OUT_OF_RANGE, ids=[f"{field}={value}" for field, value, _ in _OUT_OF_RANGE]
)
def test_load_outcome_refuses_values_no_auction_writes(tmp_path, field, value, message):
    outcome = run_auction([BuyerState(1.0, 1.0)], [SellerState(0.2, 1.0, 4.0)], MarketParams())
    path = tmp_path / "outcome.json"
    path.write_text(dumps({**outcome_payload(outcome), field: value}), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_outcome(str(path))
    assert str(err.value) == f"{path} is not an outcome file: {message}"


_NOT_NUMBERS = [
    ({"p": "0.25"}, "p must be a JSON number, got '0.25'"),
    ({"d": [True]}, "d must be a JSON number, got True"),
    ({"mu": "0.3"}, "mu must be a JSON number, got '0.3'"),
    ({"unit_prices": [False]}, "unit_prices must be a JSON number, got False"),
    ({"payoffs": {"buyers": [0.0], "sellers": [0.0], "mc_revenue": "0.1"}},
     "payoffs.mc_revenue must be a JSON number, got '0.1'"),
]


@pytest.mark.parametrize(
    "fields, message", _NOT_NUMBERS, ids=[next(iter(fields)) for fields, _ in _NOT_NUMBERS]
)
def test_load_outcome_reads_only_json_numbers_as_numbers(tmp_path, fields, message):
    # float("0.25") and float(True) would read a string or a boolean as one
    outcome = run_auction([BuyerState(1.0, 1.0)], [SellerState(0.2, 1.0, 4.0)], MarketParams())
    path = tmp_path / "outcome.json"
    path.write_text(dumps({**outcome_payload(outcome), **fields}), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_outcome(str(path))
    assert str(err.value) == f"{path} is not an outcome file: {message}"
