import math

import pytest

from microgrid_auction.market import MarketParams
from microgrid_auction.scenario import (
    ParameterRanges,
    Scenario,
    generate_scenario,
    load_scenario,
    scenario_from_json,
    scenario_to_json,
)


def test_same_seed_same_scenario():
    a = generate_scenario(42, 5, 5)
    b = generate_scenario(42, 5, 5)
    assert a.buyers == b.buyers
    assert a.sellers == b.sellers


def test_different_seeds_differ():
    assert generate_scenario(1, 3, 3).buyers != generate_scenario(2, 3, 3).buyers


def test_generation_bounds():
    scenario = generate_scenario(7, 40, 40)
    for buyer in scenario.buyers:
        assert 0.5 <= buyer.x <= 1.5
        assert 0.5 <= buyer.y <= 1.5
    for seller in scenario.sellers:
        assert 0.5 <= seller.x <= 1.5
        assert 2.0 <= seller.g <= 5.0


def test_empty_counts_are_valid():
    scenario = generate_scenario(0, 0, 0)
    assert scenario.buyers == ()
    assert scenario.sellers == ()
    with pytest.raises(ValueError):
        generate_scenario(0, -1, 0)


def test_centered_ranges():
    ranges = ParameterRanges.centered(0.2)
    assert ranges.buyer_x == (0.8, 1.2)
    assert ranges.seller_y == (0.8, 1.2)
    assert ranges.gen == (2.0, 5.0)
    for width in (1.0, -0.1):
        with pytest.raises(ValueError, match=rf"width must be in \[0, 1\), got {width}"):
            ParameterRanges.centered(width)
    # Each refused at construction, not at the first agent drawn.
    for bounds, message in [
        ({"buyer_x": (2.0, 1.0)}, r"buyer_x range has lo > hi: \(2.0, 1.0\)"),
        ({"buyer_x": (math.nan, 1.0)}, "buyer_x range must be positive and finite, got nan"),
        ({"buyer_x": (0.5, math.inf)}, "buyer_x range must be positive and finite, got inf"),
        ({"gen": (2.0, math.nan)}, "gen range must be positive and finite, got nan"),
        ({"seller_y": (math.nan, math.nan)}, "seller_y range must be positive and finite, got nan"),
    ]:
        with pytest.raises(ValueError, match=message):
            ParameterRanges(**bounds)


def test_json_roundtrip(tmp_path):
    scenario = generate_scenario(9, 4, 3, params=MarketParams(p=0.3))
    text = scenario_to_json(scenario)
    back = scenario_from_json(text)
    assert back.params.p == scenario.params.p
    assert back.buyers == scenario.buyers
    assert back.sellers == scenario.sellers
    # file path round trip too
    path = tmp_path / "scen.json"
    path.write_text(scenario_to_json(scenario), encoding="utf-8")
    assert load_scenario(str(path)).sellers == scenario.sellers


def test_malformed_json_is_a_value_error():
    with pytest.raises(ValueError):
        scenario_from_json("{not json")
    with pytest.raises(ValueError):
        scenario_from_json('["list", "not", "object"]')
    with pytest.raises(ValueError):
        scenario_from_json('{"p": 0.25, "buyers": [{"x": 1.0}], "sellers": []}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"p": "0.25", "buyers": [], "sellers": []}', "p must be a JSON number, got '0.25'"),
        ('{"p": 0.25, "buyers": [{"x": true, "y": 1.0}], "sellers": []}',
         "buyer x must be a JSON number, got True"),
        ('{"p": 0.25, "buyers": [], "sellers": [{"x": 0.2, "y": 1.0, "g": "2"}]}',
         "seller g must be a JSON number, got '2'"),
    ],
    ids=["p string", "x boolean", "g string"],
)
def test_scenario_reads_only_json_numbers_as_numbers(text, message):
    # float("0.25") and float(True) would read a string or a boolean as one
    with pytest.raises(ValueError) as err:
        scenario_from_json(text)
    assert str(err.value) == message
