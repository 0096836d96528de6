"""clearing.py settles every sold-out round through one exit.

A round is sold out when demand at the top breakpoint exceeds all that is
offered, and then every seller sells its whole availability. clear_market
meets that case in the else of its merit-order walk, and
clear_market_proximal at its two `total_bid / top > total_avail` screens,
the first of which makes no pass over the sellers. This test walks
clearing.py and refuses a sold-out branch that does not end by returning a
call of the one exit function, and any other function that builds the
allocation `map(abs, avails)`.
"""

import ast
from pathlib import Path

import microgrid_auction

_CLEARING = Path(microgrid_auction.__file__).parent / "clearing.py"
_EXIT = "_sold_out"


def _is_sold_out_test(node):
    return (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], ast.Gt)
        and ast.unparse(node.left) == "total_bid / top"
        and ast.unparse(node.comparators[0]) == "total_avail"
    )


def _functions(tree):
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)]


def _sold_out_branches(tree):
    """(function, body) of each sold-out branch: every `if` testing
    total_bid / top > total_avail, and the else of clear_market's walk."""
    found = []
    for function in _functions(tree):
        for node in ast.walk(function):
            if isinstance(node, ast.If) and _is_sold_out_test(node.test):
                found.append((function.name, node.body))
            elif isinstance(node, ast.For) and node.orelse and function.name == "clear_market":
                found.append((function.name, node.orelse))
    return found


def _exit_of(body):
    """The function whose call the branch returns last, or None."""
    last = body[-1]
    if (
        isinstance(last, ast.Return)
        and isinstance(last.value, ast.Call)
        and isinstance(last.value.func, ast.Name)
    ):
        return last.value.func.id
    return None


def _allocation_builders(tree):
    """Every function that builds the allocation map(abs, avails)."""
    return {
        function.name
        for function in _functions(tree)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node) == "map(abs, avails)"
    }


def test_every_sold_out_branch_leaves_through_one_exit():
    tree = ast.parse(_CLEARING.read_text(encoding="utf-8"))
    exits = sorted((function, _exit_of(body)) for function, body in _sold_out_branches(tree))
    assert exits == [
        ("clear_market", _EXIT),
        ("clear_market_proximal", _EXIT),
        ("clear_market_proximal", _EXIT),
    ]
    assert _allocation_builders(tree) == {_EXIT}


def test_the_walk_sees_each_exit():
    two_exits = """
def clear_market():
    for value in levels:
        pass
    else:
        mu = max(total_bid / total_avail, top)
    return _settle(mu, s)
def clear_market_proximal():
    if total_bid / top > total_avail:
        return _all_capped(mu)
    if total_bid / top > total_avail:
        return _settle(mu, allocations(mu))
def _all_capped(mu):
    return _settle(mu, list(map(abs, avails)))
def _settle(mu, s):
    return list(map(abs, avails))
"""
    tree = ast.parse(two_exits)
    exits = sorted((function, _exit_of(body)) for function, body in _sold_out_branches(tree))
    assert exits == [
        ("clear_market", None),
        ("clear_market_proximal", "_all_capped"),
        ("clear_market_proximal", "_settle"),
    ]
    assert _allocation_builders(tree) == {"_all_capped", "_settle"}
