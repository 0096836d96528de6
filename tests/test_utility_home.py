"""Only utility.py writes the closed forms of the log utility x*log(y*q + 1).

The value x*log1p(y*q) and the inverse marginal x/mu - 1/y live in
utility.py, in LogUtility and in the list rules that every other package
module calls. This test walks every other package module and refuses any
mention or import of log1p, and any difference `a / b - c` whose
subtrahend is a reciprocal: `1.0 / y`, or a name `inv_y` bound to one. The
marginal x*y/(y*q + 1.0), a quotient over `<product> + 1.0`, may appear
only in the engine's two per-round loops, auction_step and
_requote_sellers, which fuse it with their floor and ceiling tests, and
once in each.
"""

import ast
from collections import Counter
from pathlib import Path

import microgrid_auction

_PACKAGE = Path(microgrid_auction.__file__).parent
_HOME = "utility.py"
_WRITTEN_OUT = {"auction_step", "_requote_sellers"}


def _is_reciprocal(node):
    if isinstance(node, ast.Name):
        return node.id == "inv_y"
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 1
    )


def _is_product_plus_one(node):
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Mult)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
    )


def _form(node):
    if isinstance(node, ast.Name) and node.id == "log1p":
        return "log1p"
    if isinstance(node, ast.Attribute) and node.attr == "log1p":
        return "log1p"
    if isinstance(node, ast.alias) and node.name == "log1p":
        return "log1p"
    if isinstance(node, ast.BinOp):
        if (
            isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Div)
            and _is_reciprocal(node.right)
        ):
            return "x/mu - 1/y"
        if isinstance(node.op, ast.Div) and _is_product_plus_one(node.right):
            return "x*y/(y*q + 1.0)"
    return None


def _closed_forms(tree):
    """(line, form, enclosing function) of every closed form the tree writes."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        form = _form(node)
        if form is not None:
            found.append((node.lineno, form, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _refused(name, tree):
    return [
        (line, form, function)
        for line, form, function in _closed_forms(tree)
        if not (name == "engine.py" and form == "x*y/(y*q + 1.0)" and function in _WRITTEN_OUT)
    ]


def test_only_utility_writes_the_closed_forms():
    found = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == _HOME:
            continue
        refused = _refused(path.name, ast.parse(path.read_text(encoding="utf-8")))
        if refused:
            found[path.name] = [f"{form} at line {n} in {where}" for n, form, where in refused]
    assert not found, f"log-utility closed forms outside {_HOME}: {found}"


def test_the_engine_writes_the_marginal_out_only_in_its_per_round_loops():
    """Once in each: auction_step's one bid pass serves the extrapolating
    steps too."""
    tree = ast.parse((_PACKAGE / "engine.py").read_text(encoding="utf-8"))
    writes = Counter(
        function for _, form, function in _closed_forms(tree) if form == "x*y/(y*q + 1.0)"
    )
    assert writes == Counter(_WRITTEN_OUT)


def test_the_walk_sees_each_form():
    flagged = """
import math
v = x * math.log1p(y * q)
from math import log1p
def f(x, y, mu):
    inv_y = 1.0 / y
    return x / mu - inv_y, x / mu - 1.0 / y, x * y / (y * q + 1.0)
"""
    kept = """
v = b / d - mu
w = x / (cap + 1.0 / y)
r = (b2 - b1) / (b1 - b0)
inv_y = 1.0 / y
top = top - (g + inv_y)
"""
    forms = sorted(form for _, form, _ in _closed_forms(ast.parse(flagged)))
    assert forms == ["log1p", "log1p", "x*y/(y*q + 1.0)", "x/mu - 1/y", "x/mu - 1/y"]
    assert _closed_forms(ast.parse(kept)) == []
    in_the_loop = "def auction_step():\n    t = xy / (y * d + 1.0)\n"
    at_the_opening = "def _initial_state():\n    t = xy / (y * g + 1.0)\n"
    assert _refused("engine.py", ast.parse(in_the_loop)) == []
    assert _refused("engine.py", ast.parse(at_the_opening))
