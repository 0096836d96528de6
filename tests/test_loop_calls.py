"""No package module pays a builtin min or max call, or an input check, per
element of a loop.

A per-agent loop spells min(u, v) as `v if v < u else u` and max(u, v) as
`v if v > u else u`, CPython's own rule, which gives the same floats at
ties, -0.0 and NaN; and it checks a whole list with one call of
check_nonnegative or check_positive before the loop, not one per agent.
This test walks every package module and refuses a call to min or max with
two or more arguments, or to either check, anywhere a `for` loop or a
comprehension repeats it. What a loop or comprehension evaluates once, its
first iterable, is not repeated and may make such a call.
"""

import ast
from pathlib import Path

import microgrid_auction

_PACKAGE = Path(microgrid_auction.__file__).parent
_CHECKS = {"check_nonnegative", "check_positive"}
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _repeated(tree):
    """Every node that a for loop or a comprehension evaluates per element."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for stmt in node.body:
                yield from ast.walk(stmt)
            yield from ast.walk(node.target)
        elif isinstance(node, _COMPREHENSIONS):
            first, *rest = node.generators
            parts = [first.target, *first.ifs, *rest]
            parts += [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for part in parts:
                yield from ast.walk(part)


def _per_element_calls(tree):
    for node in _repeated(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name in _CHECKS or (name in ("min", "max") and len(node.args) >= 2):
                yield node.lineno, name


def test_no_loop_calls_min_max_or_a_check_per_element():
    found = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = sorted(set(_per_element_calls(tree)))
        if calls:
            found[path.name] = [f"{name}() at line {line}" for line, name in calls]
    assert not found, f"per-element builtin min/max or input checks: {found}"


def test_the_walk_sees_loops_and_comprehensions():
    flagged = """
for v in values:
    w = max(v, 0.0)
x = [min(a, b) for a, b in pairs]
y = {k: check_positive("k", k) for k in keys}
for a in values:
    for b in values:
        check_nonnegative("b", b)
"""
    kept = """
top = max(p, max(uppers))
z = [v for v in max(a, b) if v]
for v in max(a, b):
    pass
check_positive("weights", *weights)
"""
    assert len(set(_per_element_calls(ast.parse(flagged)))) == 4
    assert list(_per_element_calls(ast.parse(kept))) == []
