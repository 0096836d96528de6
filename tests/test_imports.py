"""Every package module uses each name it imports.

A stdlib stand-in for a linter's unused-import rule. A name counts as used
when it appears anywhere in the module, string annotations included, such as
"AuctionOutcome" behind an ``if TYPE_CHECKING:`` import.
"""

import ast
from pathlib import Path

import microgrid_auction

_PACKAGE = Path(microgrid_auction.__file__).parent


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def test_modules_use_every_name_they_import():
    unused = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = sorted(set(_imported(tree)) - _used(tree))
        if names:
            unused[path.name] = names
    assert not unused, f"imported but never used: {unused}"
