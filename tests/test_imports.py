"""Every package module uses each name it imports, and imports no private
name from another package module.

A stdlib stand-in for a linter's unused-import rule. A name counts as used
when it appears anywhere in the module, string annotations included, such as
"AuctionOutcome" behind an ``if TYPE_CHECKING:`` import. A name that starts
with an underscore belongs to its own module: one that another module needs
is public, or lives where both can reach it.
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


def test_modules_import_no_private_name_from_each_other():
    private = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").partition(".")[0] == _PACKAGE.name
            )
            if internal:
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
                if names:
                    private.setdefault(path.name, []).extend(names)
    assert not private, f"private names imported from another package module: {private}"
