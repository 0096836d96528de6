"""The controller never sees a private utility; each agent reads its own row.

The paper's mechanism rests on an information boundary, and engine.py
holds both of its sides. This test walks the source and holds three rules:

- controller: no function of clearing.py, nor engine._stationary, nor the
  clearing call in auction_step, names the agents (buyers, sellers), their
  constants (buyer_constants, seller_constants), a parameter x, y or g, or
  a utility response rule;
- agents: _extrapolate, _requote_sellers and the bid loop of auction_step
  subscript a per-agent list only by their own loop index, and reduce no
  list with sum, fsum, min or max;
- evaluator: outside _initial_state, where each agent builds its own
  constants, the agents are read only to be carried into the next state or
  opened, and by the two known evaluator reads, settlement's
  compute_payoffs and the trace's social_welfare.
"""

import ast
from pathlib import Path

import microgrid_auction

_PACKAGE = Path(microgrid_auction.__file__).parent
_AGENTS = {"buyers", "sellers"}
_PRIVATE_NAMES = _AGENTS | {"buyer_constants", "seller_constants"}
_PRIVATE_ATTRS = _PRIVATE_NAMES | {"x", "y", "g"}
_REDUCTIONS = {"sum", "fsum", "min", "max"}
_EVALUATOR_READS = {("_settle", "compute_payoffs"), ("run_auction", "social_welfare")}
_CARRIED = {("auction_step", "AuctionState"), ("run_auction", "_initial_state")}


def _source(module):
    return (_PACKAGE / module).read_text(encoding="utf-8")


def _functions(tree):
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _response_rules():
    """The utility module's response rules, as (its functions and classes
    but the check_* input rules, the LogUtility methods)."""
    names, methods = set(), set()
    for node in ast.parse(_source("utility.py")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("check_"):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods.update(
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                )
    return names, methods


def _imported_rules(tree, names):
    """The names a module binds to utility's response rules, or to the
    utility module itself."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "utility":
            bound.update(alias.asname or alias.name for alias in node.names if alias.name in names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            bound.update(
                alias.asname or alias.name for alias in node.names if alias.name == "utility"
            )
    return bound


def _private_reads(node, bound, methods):
    """Each private name, parameter or response rule that node names. A
    name the function binds itself, such as clear_market_proximal's list
    of quoted sellers, is its own and no read."""
    own = {
        child.id for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store)
    }
    found = []
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id not in own and (
            child.id in _PRIVATE_NAMES or child.id in bound
        ):
            found.append(child.id)
        elif isinstance(child, ast.Attribute) and child.attr in _PRIVATE_ATTRS:
            found.append("." + child.attr)
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in methods
        ):
            found.append("." + child.func.attr + "()")
    return found


def _controller_reads(sources):
    """{function: private reads} over the controller side, for sources
    {module name: source text}: every function of clearing.py, engine's
    _stationary, and the clearing call in engine's auction_step."""
    names, methods = _response_rules()
    reads = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        bound = _imported_rules(tree, names)
        functions = _functions(tree)
        if module == "clearing.py":
            # top-level functions and methods, each with its nested ones
            outer = [node for node in tree.body if isinstance(node, ast.ClassDef)] + [tree]
            checked = {
                item.name: [item] for node in outer for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
        else:
            checked = {"_stationary": [functions["_stationary"]]}
            checked["auction_step: clearing call"] = [
                node for node in ast.walk(functions["auction_step"])
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "clear_market_proximal"
            ]
        for name, nodes in checked.items():
            assert nodes, name
            found = [read for node in nodes for read in _private_reads(node, bound, methods)]
            if found:
                reads[f"{module}:{name}"] = found
    return reads


def _row_index(target):
    """The loop index a plain `for j in ...` binds; an unpacking binds none."""
    return {target.id} if isinstance(target, ast.Name) else set()


def _off_row(node, indices=frozenset()):
    """Each subscript under node by anything but an enclosing loop's index,
    and each call of a reduction."""
    found = []
    if isinstance(node, ast.FunctionDef):
        # the body only: a type annotation subscripts no list
        for child in node.body:
            found += _off_row(child, indices)
        return found
    if isinstance(node, ast.For):
        found += _off_row(node.iter, indices)
        inner = indices | _row_index(node.target)
        for child in node.body + node.orelse:
            found += _off_row(child, inner)
        return found
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)):
        indices = indices.union(*(_row_index(gen.target) for gen in node.generators))
    if isinstance(node, ast.Subscript):
        if not (isinstance(node.slice, ast.Name) and node.slice.id in indices):
            found.append(ast.unparse(node))
    if isinstance(node, ast.Call):
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if callee in _REDUCTIONS:
            found.append(ast.unparse(node))
    for child in ast.iter_child_nodes(node):
        found += _off_row(child, indices)
    return found


def _agent_reads_off_row(source):
    """{function: off-row reads} over the agent side of engine source: the
    whole of _extrapolate and _requote_sellers, and every comprehension of
    auction_step."""
    functions = _functions(ast.parse(source))
    loops = {name: [functions[name]] for name in ("_extrapolate", "_requote_sellers")}
    loops["auction_step"] = [
        node for node in ast.walk(functions["auction_step"]) if isinstance(node, ast.ListComp)
    ]
    assert loops["auction_step"]
    reads = {}
    for name, nodes in loops.items():
        found = [read for node in nodes for read in _off_row(node)]
        if found:
            reads[name] = found
    return reads


def _agent_reads(source):
    """{(function, callee)} for every read of the agents outside
    _initial_state, each an argument of a call; callee None for a read that
    is not."""
    reads = set()
    for name, function in _functions(ast.parse(source)).items():
        if name == "_initial_state":
            continue
        passed = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                arguments = node.args + [keyword.value for keyword in node.keywords]
                for argument in arguments:
                    if _names_agents(argument):
                        reads.add((name, ast.unparse(node.func)))
                        passed.add(id(argument))
        for node in ast.walk(function):
            if _names_agents(node) and id(node) not in passed:
                reads.add((name, None))
    return reads


def _names_agents(node):
    return (isinstance(node, ast.Name) and node.id in _AGENTS) or (
        isinstance(node, ast.Attribute) and node.attr in _AGENTS
    )


def test_the_controller_reads_no_private_utility():
    sources = {module: _source(module) for module in ("clearing.py", "engine.py")}
    assert _controller_reads(sources) == {}


def test_each_agent_reads_its_own_row_only():
    assert _agent_reads_off_row(_source("engine.py")) == {}


def test_the_evaluator_reads_are_the_only_exceptions():
    assert _agent_reads(_source("engine.py")) == _CARRIED | _EVALUATOR_READS


_BREACHES = '''
from .utility import check_count, marginals

def _stationary(before, after, config):
    return before.seller_constants == after.seller_constants

def _extrapolate(b0s, b1s, b2s, d0s, d1s, constants):
    return [b + max(b2s) for b in b0s]

def _requote_sellers(state, s_new):
    for j in range(len(s_new)):
        state.asks[j] = state.asks[j - 1]
    return state

def auction_step(state, config):
    result = clear_market_proximal(state.bids, marginals(state.sellers, state.prev_s))
    bids = [b * state.bids[0] for b in state.bids]
    return AuctionState(buyers=state.buyers, bids=bids)

def _settle(state, converged, trace):
    return compute_payoffs(state.buyers, state.sellers)

def run_auction(buyers, sellers, params, config):
    state = _initial_state(buyers, sellers, params)
    peek = state.sellers[0]
    return welfare(state.buyers, state.sellers)
'''


def test_the_walk_sees_each_breach():
    assert _controller_reads({"engine.py": _BREACHES}) == {
        "engine.py:_stationary": [".seller_constants", ".seller_constants"],
        "engine.py:auction_step: clearing call": ["marginals", ".sellers"],
    }
    method_call = "def f(s):\n    return s.utility.marginal(0.0)\n"
    assert _controller_reads({"clearing.py": method_call}) == {"clearing.py:f": [".marginal()"]}
    assert _agent_reads_off_row(_BREACHES) == {
        "_extrapolate": ["max(b2s)"],
        "_requote_sellers": ["state.asks[j - 1]"],
        "auction_step": ["state.bids[0]"],
    }
    assert _agent_reads(_BREACHES) == {
        ("auction_step", "marginals"),
        ("auction_step", "AuctionState"),
        ("_settle", "compute_payoffs"),
        ("run_auction", "_initial_state"),
        ("run_auction", None),
        ("run_auction", "welfare"),
    }
