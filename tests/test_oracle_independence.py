"""The oracles stay independent of the shortcuts they check.

``verification.propagators``, ``partial_trace_oracle`` and
``full_space_receiver`` check ``line_params_at`` and the receiver operator,
so they must not reach those, directly or through another function of
``verification``.  The full one-excitation propagator p1 and its minors
serve only the oracles: no other module defines or calls them, and every
other call of ``one_excitation_columns`` asks for the sender columns only.
"""

import ast
from pathlib import Path

import pytest

import spinline

PACKAGE = Path(spinline.__file__).parent
ORACLES = ("propagators", "partial_trace_oracle", "full_space_receiver")
SHORTCUTS = {"line_params_at", "receiver_operator", "assemble_rho"}
ORACLE_ONLY = {"propagators", "partial_trace_oracle", "pair_minors"}
LIBRARY = sorted(path for path in PACKAGE.glob("*.py") if path.name != "verification.py")


def _names(node):
    """Every name a node reads, bare or as an attribute."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _reach(tree, roots):
    """Names read by the functions ``roots``, through the module's own functions."""
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo, reached = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            names = _names(functions[name])
            reached |= names
            todo += [n for n in names if n in functions]
    return reached


def _full_p1_uses(tree):
    """Lines that define or read an oracle-only name, or form every column of p1."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ORACLE_ONLY:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Name, ast.Attribute)) and _names(node) & ORACLE_ONLY:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and "one_excitation_columns" in _names(node.func)
              and len(node.args) + len(node.keywords) < 3):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_guards_detect_violations():
    source = (
        "def propagators(s, t):\n"
        "    return _helper(s)\n"
        "def _helper(s):\n"
        "    return dynamics.one_excitation_columns(s, 1.0), line_params_at(s, 1.0)\n"
    )
    tree = ast.parse(source)
    assert _reach(tree, ["propagators"]) & SHORTCUTS == {"line_params_at"}
    assert _full_p1_uses(tree) == [1, 4]
    assert _full_p1_uses(ast.parse("one_excitation_columns(s, t, 4)\n")) == []


def test_oracles_never_reach_the_shortcuts():
    tree = ast.parse((PACKAGE / "verification.py").read_text())
    assert _reach(tree, ORACLES) & SHORTCUTS == set()


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_full_propagator_is_oracle_only(path):
    assert _full_p1_uses(ast.parse(path.read_text())) == []
