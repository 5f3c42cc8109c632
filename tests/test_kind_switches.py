"""No code in ``src/dro`` switches on a scenario kind outside that kind's class.

What a scenario kind means (its shape rules, rows, part of the box lowering
and JSON form) lives in its class in ``dro.model``; a type test elsewhere
keeps a second copy of that decision.  A type switch is
``isinstance(x, K)`` or ``issubclass(x, K)`` with ``K`` among the kinds
(alone or in a tuple), a comparison ``x is K``, ``x == K`` or their
negations, or a membership test ``type(x) in ...``.  Code inside the body of
a kind's own class may test for that kind, and for no other.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dro"
MODULES = sorted(SRC.rglob("*.py"))
KINDS = {"Exact", "Interval", "SemiBandit", "Bandit"}


def _names_kind(node, kinds) -> bool:
    if isinstance(node, ast.Tuple):
        return any(_names_kind(e, kinds) for e in node.elts)
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in kinds


def _is_type_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "type"


def _switches(node, kinds) -> bool:
    """Whether ``node`` is a type switch on one of ``kinds``, or on any type
    by membership."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
        return len(node.args) == 2 and _names_kind(node.args[1], kinds)
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, sides, sides[1:]):
            if isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) and (
                _names_kind(left, kinds) or _names_kind(right, kinds)
            ):
                return True
            if isinstance(op, (ast.In, ast.NotIn)) and _is_type_call(left):
                return True
    return False


def kind_switches(source: str) -> list[int]:
    """The lines of ``source`` that switch on a scenario kind outside the
    body of that kind's own class."""
    lines = []

    def visit(node, kinds):
        if isinstance(node, ast.ClassDef) and node.name in KINDS:
            kinds = KINDS - {node.name}
        if _switches(node, kinds):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, kinds)

    visit(ast.parse(source), KINDS)
    return sorted(set(lines))


def test_checker_finds_kind_switches():
    source = (
        "class Exact:\n"
        "    def same(self, other):\n"
        "        return isinstance(other, Exact)\n"
        "    def other(self, s):\n"
        "        return isinstance(s, Bandit)\n"
        "def f(s, kind, table):\n"
        "    a = isinstance(s, Interval)\n"
        "    b = isinstance(s, (int, model.Bandit))\n"
        "    c = kind is SemiBandit\n"
        "    d = type(s) in table\n"
        "    e = isinstance(s, DataScenario) or type(s) is dict\n"
        "    g = kind is not Exact and issubclass(kind, Bandit)\n"
        "    return s.to_dict(), InvertedInterval, Exact(1.0)\n"
    )
    assert kind_switches(source) == [5, 7, 8, 9, 10, 12]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_kind_switch_outside_the_kinds(path):
    assert kind_switches(path.read_text()) == []
