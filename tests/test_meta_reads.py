"""Only ``dro.problems`` reads a generated family's ``meta`` fields.

``dro.problems.family_problem`` is the one place that turns ``meta`` into a
family's structure and problem; any other module that reads a key of it
(``meta[...]`` or ``meta.get(...)``, on a name or an attribute called
``meta``) keeps a second copy of the family schema.  Writing a key, as
``dro gen`` writes the mcp seed, is not a read.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "problems.py")


def _is_meta(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "meta") or (
        isinstance(node, ast.Attribute) and node.attr == "meta"
    )


def meta_reads(source: str) -> list[int]:
    """The lines of ``source`` that read a key of a ``meta``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        subscript = isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and _is_meta(node.value)
        get = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and _is_meta(node.func.value)
        )
        if subscript or get:
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_meta_reads():
    source = (
        "def f(inst, meta, d):\n"
        "    inst.meta['seed'] = 1\n"
        "    a = inst.meta['n1']\n"
        "    b = meta.get('h')\n"
        "    c = d.get('meta', {})\n"
        "    return g(inst.meta), meta['r'] + 1\n"
    )
    assert meta_reads(source) == [3, 4, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_meta_reads_outside_problems(path):
    assert meta_reads(path.read_text()) == []
