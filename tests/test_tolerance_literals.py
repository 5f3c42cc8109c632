"""Every tolerance in ``src/dro`` is named in ``dro.tolerances``.

A float literal below 1e-3 in the library is a tolerance written out where
it is used; this test fails on any outside ``tolerances.py``.
``selfcheck.py`` is exempt: its literals are the ``dro validate`` check
bounds, which are part of each check's definition.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dro"
EXEMPT = {"tolerances.py", "selfcheck.py"}
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name not in EXEMPT)


def small_float_literals(source: str) -> list[tuple[int, float]]:
    """``(line, value)`` of each nonzero float literal below 1e-3 in size."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-3
    ]


def test_checker_finds_small_literals():
    source = "x = 1e-12\ny = -1e-8\nz = 0.0 + 0.5 + 1e-3\nw = 10**-9\n"
    assert small_float_literals(source) == [(1, 1e-12), (2, 1e-8)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_tolerance_literal_outside_tolerances(path):
    assert small_float_literals(path.read_text()) == []
