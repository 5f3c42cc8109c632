"""Every function, class and method that ``src/dro`` defines is used by the
program, not by the tests alone.

A top-level function or class, or a non-dunder method of a top-level class,
counts as used when its name appears as a ``NAME`` token anywhere else in
``src/dro`` or anywhere in ``perfbench/``.  Tests do not count: an API that
only a test calls belongs in the tests.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dro"


def definitions(source: str) -> list[str]:
    """The names of the module's top-level functions and classes and of its
    top-level classes' non-dunder methods."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return out


def name_tokens(sources) -> Counter:
    """How often each ``NAME`` token occurs across ``sources``."""
    counts = Counter()
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
    return counts


def unused_definitions(program: dict[str, str], others: list[str]) -> list[str]:
    """``module:name`` of each definition in ``program`` (module -> source)
    whose name occurs nowhere in ``program`` but at its own definition, and
    nowhere in ``others``."""
    in_program = name_tokens(program.values())
    in_others = name_tokens(others)
    return sorted(
        f"{module}:{name}"
        for module, source in program.items()
        for name in definitions(source)
        if in_program[name] < 2 and not in_others[name]
    )


def test_checker_finds_unused_definitions():
    program = {
        "a": "def used():\n    pass\ndef lonely():\n    pass\n"
        "class K:\n    def __init__(self):\n        pass\n    def method(self):\n        pass\n",
        "b": "from a import used, K\nused()\n",
    }
    assert unused_definitions(program, ["K().method()\n"]) == ["a:lonely"]
    assert unused_definitions(program, []) == ["a:lonely", "a:method"]


def test_every_definition_is_used_outside_the_tests():
    program = {p.relative_to(SRC).as_posix(): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    others = [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unused_definitions(program, others) == []
