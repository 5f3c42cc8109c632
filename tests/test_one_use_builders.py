"""No cached property in ``src/dro`` only wraps a one-use builder.

A cached property whose whole body, past its docstring, is ``return
f(...)``, with ``f`` a module-level function that nothing else in
``src/dro`` names, states one table in two places: the builder and the
property.  The builder's body belongs in the property, the one home of
that table.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dro"


def _is_cached_property(decorator) -> bool:
    name = decorator.id if isinstance(decorator, ast.Name) else getattr(decorator, "attr", None)
    return name == "cached_property"


def _returned_call(func) -> str | None:
    """``f`` when the body of ``func`` past its docstring is ``return f(...)``."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) == 1 and isinstance(body[0], ast.Return) and isinstance(body[0].value, ast.Call):
        return getattr(body[0].value.func, "id", None)
    return None


def one_use_wrappers(sources: dict) -> list[str]:
    """``module:Class.property`` for each cached property of ``sources``
    (module name to source) that only returns ``f(...)``, with ``f`` a
    module-level function that no other line of ``sources`` names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    builders = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.FunctionDef)}
    named = collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )
    found = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for func in cls.body:
                if isinstance(func, ast.FunctionDef) and any(map(_is_cached_property, func.decorator_list)):
                    f = _returned_call(func)
                    if f in builders and named[f] == 1:
                        found.append(f"{module}:{cls.name}.{func.name}")
    return sorted(found)


def test_checker_finds_one_use_wrappers():
    source = (
        "import functools\n"
        "from functools import cached_property\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def wraps(self):\n"
        "        '''A table.'''\n"
        "        return _build(self)\n"
        "    @cached_property\n"
        "    def bare(self):\n"
        "        return _other(self, 2)\n"
        "    @cached_property\n"
        "    def shared(self):\n"
        "        return _shared(self)\n"
        "    @property\n"
        "    def plain(self):\n"
        "        return _plain(self)\n"
        "    @cached_property\n"
        "    def method(self):\n"
        "        return self._build_method()\n"
        "    @cached_property\n"
        "    def two_lines(self):\n"
        "        table = _two(self)\n"
        "        return table\n"
        "    @cached_property\n"
        "    def builtin(self):\n"
        "        return len(self.items)\n"
        "def _build(a): return a\n"
        "def _other(a, b): return b\n"
        "def _shared(a): return a\n"
        "def _plain(a): return a\n"
        "def _two(a): return a\n"
    )
    other = "from .a import _shared\ndef g(a):\n    return _shared(a)\n"
    assert one_use_wrappers({"a": source, "b": other}) == ["a:A.bare", "a:A.wraps"]
    assert one_use_wrappers({"a": source}) == ["a:A.bare", "a:A.shared", "a:A.wraps"]


def test_no_cached_property_only_wraps_a_one_use_builder():
    sources = {path.relative_to(SRC).as_posix(): path.read_text() for path in sorted(SRC.rglob("*.py"))}
    assert one_use_wrappers(sources) == []
