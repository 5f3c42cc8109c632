"""Every module-qualified code reference in README.md names something the
package defines, and every call it writes out names that function's
parameters, so a rename or removal cannot leave the README behind."""

import dataclasses
import importlib
import inspect
import keyword
import pkgutil
import re
from pathlib import Path

import dro

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(dro.__path__))
# a backticked `dro.<module>.<name>[.<attr>]` or `<module>.<name>[.<attr>]`,
# maybe with a call's arguments; `<module>.py` names a file
_REFERENCE = re.compile(r"`((?:dro\.)?(?:%s)(?:\.\w+)+)(?:\([^`]*\))?`" % "|".join(MODULES))
# a backticked call `[dro.][<module>.]<name>(<args>)`
_CALL = re.compile(r"`((?:dro\.)?(?:(%s)\.)?(\w+)\(([^`()]*)\))`" % "|".join(MODULES))


def references():
    found = {m if m.startswith("dro.") else f"dro.{m}" for m in _REFERENCE.findall(README.read_text())}
    return sorted(ref for ref in found if not ref.endswith(".py"))


def resolves(ref: str) -> bool:
    """Whether each part of ``ref`` after ``dro`` is an attribute, a
    submodule or a dataclass field of the part before it."""
    obj, path = dro, "dro"
    for part in ref.split(".")[1:]:
        path = f"{path}.{part}"
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            obj = None
        else:
            try:
                obj = importlib.import_module(path)
            except ImportError:
                return False
    return True


def test_readme_has_module_references():
    # the pattern still matches the README's references
    assert len(references()) > 20


def test_every_readme_reference_resolves():
    assert [ref for ref in references() if not resolves(ref)] == []


def defined_functions() -> dict:
    """Each function name -> the functions of that name that the modules of
    ``dro`` define (not those they import)."""
    out = {}
    for info in pkgutil.walk_packages(dro.__path__, "dro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.setdefault(name, []).append(obj)
    return out


def calls():
    """Each backticked call of a function defined in ``dro`` as
    ``(text, functions, identifier arguments)``: the one function a
    module-qualified call names, or every function a bare name could be;
    literal and expression arguments are left out."""
    defined = defined_functions()
    out = []
    for text, module, name, args in _CALL.findall(README.read_text()):
        if module:
            fn = getattr(importlib.import_module(f"dro.{module}"), name, None)
            fns = [fn] if inspect.isfunction(fn) else []
        else:
            fns = defined.get(name, [])
        words = [a.strip() for a in args.split(",")]
        if fns:
            out.append((text, fns, [w for w in words if w.isidentifier() and not keyword.iskeyword(w)]))
    return out


def test_readme_has_calls():
    # the pattern still matches the README's calls
    assert len(calls()) >= 3


def test_readme_calls_follow_signatures():
    found = calls()
    assert [text for text, fns, _ in found if len(fns) > 1] == []
    stale = [
        f"{text}: {arg}"
        for text, (fn,), args in found
        for arg in args
        if arg not in inspect.signature(fn).parameters
    ]
    assert stale == []
