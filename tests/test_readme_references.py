"""Every module-qualified code reference in README.md names something the
package defines, so a rename or removal cannot leave the README behind."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import dro

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(dro.__path__))
# a backticked `dro.<module>.<name>[.<attr>]` or `<module>.<name>[.<attr>]`,
# maybe with a call's arguments; `<module>.py` names a file
_REFERENCE = re.compile(r"`((?:dro\.)?(?:%s)(?:\.\w+)+)(?:\([^`]*\))?`" % "|".join(MODULES))


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
