"""The public API resolves: every name cmod exports, and every name the
README's "Library use" section writes in backticks."""

import importlib
import re

import cmod
from conftest import ROOT

# A backticked span naming an attribute of cmod or a dotted path, with
# an optional argument list; spans such as `q/0` are not names.
NAME = re.compile(r"^([A-Za-z_][\w.]*)(\(.*\))?$")


def resolve(path: str):
    parts = path.split(".")
    if parts[0] != "cmod":
        parts.insert(0, "cmod")
    obj = cmod
    for i in range(1, len(parts)):
        try:
            obj = getattr(obj, parts[i])
        except AttributeError:
            obj = importlib.import_module(".".join(parts[: i + 1]))
    return obj


def library_use_names() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    prose = "".join(section.split("```")[::2])  # outside fenced blocks
    spans = re.findall(r"`([^`]+)`", prose)
    return [m.group(1) for m in map(NAME.match, spans) if m]


def test_every_exported_name_resolves():
    missing = [name for name in cmod.__all__ if not hasattr(cmod, name)]
    assert missing == []


def test_every_name_in_library_use_resolves():
    names = library_use_names()
    assert "execute" in names and "cmod.ast.map_children" in names
    for name in names:
        resolve(name)  # raises on a name that does not exist
