"""The public API resolves: every name cmod exports, and every name the
README's "Library use" section writes in backticks."""

import importlib
import re

import pytest

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



def test_a_token_is_a_tuple_and_an_error_carries_its_offset():
    # as "Library use" describes them: no Token class, plain
    # (kind, lexeme, offset, source) tuples, errors with offset, line and column
    assert "Token" not in cmod.__all__ and not hasattr(cmod, "Token")
    assert cmod.tokenize("x =") == [("ident", "x", 0, "x ="), ("punct", "=", 2, "x ="), ("eof", "", 3, "x =")]
    with pytest.raises(cmod.ParseError) as parse_error:
        cmod.parse_program(cmod.tokenize("x ="))
    with pytest.raises(cmod.LexError) as lex_error:
        cmod.tokenize("x =\n\t$")
    for info, position in [(parse_error, (3, 1, 4)), (lex_error, (5, 2, 2))]:
        assert (info.value.offset, info.value.line, info.value.column) == position
        assert str(info.value).startswith("%d:%d: " % position[1:])
