"""Tokenizer for cmod source text.

Source files are UTF-8. One pattern, ``_TOKEN``, reads a token at a time:
first any spaces, tabs, carriage returns, newlines and ``%`` comments
(a comment runs to end of line), then one alternative per token class.
A token records only the offset its text starts at; ``cmod.errors``
turns an offset into a line and a column. An identifier starts with a
letter of any script or ``_``, an integer is ASCII digits, and a string
literal ends on its own line with ``ESCAPES`` as its escapes. ``lex``
builds each token when its iteration asks for it and keeps none;
``tokenize`` lists them all.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator

from .errors import LexError

KEYWORDS = frozenset(
    {
        "true",
        "false",
        "module",
        "end",
        "macro",
        "in",
        "and",
        "forall",
        "ren",
        "if",
        "else",
        "switch",
        "case",
        "default",
        "break",
        "print",
        "new",
        "int",
    }
)

# The character after a backslash in a string literal, and what it stands for.
ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}

_TOKEN = re.compile(
    r"""(?:[ \t\r\n]+|%[^\n]*)*
    (?: (?P<int>[0-9]+)
      | (?P<word>\w+)
      | (?P<string>"(?P<body>(?:[^"\\\n]|\\[\s\S]?)*)(?P<close>"?))
      | (?P<punct>=>|==|!=|<=|>=|&&|\|\||[()\[\]{};,.=<>+\-*/!:])
      |  # an unexpected character, or the end of input
    )""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\([\s\S]?)")


def lex(source: str) -> Iterator[tuple[str, str, int, str]]:
    """The tokens of source as ``(kind, lexeme, offset, source)`` tuples,
    ending with an eof marker at ``len(source)``, each built when the
    iteration asks for it. kind is ident, int, string, keyword, punct or
    eof; offset is where the token's text starts."""
    max_digits = getattr(sys, "get_int_max_str_digits", int)()  # the longest literal int() converts; 0: no limit
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind is None:
            offset = match.end()
            if offset < len(source):
                raise LexError(source, offset)
            yield "eof", "", offset, source
            return
        lexeme = match[kind]
        offset = match.start(kind)
        if kind == "word":
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):  # \w also takes digits such as ² or ½
                raise LexError(source, offset)
            kind = "keyword" if lexeme in KEYWORDS else "ident"
        elif kind == "int" and max_digits and len(lexeme) > max_digits:
            raise LexError(source, offset, f"integer literal longer than {max_digits} digits")
        elif kind == "string":
            lexeme = _ESCAPE.sub(lambda esc: _unescape(esc, source, offset + 1), match["body"])
            if not match["close"]:
                raise LexError(source, offset, "unterminated string literal")
        yield kind, lexeme, offset, source


def tokenize(source: str) -> list[tuple[str, str, int, str]]:
    """The full token list for source, ending with an eof marker."""
    return list(lex(source))


def _unescape(escape: re.Match, source: str, body_offset: int) -> str:
    if escape[1] in ESCAPES:
        return ESCAPES[escape[1]]
    raise LexError(source, body_offset + escape.start(), "bad escape sequence")
