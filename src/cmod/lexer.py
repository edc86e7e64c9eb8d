"""Tokenizer for cmod source text.

Source files are UTF-8. One pattern, ``_TOKEN``, reads a token at a time:
first any spaces, tabs, carriage returns and ``%`` comments (a comment
runs to end of line), then one alternative per token class. A column
counts characters from the last newline, so a tab or a carriage return
is one column. An identifier starts with a letter of any script or
``_``, an integer is ASCII digits, and a string literal ends on its own
line with ``ESCAPES`` as its escapes. ``lex`` builds each token when
its iteration asks for it and keeps none; ``tokenize`` lists them all.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator

from .ast import Node
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
    r"""(?:[ \t\r]+|%[^\n]*)*
    (?: (?P<newline>\n)
      | (?P<int>[0-9]+)
      | (?P<word>\w+)
      | (?P<string>"(?P<body>(?:[^"\\\n]|\\[\s\S]?)*)(?P<close>"?))
      | (?P<punct>=>|==|!=|<=|>=|&&|\|\||[()\[\]{};,.=<>+\-*/!:])
      |  # an unexpected character, or the end of input
    )""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\([\s\S]?)")


class Token(Node):
    kind: str  # ident | int | string | keyword | punct | eof
    lexeme: str
    line: int
    column: int

    def __str__(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return repr(self.lexeme)


def lex(source: str) -> Iterator[Token]:
    """The tokens of source, ending with an eof marker, each built when the
    iteration asks for it."""
    max_digits = getattr(sys, "get_int_max_str_digits", int)()  # the longest literal int() converts; 0: no limit
    pos, line, line_start = 0, 1, 0
    while pos <= len(source):
        match = _TOKEN.match(source, pos)
        kind, pos = match.lastgroup, match.end()
        lexeme = match[kind] if kind else ""
        column = pos - len(lexeme) - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, pos
            continue
        if kind is None:
            if pos < len(source):
                raise LexError(line, column, source[pos])
            kind, pos = "eof", pos + 1  # past the end: the iteration stops
        elif kind == "int" and max_digits and len(lexeme) > max_digits:
            raise LexError(line, column, lexeme[0], f"integer literal longer than {max_digits} digits")
        elif kind == "word":
            if not (lexeme[0].isalpha() or lexeme[0] == "_"):  # \w also takes digits such as ² or ½
                raise LexError(line, column, lexeme[0])
            kind = "keyword" if lexeme in KEYWORDS else "ident"
        elif kind == "string":
            lexeme = _ESCAPE.sub(lambda esc: _unescape(esc, line, column + 1), match["body"])
            if not match["close"]:
                raise LexError(line, column, '"', "unterminated string literal")
        yield Token(kind, lexeme, line, column)


def tokenize(source: str) -> list[Token]:
    """The full token list for source, ending with an eof marker."""
    return list(lex(source))


def _unescape(escape: re.Match, line: int, body_column: int) -> str:
    if escape[1] in ESCAPES:
        return ESCAPES[escape[1]]
    raise LexError(line, body_column + escape.start(), "\\", "bad escape sequence")
