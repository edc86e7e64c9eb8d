"""Tokenizer for cmod source text.

Source files are UTF-8; ``%`` starts a comment running to end of line.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

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

# Longest match first.
_TWO_CHAR = ("=>", "==", "!=", "<=", ">=", "&&", "||")
_ONE_CHAR = "()[]{};,.=<>+-*/!:"

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | string | keyword | punct | eof
    lexeme: str
    line: int
    column: int

    def __str__(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return repr(self.lexeme)


def tokenize(source: str) -> list[Token]:
    """The full token stream for source, ending with an eof marker."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    # the longest literal int() converts; 0 when there is no such limit
    max_digits = getattr(sys, "get_int_max_str_digits", int)()

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue

        start_line, start_col = line, col

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            kind = "keyword" if lexeme in KEYWORDS else "ident"
            tokens.append(Token(kind, lexeme, start_line, start_col))
            col += j - i
            i = j
            continue

        if "0" <= ch <= "9":  # ASCII only: int() would read other scripts' digits
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            if max_digits and j - i > max_digits:
                raise LexError(start_line, start_col, ch, f"integer literal longer than {max_digits} digits")
            tokens.append(Token("int", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue

        if ch == '"':
            j = i + 1
            chars: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    break
                if source[j] == "\\":
                    if j + 1 < n and source[j + 1] in _ESCAPES:
                        chars.append(_ESCAPES[source[j + 1]])
                        j += 2
                        continue
                    raise LexError(line, col + (j - i), source[j], "bad escape sequence")
                chars.append(source[j])
                j += 1
            if j >= n or source[j] != '"':
                raise LexError(start_line, start_col, '"', "unterminated string literal")
            tokens.append(Token("string", "".join(chars), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue

        two = source[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("punct", two, start_line, start_col))
            i += 2
            col += 2
            continue

        if ch in _ONE_CHAR:
            tokens.append(Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue

        raise LexError(line, col, ch)

    tokens.append(Token("eof", "", line, col))
    return tokens
