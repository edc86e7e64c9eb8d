"""Exception types and runtime failure reasons shared across the interpreter.

A runtime failure is raised once, as an EngineFailure, and ends the run
it happens in; clause search never raises to say that a head did not
match, it returns.
"""

NO_MATCHING_CLAUSE = "no-matching-clause"
UNBOUND_VARIABLE = "unbound-variable"
DEPTH_EXCEEDED = "depth-exceeded"
REGION_FAULT = "region-fault"
TYPE_MISMATCH = "type-mismatch"
DIVISION_BY_ZERO = "division-by-zero"


class CmodError(Exception):
    """Base class for every error raised by this package."""


class LexError(CmodError):
    def __init__(self, line: int, column: int, char: str, message: str | None = None):
        self.line = line
        self.column = column
        self.char = char
        if message is None:
            message = f"unexpected character {char!r}"
        super().__init__(f"{line}:{column}: {message}")


class ParseError(CmodError):
    def __init__(self, line: int, column: int, expected: str, found: str, at_eof: bool = False):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        # True when the input simply stopped short; the REPL uses this to
        # request a continuation line instead of reporting the error.
        self.at_eof = at_eof
        super().__init__(f"{line}:{column}: expected {expected}, found {found}")


class MacroNotDefined(CmodError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"macro or module '/{name}' is not defined")


class EngineFailure(CmodError):
    """A runtime failure of the interpreter.

    ``reason`` is one of the module-level reason constants; ``call_chain``
    is the chain of active call sites, outermost first.
    """

    def __init__(self, reason: str, detail: str, call_chain=()):
        self.reason = reason
        self.detail = detail
        self.call_chain = tuple(call_chain)
        super().__init__(f"{reason}: {detail}")
