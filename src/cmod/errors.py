"""Exception types and runtime failure reasons shared across the interpreter.

A runtime failure is raised once, as an EngineFailure, and ends the run
it happens in; clause search never raises to say that a head did not
match, it returns. The raise site gives only the reason and detail:
execute attaches the chain of calls active where it was raised and
hands the failure itself back as the outcome of the run.
"""

NO_MATCHING_CLAUSE = "no-matching-clause"
UNBOUND_VARIABLE = "unbound-variable"
DEPTH_EXCEEDED = "depth-exceeded"
REGION_FAULT = "region-fault"
TYPE_MISMATCH = "type-mismatch"
DIVISION_BY_ZERO = "division-by-zero"


class CmodError(Exception):
    """Base class for every error raised by this package."""


def _position(error: CmodError, source: str, offset: int) -> str:
    """Set the error's offset, line and column, and return ``line:column``.
    A column counts characters since the last newline: a tab or a CR is one."""
    error.offset = offset
    error.line = source.count("\n", 0, offset) + 1
    error.column = offset - source.rfind("\n", 0, offset)
    return f"{error.line}:{error.column}"


class LexError(CmodError):
    """``char`` is the character at ``offset`` that the message is about."""

    def __init__(self, source: str, offset: int, message: str | None = None):
        self.char = source[offset]
        if message is None:
            message = f"unexpected character {self.char!r}"
        super().__init__(f"{_position(self, source, offset)}: {message}")


class ParseError(CmodError):
    def __init__(self, source: str, offset: int, expected: str, found: str, at_eof: bool = False):
        self.expected = expected
        self.found = found
        # True when the input simply stopped short; the REPL uses this to
        # request a continuation line instead of reporting the error.
        self.at_eof = at_eof
        super().__init__(f"{_position(self, source, offset)}: expected {expected}, found {found}")


class EngineFailure(CmodError):
    """A runtime failure of the interpreter, and the outcome of a failed run.

    ``reason`` is one of the module-level reason constants; ``call_chain``
    is the chain of call sites active where it was raised, outermost
    first, and empty for a failure outside every call.
    """

    def __init__(self, reason: str, detail: str, call_chain=()):
        self.reason = reason
        self.detail = detail
        self.call_chain = tuple(call_chain)
        super().__init__(f"{reason}: {detail}")

    def render_chain(self, limit: int = 8) -> str:
        """The chain innermost-first, elided past limit sites."""
        if not self.call_chain:
            return ""
        sites = [site.render() for site in reversed(self.call_chain)]
        if len(sites) > limit:
            sites = sites[:limit] + [f"... {len(self.call_chain) - limit} more"]
        return " <- ".join(sites)
