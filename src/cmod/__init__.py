"""cmod: an interpreter for a small C-like language with statement-local
modules, a constructive macro language, and region-scoped allocation."""

from .engine import (
    CallSite,
    ExecOutcome,
    Failure,
    Success,
    TraceEvent,
    backchain,
    call_with_deep_stack,
    eval_expr,
    execute,
    machine_for,
    resolve_call,
    run_source,
    substitute,
)
from .errors import (
    CmodError,
    EngineFailure,
    LexError,
    MacroNotDefined,
    ParseError,
)
from .ast import desugar, desugar_decl, free_procedure_names
from .lexer import Token, tokenize
from .machine import Machine
from .macros import MacroEnv, conj_expand, rename
from .parser import SourceProgram, parse_program, parse_repl_input, parse_source
from .printer import format_declaration, format_expression, format_statement, pretty_print
from .regions import RegionStack, Store, alloc_scope, region_read, region_write

__version__ = "0.1.0"

__all__ = [
    "CallSite",
    "CmodError",
    "EngineFailure",
    "ExecOutcome",
    "Failure",
    "LexError",
    "Machine",
    "MacroEnv",
    "MacroNotDefined",
    "ParseError",
    "RegionStack",
    "SourceProgram",
    "Store",
    "Success",
    "Token",
    "TraceEvent",
    "alloc_scope",
    "backchain",
    "call_with_deep_stack",
    "conj_expand",
    "desugar",
    "desugar_decl",
    "eval_expr",
    "execute",
    "format_declaration",
    "format_expression",
    "format_statement",
    "free_procedure_names",
    "machine_for",
    "parse_program",
    "parse_repl_input",
    "parse_source",
    "pretty_print",
    "region_read",
    "region_write",
    "rename",
    "resolve_call",
    "run_source",
    "substitute",
    "tokenize",
    "__version__",
]
