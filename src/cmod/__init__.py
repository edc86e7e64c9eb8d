"""cmod: an interpreter for a small C-like language with statement-local
modules, a constructive macro language, and region-scoped allocation."""

from .engine import Success, eval_expr, execute, machine_for, run_source, substitute
from .errors import CmodError, EngineFailure, LexError, ParseError
from .ast import desugar, free_procedure_names, rename
from .lexer import tokenize
from .machine import Machine
from .macros import MacroEnv
from .parser import SourceProgram, parse_program, parse_repl_input, parse_source
from .printer import format_declaration, format_expression, format_statement, pretty_print
from .regions import RegionStack, region_read, region_write

__version__ = "0.1.0"

__all__ = [
    "CmodError",
    "EngineFailure",
    "LexError",
    "Machine",
    "MacroEnv",
    "ParseError",
    "RegionStack",
    "SourceProgram",
    "Success",
    "desugar",
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
    "run_source",
    "substitute",
    "tokenize",
    "__version__",
]
