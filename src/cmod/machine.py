"""The interpreter state: module stack, macro environment, store, region
stack, and the function program output is written through."""

from __future__ import annotations

from . import ast
from .macros import MacroEnv
from .regions import RegionStack

DEFAULT_MAX_DEPTH = 10000


class Machine:
    def __init__(self, seeds=(), max_depth=DEFAULT_MAX_DEPTH, trace=None, write=None):
        # The program triple: module stack of (declaration, activation pushed from) closures,
        # last = most recent; macro environment, one for the machine's life, first bound to
        # seeds, the top-level module/macro definitions; variable store.
        self.module_stack: list[tuple[ast.Declaration, dict | None]] = []
        self.macro_env = MacroEnv()
        self.macro_env.define(seeds)
        self.store: dict[str, ast.Value] = {}
        self.regions = RegionStack()
        self.output: list[str] = []
        self.write = self.output.append if write is None else write  # called with each printed line
        self.max_depth = max_depth
        self.trace = trace  # called with each TraceEvent when set
        self.call_stack: list = []
        self.handles: dict[str, int] = {}  # live allocation scopes per handle name
        # Shallow binding: tables by key, [declaration, steps, entries (a macro read as "/name": the
        # binding it read), positions of its live frames]; the live keys whose tables declare or read
        # each name; renamings by (id(node), old, new), (node, renamed node).
        self.tables, self.name_index, self.renamed = {}, {}, {}

    def output_text(self) -> str:
        """What the program printed, when written to the default list."""
        return "".join(self.output)
