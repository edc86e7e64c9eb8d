"""The interpreter state: module stack, macro environment, store, region
stack, and output accumulator."""

from __future__ import annotations

from . import ast
from .macros import MacroEnv
from .regions import RegionStack

DEFAULT_MAX_DEPTH = 10000


class Machine:
    def __init__(self, macro_env=None, store=None, max_depth=DEFAULT_MAX_DEPTH, trace=None):
        # The program triple: module stack (last element = most recent),
        # macro environment, and variable store.
        self.module_stack: list[ast.Declaration] = []
        self.macro_env: MacroEnv = MacroEnv() if macro_env is None else macro_env
        self.store: dict[str, ast.Value] = {} if store is None else store
        self.regions = RegionStack()
        self.output: list[str] = []
        self.max_depth = max_depth
        self.trace = trace  # called with each TraceEvent when set
        self.call_stack: list = []
        self.handles: dict[str, int] = {}  # live allocation scopes per handle name
        # Shallow binding: frame positions per declared name, each frame's clause table, the
        # macro environment the index holds for, and the macro references' tables shared there.
        self.frame_index, self.frame_tables, self.indexed_env, self.ref_tables = {}, [], self.macro_env, {}

    @classmethod
    def initial(cls, seeds=(), max_depth: int = DEFAULT_MAX_DEPTH, trace=None) -> Machine:
        """An empty machine whose macro environment holds the given
        top-level module/macro definitions."""
        return cls(macro_env=MacroEnv.seeded(seeds), max_depth=max_depth, trace=trace)

    def output_text(self) -> str:
        return "".join(self.output)
