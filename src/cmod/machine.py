"""The interpreter state: module stack, macro environment, store, region
stack, and output accumulator."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .macros import MacroEnv
from .regions import RegionStack

DEFAULT_MAX_DEPTH = 10000


@dataclass
class Machine:
    # The program triple: module stack (last element = most recent),
    # macro environment, and variable store.
    module_stack: list[ast.Declaration] = field(default_factory=list)
    macro_env: MacroEnv = field(default_factory=MacroEnv)
    store: dict[str, ast.Value] = field(default_factory=dict)
    regions: RegionStack = field(default_factory=RegionStack)
    output: list[str] = field(default_factory=list)
    max_depth: int = DEFAULT_MAX_DEPTH
    trace: object = None  # called with each TraceEvent when set
    call_stack: list = field(default_factory=list)
    # Shallow binding: frame positions per declared name, each frame's names, their macro env.
    frame_index: dict[str, list[int]] = field(default_factory=dict)
    frame_names: list[tuple[str, ...]] = field(default_factory=list)
    indexed_env: MacroEnv | None = None

    @classmethod
    def initial(cls, seeds=(), max_depth: int = DEFAULT_MAX_DEPTH, trace=None) -> Machine:
        """An empty machine whose macro environment holds the given
        top-level module/macro definitions."""
        return cls(macro_env=MacroEnv.seeded(seeds), max_depth=max_depth, trace=trace)

    def output_text(self) -> str:
        return "".join(self.output)
