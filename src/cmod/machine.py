"""The interpreter state: module stack, macro environment, store, region
stack, and output accumulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import ast
from .macros import MacroEnv
from .regions import RegionStack, Store

DEFAULT_MAX_DEPTH = 10000


@dataclass
class Machine:
    # The program triple: module stack (last element = most recent),
    # macro environment, and variable store.
    module_stack: list[ast.Declaration] = field(default_factory=list)
    macro_env: MacroEnv = field(default_factory=MacroEnv)
    store: Store = field(default_factory=Store)
    regions: RegionStack = field(default_factory=RegionStack)
    output: list[str] = field(default_factory=list)
    depth: int = 0
    max_depth: int = DEFAULT_MAX_DEPTH
    trace: Optional[Callable] = None
    call_stack: list = field(default_factory=list)

    @classmethod
    def initial(
        cls,
        seeds: Iterable[ast.MacroDef] = (),
        max_depth: int = DEFAULT_MAX_DEPTH,
        trace: Optional[Callable] = None,
    ) -> "Machine":
        """An empty machine whose macro environment holds the given
        top-level module/macro definitions."""
        return cls(macro_env=MacroEnv.seeded(seeds), max_depth=max_depth, trace=trace)

    def emit(self, event) -> None:
        if self.trace is not None:
            self.trace(event)

    def output_text(self) -> str:
        return "".join(self.output)
