"""The macro environment: named declarations with most-recent lookup.

Environments are immutable snapshots; define returns a new one, so a
scoped definition group is reverted by restoring the environment it
replaced. A definition is a closure, (MacroDef, scope): scope is the
activation that entered its ``macro ... in`` scope, or None at top level.
Environments compare with ==; one that holds a scope does not hash.
"""

from __future__ import annotations

from . import ast
from .ast import rename  # noqa: F401 - exported here, defined beside map_children


class MacroEnv(ast.Node):
    defs: tuple[tuple[ast.MacroDef, dict | None], ...] = ()  # most recent first

    @classmethod
    def seeded(cls, seeds) -> MacroEnv:
        """An environment of permanent top-level definitions; later seeds
        shadow earlier ones."""
        return cls().define(seeds)

    def define(self, new_defs, scope=None) -> MacroEnv:
        return MacroEnv(tuple((macro, scope) for macro in reversed(list(new_defs))) + self.defs)

    def find(self, name: str) -> tuple[ast.Declaration, dict | None] | None:
        """(body, scope) of name's most recent definition, or None."""
        return next(((macro.body, scope) for macro, scope in self.defs if macro.name == name), None)

    def names(self) -> list[str]:
        return [macro.name for macro, _ in self.defs]
