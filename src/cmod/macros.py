"""The macro environment: named declarations with most-recent lookup.

An environment is one link of a chain: a group of definitions as parsed,
the scope that entered them (the activation of its ``macro ... in``
statement, or None at top level), and the environment they extend.
define links one group and copies nothing, so a scope ends by going back
to its link's parent. Each link indexes its own group by name, a later
definition in the group over an earlier one, so find reads one entry per
link. A definition is a closure, (MacroDef, its link's scope).
Environments compare by identity.
"""

from __future__ import annotations

from . import ast


class MacroEnv:
    __slots__ = ("defs", "bodies", "scope", "parent")

    def __init__(self, defs=(), scope=None, parent=None):
        self.defs, self.scope, self.parent = defs, scope, parent  # defs as parsed: the last is the newest
        self.bodies = {macro.name: macro.body for macro in defs}

    def define(self, new_defs, scope=None) -> MacroEnv:
        return MacroEnv(tuple(new_defs), scope, self)

    def find(self, name: str) -> tuple[ast.Declaration, dict | None] | None:
        """(body, scope) of name's most recent definition, or None."""
        env = self
        while env is not None:
            body = env.bodies.get(name)
            if body is not None:
                return body, env.scope
            env = env.parent
        return None

    def names(self) -> list[str]:
        """Every defined name, the most recent first, shadowed ones too."""
        names, env = [], self
        while env is not None:
            names += [macro.name for macro in reversed(env.defs)]
            env = env.parent
        return names
