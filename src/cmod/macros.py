"""The macro environment: named declarations with most-recent lookup,
plus renaming over declaration trees.

Environments are immutable snapshots; define returns a new one, so a
scoped definition group is reverted by restoring the environment it
replaced. A definition is a closure, (MacroDef, scope): scope is the
activation that entered its ``macro ... in`` scope, or None at top level.
Environments compare with ==; one that holds a scope does not hash.
"""

from __future__ import annotations

from . import ast


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


def rename(decl: ast.Declaration, old: str, new: str) -> ast.Declaration:
    """decl with procedure name old replaced by new, in clause heads and
    call sites within bodies. Variable names and macro names are
    untouched. Renaming into a name bound by an enclosing ren operand is
    not resolved (names are treated as plain occurrences).
    """
    if old == new:
        return decl

    def ren(node):
        node = ast.map_children(node, ren)
        if type(node) is ast.Clause and node.name == old:
            return ast.Clause(new, node.params, node.body)
        if type(node) is ast.Call and node.name == old:
            return ast.Call(new, node.args)
        if type(node) is ast.Rename and old in (node.old, node.new):
            a = new if node.old == old else node.old
            b = new if node.new == old else node.new
            return ast.Rename(a, b, node.decl)
        return node

    return ren(decl)
