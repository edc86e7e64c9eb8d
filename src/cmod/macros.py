"""The macro environment: named declarations with most-recent lookup.

One environment per machine, shallow-bound: a dict from each defined
name to its newest definition, a closure (MacroDef body, the scope that
entered it: the activation of its ``macro ... in`` statement, or None at
top level). define binds a group as parsed, a later definition in the
group over an earlier one, and returns what each binding displaced;
the scope's exit hands that to undefine, which puts it back. So find is
one read, and a definition's binding is the same object while it holds.
"""


class MacroEnv(dict):
    __slots__ = ()

    find = dict.get  # (body, scope) of name's most recent definition, or None

    def define(self, defs, scope=None) -> list:
        """Bind each definition in order; [(name, binding it displaced or None), ...]."""
        displaced = []
        for macro in defs:
            displaced.append((macro.name, self.get(macro.name)))
            self[macro.name] = macro.body, scope
        return displaced

    def undefine(self, displaced) -> None:
        """Put back what define displaced, the last binding first."""
        for name, binding in reversed(displaced):
            if binding is None:
                del self[name]
            else:
                self[name] = binding
