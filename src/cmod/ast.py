"""Abstract syntax and runtime values for the cmod language.

Statements are the executable trees, declarations are procedure-clause
trees (module bodies), and macro definitions bind names to declarations.
A runtime value is also an expression leaf, its own literal: the parser
builds ``Int(5)`` for ``5``. ``/m => G`` is an Implication whose declaration
is ``MacroRef("m")``. Every node class subclasses ``Node``, which builds it
from its annotated fields (slots, ``__match_args__`` and a positional
``__init__``) and gives it equality (same class, equal fields), hashing
and repr. Nodes are immutable by convention, not checked: no code
assigns a field (slots reject only new attributes), and trees of tuples
share freely. Node classes are never subclassed, and code tests a node's
class exactly (``type(node) is Int``, ``type(node) in Value``): faster
than ``isinstance``, which takes a slow path for a class with a metaclass.
``Value``, ``Expression``, ``Statement`` and ``Declaration`` are such tuples.
"""

from __future__ import annotations

from operator import attrgetter, is_
from types import GeneratorType


class _NodeClass(type):
    """Builds each Node class from the fields its body annotates, in order: the slots, __match_args__,
    the key equality and hashing read, and a positional __init__."""

    def __new__(meta, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        code = {}
        exec(f"def __init__(self{''.join(', ' + f for f in fields)}):"
             + ("".join(f"\n self.{f} = {f}" for f in fields) or " pass"), {}, code)
        init = namespace["__init__"] = code["__init__"]
        init.__qualname__ = f"{name}.__init__"
        namespace["__slots__"] = namespace["__match_args__"] = fields
        # the key: a lone field's value, a tuple of several, or the class
        namespace["_key"] = attrgetter(*fields) if fields else type
        return super().__new__(meta, name, bases, namespace)


class Node(metaclass=_NodeClass):
    """Equality, hashing and repr from the fields, for every node and record."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __ne__(self, other):  # head matching tests !=; spare it a second dispatch
        if other.__class__ is self.__class__:
            return self._key(self) != self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__match_args__)})"


# ---------------------------------------------------------------------------
# Runtime values, each also an expression: its own literal
# ---------------------------------------------------------------------------


class Int(Node):
    value: int


class Bool(Node):
    value: bool


class Str(Node):
    value: str


class Atom(Node):
    """A self-evaluating symbolic constant, e.g. ``tom``."""

    name: str


class Handle(Node):
    """Reference to a region by its serial, printed ``<region N:0>``."""

    region_id: int


Value = (Int, Bool, Str, Atom, Handle)


def render_value(value: Value) -> str:
    if type(value) is Int:
        try:
            return str(value.value)
        except ValueError:  # more digits than str() converts
            sign = "negative " if value.value < 0 else ""
            return f"<{sign}int of {value.value.bit_length()} bits>"
    if type(value) is Bool:
        return "true" if value.value else "false"
    if type(value) is Str:
        return value.value
    if type(value) is Atom:
        return value.name
    return f"<region {value.region_id}:0>"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Var(Node):
    """An identifier; whether it is a bound variable or an atom is decided
    by the store at evaluation time."""

    name: str


class BinOp(Node):
    op: str
    left: "Expression"
    right: "Expression"


class UnaryOp(Node):
    op: str
    operand: "Expression"


class Index(Node):
    """Element read through a region handle: ``base[index]``."""

    base: "Expression"
    index: "Expression"


Expression = Value + (Var, BinOp, UnaryOp, Index)


# ---------------------------------------------------------------------------
# Statements (G-trees) and declarations (D-trees)
# ---------------------------------------------------------------------------


class TrueStmt(Node):
    pass


class Call(Node):
    name: str
    args: tuple[Expression, ...]


class Assign(Node):
    name: str
    expr: Expression


class StoreIndex(Node):
    """Element write through a region handle: ``base[index] = value``.

    The base is an expression so that a handle a clause parameter holds
    can be written through, exactly as it can be read through.
    """

    base: Expression
    index: Expression
    value: Expression


class Seq(Node):
    first: "Statement"
    second: "Statement"


class Implication(Node):
    """``D => G``: run body with decl pushed as the most recent module;
    ``/n => G`` is the one whose decl is ``MacroRef(n)``."""

    decl: "Declaration"
    body: "Statement"


class MacroScope(Node):
    """``macro /n = { D } ... in G``: define macros for the body only."""

    defs: tuple["MacroDef", ...]
    body: "Statement"


class AllocScope(Node):
    """``p = new int[E] => G``: region alive exactly for the body."""

    handle: str
    elem_type: str
    length: Expression
    body: "Statement"


class If(Node):
    cond: Expression
    then: "Statement"
    orelse: "Statement"


class Switch(Node):
    scrutinee: Expression
    cases: tuple[tuple[Value, "Statement"], ...]
    default: "Statement"


class Print(Node):
    expr: Expression


Statement = (TrueStmt, Call, Assign, StoreIndex, Seq, Implication, MacroScope, AllocScope, If, Switch, Print)


class Clause(Node):
    """One procedure declaration ``name(params) = body``: parser output has
    distinct variable names as params, matched in the call's activation."""

    name: str
    params: tuple[Expression, ...]
    body: Statement


class And(Node):
    left: "Declaration"
    right: "Declaration"


class Forall(Node):
    var: str
    decl: "Declaration"


class MacroRef(Node):
    name: str


class Rename(Node):
    """``ren(old, new) D``: D with procedure name old replaced by new."""

    old: str
    new: str
    decl: "Declaration"


Declaration = (Clause, And, Forall, MacroRef, Rename)


class MacroDef(Node):
    name: str
    body: Declaration


# ---------------------------------------------------------------------------
# Child mapping
# ---------------------------------------------------------------------------

# How a field holds child nodes: one node, a tuple of nodes, or Switch's
# (label, statement) pairs, whose labels are values and are not mapped.
NODE, NODES, CASES = 1, 2, 3

# Per node class, the fields that hold child nodes, as (position among the
# class's fields, kind) pairs in field order. Classes not listed are leaves.
CHILD_FIELDS: dict[type, tuple[tuple[int, int], ...]] = {
    BinOp: ((1, NODE), (2, NODE)),  # left, right
    UnaryOp: ((1, NODE),),  # operand
    Index: ((0, NODE), (1, NODE)),  # base, index
    Call: ((1, NODES),),  # args
    Assign: ((1, NODE),),  # expr
    StoreIndex: ((0, NODE), (1, NODE), (2, NODE)),  # base, index, value
    Seq: ((0, NODE), (1, NODE)),  # first, second
    Implication: ((0, NODE), (1, NODE)),  # decl, body
    MacroScope: ((0, NODES), (1, NODE)),  # defs, body
    AllocScope: ((2, NODE), (3, NODE)),  # length, body
    If: ((0, NODE), (1, NODE), (2, NODE)),  # cond, then, orelse
    Switch: ((0, NODE), (1, CASES), (2, NODE)),  # scrutinee, cases, default
    Print: ((0, NODE),),  # expr
    Clause: ((1, NODES), (2, NODE)),  # params, body
    And: ((0, NODE), (1, NODE)),  # left, right
    Forall: ((1, NODE),),  # decl
    Rename: ((2, NODE),),  # decl
    MacroDef: ((1, NODE),),  # body
}


def drive(walk):
    """The value the generator walk returns, run from an explicit stack: a
    generator it yields runs first and its value is sent back in; anything
    else it yields is sent straight back. So recursion written as yields
    nests as deep as memory allows."""
    stack, value = [walk], None
    while stack:
        try:
            value = stack[-1].send(value)
            if type(value) is GeneratorType:
                stack.append(value)
                value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def mapped(node, fn):
    """node with each child replaced by what yielding fn(child) gives back, so
    under drive fn may return a generator. node is rebuilt, positionally, only
    when some child came back another object; otherwise node itself is
    returned, so unchanged subtrees are shared by the old tree and the new."""
    children = CHILD_FIELDS.get(type(node))
    if children is None:
        return node
    # __match_args__ names the class's fields in order
    values = list(map(node.__getattribute__, node.__match_args__))
    changed = False
    for i, kind in children:
        old = values[i]
        items = (old,) if kind == NODE else old if kind == NODES else [body for _, body in old]
        news = []
        for item in items:
            news.append((yield fn(item)))
        if all(map(is_, news, items)):
            continue
        values[i] = news[0] if kind == NODE else tuple(news) if kind == NODES else tuple(zip([label for label, _ in old], news))
        changed = True
    return type(node)(*values) if changed else node


# ---------------------------------------------------------------------------
# Tree rewrites: desugaring and renaming
# ---------------------------------------------------------------------------


def desugar(stmt: Statement) -> Statement:
    """Rewrite every Switch into a chain of If nodes.

    Each case becomes an equality test of the scrutinee against the case
    label, a value and so its own literal, ending in the default branch;
    all other nodes are preserved structurally (including inside
    declarations), so any node may be passed. Idempotent. The engine
    runs a Switch itself and never needs this; cmod does not export it.
    """

    def walk(node):
        if type(node) is Switch:
            result = yield walk(node.default)
            for label, body in reversed(node.cases):
                result = If(BinOp("==", node.scrutinee, label), (yield walk(body)), result)
            return result
        return (yield from mapped(node, walk))

    return drive(walk(stmt))


def rename(decl: Declaration, old: str, new: str) -> Declaration:
    """decl with procedure name old replaced by new, in clause heads and
    call sites within bodies. Variable names and macro names are
    untouched. Renaming into a name bound by an enclosing ren operand is
    not resolved (names are treated as plain occurrences).
    """
    if old == new:
        return decl

    def ren(node):
        node = yield from mapped(node, ren)
        if type(node) is Clause and node.name == old:
            return Clause(new, node.params, node.body)
        if type(node) is Call and node.name == old:
            return Call(new, node.args)
        if type(node) is Rename and old in (node.old, node.new):
            a = new if node.old == old else node.old
            b = new if node.new == old else node.new
            return Rename(a, b, node.decl)
        return node

    return drive(ren(decl))


# ---------------------------------------------------------------------------
# Clause tables: a declaration's search steps and clause entries, walked once
# ---------------------------------------------------------------------------


def clause_table(decl: Declaration, env, scope=None, rename=rename):
    """(steps, entries) of decl, walked once in search order: conjunctions
    left first, macro references followed through env unless undefined,
    already on the path, or env is None. The walk goes on below a ``ren``
    in its declaration renamed, and renames a macro body it follows by
    every enclosing ``ren`` pair, outermost first, with rename (the engine
    memoizes it), so every node listed is already renamed.

    steps: every node passed, as (depth, bc rule id, node, binders, scope);
    an And's bc:3 step comes before its left operand, its bc:4 step after
    it. entries: each head name to its clauses in search order, as (clause,
    binders, steps before it, depth, scope). Depths are relative to decl.
    binders are the enclosing quantifiers, innermost first, one per
    variable, as (var, positions): each head's parameter positions of var,
    in search order. scope is what decl's own steps and entries carry (the
    engine's mark for its frame's scope); a macro body has no binders and
    the scope its definition closed over (None at top level: the store).
    Given an env, entries also maps each macro name the walk reads, as
    "/name" (a key no procedure name can be), to what env.find gave for it.
    """
    steps, entries = [], {}
    work = [(decl, 0, (), (), (), scope)]  # chains to walk, and bc:4 steps due after a left operand
    while work:
        item = work.pop()
        if type(item[0]) is int:  # a step starts with its depth, a chain with its node
            steps.append(item)
            continue
        decl, depth, path, renames, binders, scope = item  # each ren pair renamed by those outside it
        while True:
            if type(decl) is Clause:
                for var, positions in binders:
                    positions += [i for i, param in enumerate(decl.params) if type(param) is Var and param.name == var]
                entries.setdefault(decl.name, []).append((decl, binders, len(steps), depth, scope))
                break
            if type(decl) is And:
                steps.append((depth, 3, decl, binders, scope))
                work.append((decl.right, depth + 1, path, renames, binders, scope))
                work.append((depth, 4, decl, binders, scope))
                decl = decl.left
            elif type(decl) is Forall:
                steps.append((depth, 2, decl, binders, scope))
                binders = ((decl.var, []),) + tuple(b for b in binders if b[0] != decl.var)
                decl = decl.decl
            elif type(decl) is Rename:
                steps.append((depth, 5, decl, binders, scope))
                renames += ((decl.old, decl.new),)
                decl = rename(decl.decl, decl.old, decl.new)
            elif type(decl) is MacroRef:
                found = None if env is None or decl.name in path else env.find(decl.name)
                if env is not None:
                    entries.setdefault("/" + decl.name, found)  # a read, defined or not, and its binding
                if found is None:
                    break
                steps.append((depth, 6, decl, binders, scope))
                path += (decl.name,)
                binders, (decl, scope) = (), found
                for old, new in renames:
                    decl = rename(decl, old, new)
            else:
                raise TypeError(f"not a declaration: {decl!r}")
            depth += 1
    return steps, entries


def free_procedure_names(decl: Declaration, env=None) -> frozenset[str]:
    """The procedure names declared by clause heads in decl, after renaming:
    the names clause search can match, decl's clause table's keys but "/name" reads."""
    return frozenset(name for name in clause_table(decl, env)[1] if name[0] != "/")
