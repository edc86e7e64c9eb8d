"""Abstract syntax and runtime values for the cmod language.

Statements are the executable trees, declarations are procedure-clause
trees (module bodies), and macro definitions bind names to declarations.
Every node is a frozen dataclass holding tuples, so trees are immutable
and freely shareable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Int:
    value: int


@dataclass(frozen=True)
class Bool:
    value: bool


@dataclass(frozen=True)
class Str:
    value: str


@dataclass(frozen=True)
class Atom:
    """A self-evaluating symbolic constant, e.g. ``tom``."""

    name: str


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Handle:
    """Reference to a region; the generation pair detects dangling use."""

    region_id: int
    generation: int


UNIT = Unit()

Value = Union[Int, Bool, Str, Atom, Unit, Handle]


def render_value(value: Value) -> str:
    if isinstance(value, Int):
        return str(value.value)
    if isinstance(value, Bool):
        return "true" if value.value else "false"
    if isinstance(value, Str):
        return value.value
    if isinstance(value, Atom):
        return value.name
    if isinstance(value, Handle):
        return f"<region {value.region_id}:{value.generation}>"
    return "unit"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class AtomLit:
    name: str


@dataclass(frozen=True)
class Var:
    """An identifier; whether it is a bound variable or an atom is decided
    by the store at evaluation time."""

    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class UnaryOp:
    op: str
    operand: "Expression"


@dataclass(frozen=True)
class Index:
    """Element read through a region handle: ``base[index]``."""

    base: "Expression"
    index: "Expression"


@dataclass(frozen=True)
class Quoted:
    """An already-computed value embedded in syntax by instantiation."""

    value: Value


Expression = Union[IntLit, BoolLit, StrLit, AtomLit, Var, BinOp, UnaryOp, Index, Quoted]


def literal_of(value: Value) -> Expression:
    """The expression form of a runtime value, used by instantiation."""
    if isinstance(value, Int):
        return IntLit(value.value)
    if isinstance(value, Bool):
        return BoolLit(value.value)
    if isinstance(value, Str):
        return StrLit(value.value)
    if isinstance(value, Atom):
        return AtomLit(value.name)
    return Quoted(value)


def literal_value(expr: Expression) -> Value | None:
    """The value of a literal expression, or None if expr is not a literal."""
    if isinstance(expr, IntLit):
        return Int(expr.value)
    if isinstance(expr, BoolLit):
        return Bool(expr.value)
    if isinstance(expr, StrLit):
        return Str(expr.value)
    if isinstance(expr, AtomLit):
        return Atom(expr.name)
    if isinstance(expr, Quoted):
        return expr.value
    return None


# ---------------------------------------------------------------------------
# Statements (G-trees) and declarations (D-trees)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrueStmt:
    pass


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple[Expression, ...]


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expression


@dataclass(frozen=True)
class StoreIndex:
    """Element write through a region handle: ``base[index] = value``.

    The base is an expression so that instantiated clause parameters can
    be written through, exactly as they can be read through.
    """

    base: Expression
    index: Expression
    value: Expression


@dataclass(frozen=True)
class Seq:
    first: "Statement"
    second: "Statement"


@dataclass(frozen=True)
class Implication:
    """``D => G``: run body with decl pushed as the most recent module."""

    decl: "Declaration"
    body: "Statement"


@dataclass(frozen=True)
class ModuleImplication:
    """``/n => G``: like Implication, with the module looked up by name."""

    name: str
    body: "Statement"


@dataclass(frozen=True)
class MacroScope:
    """``macro /n = { D } ... in G``: define macros for the body only."""

    defs: tuple["MacroDef", ...]
    body: "Statement"


@dataclass(frozen=True)
class AllocScope:
    """``p = new int[E] => G``: region alive exactly for the body."""

    handle: str
    elem_type: str
    length: Expression
    body: "Statement"


@dataclass(frozen=True)
class If:
    cond: Expression
    then: "Statement"
    orelse: "Statement"


@dataclass(frozen=True)
class Switch:
    scrutinee: Expression
    cases: tuple[tuple[Value, "Statement"], ...]
    default: "Statement"


@dataclass(frozen=True)
class Print:
    expr: Expression


Statement = Union[
    TrueStmt,
    Call,
    Assign,
    StoreIndex,
    Seq,
    Implication,
    ModuleImplication,
    MacroScope,
    AllocScope,
    If,
    Switch,
    Print,
]


@dataclass(frozen=True)
class Clause:
    """One procedure declaration ``name(params) = body``.

    Parser output has distinct variable names as params; instantiation
    replaces them with literals, so a fully instantiated head is matchable
    against evaluated call arguments.
    """

    name: str
    params: tuple[Expression, ...]
    body: Statement


@dataclass(frozen=True)
class And:
    left: "Declaration"
    right: "Declaration"


@dataclass(frozen=True)
class Forall:
    var: str
    decl: "Declaration"


@dataclass(frozen=True)
class MacroRef:
    name: str


@dataclass(frozen=True)
class Rename:
    """``ren(old, new) D``: D with procedure name old replaced by new."""

    old: str
    new: str
    decl: "Declaration"


Declaration = Union[Clause, And, Forall, MacroRef, Rename]


@dataclass(frozen=True)
class MacroDef:
    name: str
    body: Declaration


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------


def desugar(stmt: Statement) -> Statement:
    """Rewrite every Switch into a chain of If nodes.

    Each case becomes an equality test of the scrutinee against the case
    label, ending in the default branch; all other nodes are preserved
    structurally (including inside declarations). Idempotent.
    """
    if isinstance(stmt, Switch):
        result = desugar(stmt.default)
        for label, body in reversed(stmt.cases):
            test = BinOp("==", stmt.scrutinee, literal_of(label))
            result = If(test, desugar(body), result)
        return result
    if isinstance(stmt, Seq):
        return Seq(desugar(stmt.first), desugar(stmt.second))
    if isinstance(stmt, Implication):
        return Implication(desugar_decl(stmt.decl), desugar(stmt.body))
    if isinstance(stmt, ModuleImplication):
        return ModuleImplication(stmt.name, desugar(stmt.body))
    if isinstance(stmt, MacroScope):
        defs = tuple(MacroDef(d.name, desugar_decl(d.body)) for d in stmt.defs)
        return MacroScope(defs, desugar(stmt.body))
    if isinstance(stmt, AllocScope):
        return AllocScope(stmt.handle, stmt.elem_type, stmt.length, desugar(stmt.body))
    if isinstance(stmt, If):
        return If(stmt.cond, desugar(stmt.then), desugar(stmt.orelse))
    return stmt


def desugar_decl(decl: Declaration) -> Declaration:
    if isinstance(decl, Clause):
        return Clause(decl.name, decl.params, desugar(decl.body))
    if isinstance(decl, And):
        return And(desugar_decl(decl.left), desugar_decl(decl.right))
    if isinstance(decl, Forall):
        return Forall(decl.var, desugar_decl(decl.decl))
    if isinstance(decl, Rename):
        return Rename(decl.old, decl.new, desugar_decl(decl.decl))
    return decl


# ---------------------------------------------------------------------------
# Clause heads in search order
# ---------------------------------------------------------------------------


def walk_heads(
    decl: Declaration, env, name, visit, steps=None, depth=0, path=(), renames=(), binders=None
):
    """Return the first truthy visit(clause, head, renames, binders, depth)
    over the clause heads of decl named name (all heads when name is None),
    in backchaining order: conjunctions left first, macro references
    followed through env unless undefined, already on path, or env is None.

    Nothing is rebuilt on the way. head is the clause's name after renames,
    the enclosing ``ren`` pairs, outermost first, each chased through the
    ones outside it. binders links the enclosing quantifiers innermost
    first as (var, scope, outer) triples; a macro reference starts a new
    scope. When steps is a list, each node passed is appended to it as
    (depth, bc rule id, node, renames, binders).
    """
    # Only a left operand costs a recursive call; everything else loops.
    while True:
        if isinstance(decl, Clause):
            head = _chase(decl.name, renames) if renames else decl.name
            if name is None or head == name:
                return visit(decl, head, renames, binders, depth)
            return None
        if isinstance(decl, And):
            if steps is not None:
                steps.append((depth, 3, decl, renames, binders))
            found = walk_heads(decl.left, env, name, visit, steps, depth + 1, path, renames, binders)
            if found:
                return found
            if steps is not None:
                steps.append((depth, 4, decl, renames, binders))
            decl = decl.right
        elif isinstance(decl, Forall):
            if steps is not None:
                steps.append((depth, 2, decl, renames, binders))
            binders = (decl.var, decl.decl, binders)
            decl = decl.decl
        elif isinstance(decl, Rename):
            if steps is not None:
                steps.append((depth, 5, decl, renames, binders))
            renames += ((_chase(decl.old, renames), _chase(decl.new, renames)),)
            decl = decl.decl
        elif isinstance(decl, MacroRef):
            body = None if env is None or decl.name in path else env.find(decl.name)
            if body is None:
                return None
            if steps is not None:
                steps.append((depth, 6, decl, renames, binders))
            path += (decl.name,)
            binders, decl = None, body
        else:
            raise TypeError(f"not a declaration: {decl!r}")
        depth += 1


def _chase(name: str, renames: tuple[tuple[str, str], ...]) -> str:
    for old, new in renames:
        if name == old:
            name = new
    return name


def free_procedure_names(decl: Declaration, env=None) -> frozenset[str]:
    """The procedure names declared by clause heads in decl, after renaming:
    the names clause search can match, as both come from walk_heads."""
    names: set[str] = set()
    walk_heads(decl, env, None, lambda clause, head, *_: names.add(head))
    return frozenset(names)
