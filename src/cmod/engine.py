"""The big-step interpreter: statement execution and clause backchaining.

Execution reduces a statement against the machine, mutating store,
regions and output; module frames pushed by implication statements are
popped on scope exit no matter how the body ends, so effects persist
while declarations stay local. Backchaining first selects a clause: of
the called name's entries in the clause table of the newest frame that
declares it, in search order (conjunctions left to right), the first
whose head matches. Only then does the clause body run, outside the
search, so a failure inside a body fails the call and never sends the
search on to a later conjunct. A traced call runs the same search and
emits the table's steps before the matched entry.

A frame is a closure: the declaration as parsed and the activation it
was pushed from; so is a macro definition, with the activation that
entered its scope (none at top level). A body runs in that scope
extended by the values its clause's quantifiers took from the call:
variables are read there, then in the store, and assigned in the store.
Nothing is substituted, and tracing does not change the run: _emit, the
one place events leave the engine, prints a step in its activation; a
statement emits as it is taken to run, under the rule _STEPS gives its class.
Operators apply from one table each; only && and || (short-circuit) and
== and != (any class) are special forms.

Shallow binding finds the deciding frame. A declaration's clause table is
built once, renaming each node once per machine, so no call renames; its
frames share it and supply their scope, and it keeps their positions.
While a table has a live frame it is indexed under the names it declares
and the macros it reads, so a call reads the newest frame of each table
declaring its name. Macros are shallow-bound too, and rerooting follows
them: a scope's entry binds its names and rebuilds, with the same renamed
nodes, the live tables reading them; its exit puts back both. A push
rebuilds a table held by no frame only if a macro it read is bound anew.

Statements run from one work stack and expressions from one loop, so
neither a call nor any nesting costs Python stack. Implication, macro
and allocation scopes and calls push an exit below their body that pops
what they pushed and puts back what they replaced: the macro bindings
and the tables a scope rebuilt, or the store value the handle hid. A failure is an
EngineFailure raised with its reason and detail only; execute attaches
the call chain, runs the exits left and returns the failure as the outcome.
"""

from __future__ import annotations

import operator
from types import MappingProxyType

from . import ast
from .ast import rename
from .errors import (
    DEPTH_EXCEEDED,
    DIVISION_BY_ZERO,
    NO_MATCHING_CLAUSE,
    REGION_FAULT,
    TYPE_MISMATCH,
    UNBOUND_VARIABLE,
    EngineFailure,
)
from .machine import DEFAULT_MAX_DEPTH, Machine
from .parser import SourceProgram, parse_source
from .printer import format_declaration, format_statement
from .regions import MAX_REGION_LENGTH, region_read, region_write


class CallSite(ast.Node):
    name: str
    actuals: tuple[ast.Value, ...]

    def render(self) -> str:
        return f"{self.name}({', '.join(ast.render_value(a) for a in self.actuals)})"

    def signature(self) -> str:
        return f"{self.name}/{len(self.actuals)}"


class TraceEvent(ast.Node):
    phase: str  # "ex" or "bc"
    depth: int
    subject: str
    rule_id: int

    def format(self) -> str:
        return f"{'  ' * self.depth}{self.phase}:{self.rule_id} {self.subject}"


class Success(ast.Node):
    machine: Machine


# A failed outcome is the raised failure itself.
Failure = EngineFailure

ExecOutcome = (Success, EngineFailure)

_NO_BINDINGS = MappingProxyType({})  # the environment outside every call
_OWN = object()  # the scope of a table item from the frame's own declaration: the frame's


# ---------------------------------------------------------------------------
# Execution phase
# ---------------------------------------------------------------------------


def execute(machine: Machine, stmt: ast.Statement) -> ExecOutcome:
    """Run stmt; store, region and output effects persist either way.

    The work stack holds (statement, trace depth, environment) items and
    the exits scopes and calls push below their bodies; whatever ends the
    run, the exits left run here, innermost first. Then, with no frame
    left, the machine drops its clause tables and renamings, so a
    session's caches stay bounded by one run.
    """
    work = [(stmt, 0, _NO_BINDINGS)]
    try:
        while work:
            stmt, depth, env = work.pop()
            if env is _EXIT:
                stmt(machine, depth)  # function(machine, argument)
                continue
            try:
                rule, step = _STEPS[type(stmt)]
            except KeyError:
                raise TypeError(f"not a statement: {stmt!r}") from None
            if rule and machine.trace is not None:
                _emit(machine, "ex", depth, stmt, rule, env)
            step(machine, work, stmt, depth, env)
    except EngineFailure as failure:
        failure.call_chain = tuple(machine.call_stack)
        return failure.with_traceback(None)  # an outcome holds no frames
    finally:
        for function, argument, env in reversed(work):
            if env is _EXIT:
                function(machine, argument)
        if not machine.module_stack:  # no frame reads a table or a renaming any more
            machine.tables.clear()
            machine.renamed.clear()
    return Success(machine)


def _emit(machine: Machine, phase: str, depth: int, node, rule_id: int, values) -> None:
    """Trace one step: node rendered with the values of its activation."""
    render = format_statement if phase == "ex" else format_declaration
    machine.trace(TraceEvent(phase, depth, render(node, compact=True, env=values), rule_id))


_EXIT = object()  # the environment slot of an exit (function, argument, _EXIT)


def _assign(machine, work, stmt, depth, env) -> None:
    if machine.handles.get(stmt.name):
        raise EngineFailure(
            REGION_FAULT,
            f"no assignment to '{stmt.name}' (region handles are read-only in their scope)",
        )
    machine.store[stmt.name] = eval_expr(machine, stmt.expr, env)


def _store_index(machine, work, stmt, depth, env) -> None:
    handle = eval_expr(machine, stmt.base, env)
    if type(handle) is not ast.Handle:  # eval_expr words a read's faults the same
        raise EngineFailure(TYPE_MISMATCH, f"{ast.render_value(handle)} is not a region handle")
    index = eval_expr(machine, stmt.index, env)
    if type(index) is not ast.Int:
        raise EngineFailure(TYPE_MISMATCH, "region index must be an integer")
    region_write(machine, handle, index.value, eval_expr(machine, stmt.value, env))


def _seq(machine, work, stmt, depth, env) -> None:
    work.append((stmt.second, depth + 1, env))
    work.append((stmt.first, depth + 1, env))


def _implication(machine, work, stmt, depth, env) -> None:
    if type(stmt.decl) is ast.MacroRef and machine.macro_env.find(stmt.decl.name) is None:
        raise EngineFailure(
            NO_MATCHING_CLAUSE,
            f"module or macro '/{stmt.decl.name}' is not defined",
        )
    _push(machine, ((stmt.decl, env or None),))
    work.append((_pop, 1, _EXIT))
    work.append((stmt.body, depth + 1, env))


def _macro_scope(machine, work, stmt, depth, env) -> None:
    """Bind the group and reroot: rebuild the live tables indexed under a name it
    binds, handing what they held and what it displaced to the exit; push a frame per definition."""
    displaced = machine.macro_env.define(stmt.defs, env or None)
    readers = {key for macro in stmt.defs for key in machine.name_index.get("/" + macro.name, ())}
    held = [(key, _retable(machine, key, _table(machine, machine.tables[key][0]))) for key in readers]
    _push(machine, tuple((ast.MacroRef(d.name), None) for d in stmt.defs))
    work.append((_end_macro_scope, (len(stmt.defs), displaced, held), _EXIT))
    work.append((stmt.body, depth + 1, env))


def _end_macro_scope(machine, scope) -> None:
    """Pop the scope's frames, put back the bindings and the tables it replaced."""
    count, displaced, held = scope
    _pop(machine, count)
    machine.macro_env.undefine(displaced)
    for key, contents in held:
        _retable(machine, key, contents)


def _alloc_scope(machine, work, stmt, depth, env) -> None:
    length = eval_expr(machine, stmt.length, env)
    if type(length) is not ast.Int:
        raise EngineFailure(
            REGION_FAULT,
            f"region length must be an integer, not {ast.render_value(length)}",
        )
    if length.value < 0:
        raise EngineFailure(REGION_FAULT, f"negative region length {ast.render_value(length)}")
    if length.value > MAX_REGION_LENGTH:
        raise EngineFailure(
            REGION_FAULT,
            f"region length {ast.render_value(length)} exceeds the limit of {MAX_REGION_LENGTH}",
        )
    handle = machine.regions.allocate(stmt.elem_type, length.value)
    work.append((_free, (stmt.handle, handle, machine.store.get(stmt.handle)), _EXIT))
    machine.store[stmt.handle] = handle
    machine.handles[stmt.handle] = machine.handles.get(stmt.handle, 0) + 1
    if stmt.handle in env:  # the handle hides a formal of its name
        env = {var: value for var, value in env.items() if var != stmt.handle}
    work.append((stmt.body, depth + 1, env))


def _free(machine, scope) -> None:
    """End an allocation scope: free its region, put back what the handle hid."""
    name, handle, shadowed = scope
    machine.handles[name] -= 1
    machine.regions.free(handle)
    machine.store.pop(name, None)
    if shadowed is not None:
        machine.store[name] = shadowed


def _if(machine, work, stmt, depth, env) -> None:
    cond = eval_expr(machine, stmt.cond, env)
    if type(cond) is not ast.Bool:
        raise EngineFailure(
            TYPE_MISMATCH,
            f"if condition must be boolean, got {ast.render_value(cond)}",
        )
    work.append((stmt.then if cond.value else stmt.orelse, depth, env))


def _switch(machine, work, stmt, depth, env) -> None:
    """Push the body of the first case whose label equals the scrutinee's
    value (same class, as == tests), else the default; a switch with no
    case never evaluates its scrutinee."""
    chosen = stmt.default
    if stmt.cases:
        value = eval_expr(machine, stmt.scrutinee, env)
        chosen = next((body for label, body in stmt.cases if label == value), chosen)
    work.append((chosen, depth, env))


def _print(machine, work, stmt, depth, env) -> None:
    machine.write(ast.render_value(eval_expr(machine, stmt.expr, env)) + "\n")


def _call(machine, work, stmt, depth, env) -> None:
    """Push the body of the clause _select chooses, in its activation."""
    call = CallSite(stmt.name, tuple(eval_expr(machine, arg, env) for arg in stmt.args))
    machine.call_stack.append(call)
    work.append((_return, None, _EXIT))
    if len(machine.call_stack) > machine.max_depth:
        raise EngineFailure(
            DEPTH_EXCEEDED,
            f"call depth exceeded the limit of {machine.max_depth}",
        )
    clause, env, at = _select(machine, call, depth + 1)
    work.append((clause.body, at + 1, env))


def _return(machine, _) -> None:
    machine.call_stack.pop()


# Each statement class's trace rule and step. If and Switch are not traced
# (rule 0): the statement they choose is traced in their place.
_STEPS = {
    ast.TrueStmt: (8, lambda *_: None), ast.Assign: (9, _assign), ast.StoreIndex: (9, _store_index),
    ast.Seq: (10, _seq), ast.Implication: (11, _implication), ast.MacroScope: (12, _macro_scope),
    ast.AllocScope: (11, _alloc_scope), ast.If: (0, _if), ast.Switch: (0, _switch),
    ast.Print: (7, _print), ast.Call: (7, _call),
}


# ---------------------------------------------------------------------------
# Call resolution and backchaining
# ---------------------------------------------------------------------------


def _select(machine: Machine, call: CallSite, depth: int):
    """The matched clause, its body's environment and its trace depth: the
    first of the call's name's entries in the deciding frame's table whose
    head matches; entries and traced steps are renamed already."""
    actuals = call.actuals
    steps, entries, own = _deciding_table(machine, call.name)
    for clause, binders, before, at, scope in entries.get(call.name, ()):
        values = _bindings(binders, actuals, scope, own)
        if _head_matches(clause, values, actuals):
            break
    else:
        clause, before = None, len(steps)
    if machine.trace is not None:
        for step_at, rule_id, node, step_binders, scope in steps[:before]:
            _emit(machine, "bc", depth + step_at, node, rule_id, _bindings(step_binders, actuals, scope, own))
    if clause is None:
        raise EngineFailure(NO_MATCHING_CLAUSE, call.signature())
    if machine.trace is not None:
        _emit(machine, "bc", depth + at, clause, 1, values)
    return clause, values, depth + at


def _bindings(binders, actuals: tuple[ast.Value, ...], scope, own) -> dict[str, ast.Value | None]:
    """scope (own, the frame's, for its own items) extended by the value each
    enclosing quantifier takes from the call: the actual at the first of its
    positions below the call's arity, or else None, which still hides the
    scope's value (an uninstantiated head never matches, so stripping the
    quantifier is harmless)."""
    scope = own if scope is _OWN else scope
    arity = len(actuals)
    values = {var: next((actuals[i] for i in positions if i < arity), None) for var, positions in binders}
    return {**scope, **values} if scope else values


def _head_matches(clause: ast.Clause, values, actuals: tuple[ast.Value, ...]) -> bool:
    """Whether the head, instantiated with values, matches the actuals."""
    if len(clause.params) != len(actuals):
        return False
    for param, actual in zip(clause.params, actuals):
        value = values.get(param.name) if type(param) is ast.Var else param
        if value is None or value != actual:
            return False
    return True


# ---------------------------------------------------------------------------
# The module stack, indexed by declared name (shallow binding)
# ---------------------------------------------------------------------------


def _push(machine: Machine, frames) -> None:
    """Push (declaration, scope) frames, keeping each one's position in its
    table; a table's first live frame indexes its key under the names it
    declares. Every push goes through here, every pop through _pop. A macro
    reference's key is its name: a macro scope builds a new reference node at every entry."""
    for decl, scope in frames:
        key = decl.name if type(decl) is ast.MacroRef else id(decl)
        table = machine.tables.get(key)
        if table is None or not table[3] and any(  # or held by no frame, and a macro it read is bound anew
            machine.macro_env.get(name[1:]) is not found for name, found in table[2].items() if name[0] == "/"
        ):
            table = machine.tables[key] = [decl, *_table(machine, decl), []]  # decl stays alive, so its id is not reused
        if not table[3]:
            _reindex(machine, key, (), table[2])
        table[3].append(len(machine.module_stack))
        machine.module_stack.append((decl, scope))


def _pop(machine: Machine, count: int) -> None:
    """Pop count frames; a key's last frame takes it out of the name index."""
    for _ in range(count):
        decl = machine.module_stack.pop()[0]
        key = decl.name if type(decl) is ast.MacroRef else id(decl)
        table = machine.tables[key]
        del table[3][-1]
        if not table[3]:
            _reindex(machine, key, table[2], ())


def _reindex(machine: Machine, key, old, new) -> None:
    """Move key in the name index from the names in old to those in new."""
    for name in old:
        machine.name_index[name].discard(key)
        if not machine.name_index[name]:
            del machine.name_index[name]
    for name in new:
        machine.name_index.setdefault(name, set()).add(key)


def _retable(machine: Machine, key, contents):
    """Give key's live table contents (steps, entries), re-indexing it
    when its names change; returns what it held."""
    table = machine.tables[key]
    if contents[1].keys() != table[2].keys():
        _reindex(machine, key, table[2], contents[1])
    held, table[1:3] = table[1:3], contents
    return held


def _table(machine: Machine, decl: ast.Declaration):
    """decl's steps and entries as the macro environment now is. Each renaming
    is done once per machine: machine.renamed keeps it by (id of the node
    renamed, old, new), with that node, so the id is not reused."""

    def renamed(node, old, new):
        key = id(node), old, new
        if key not in machine.renamed:
            machine.renamed[key] = node, rename(node, old, new)
        return machine.renamed[key][1]

    return ast.clause_table(decl, machine.macro_env, _OWN, renamed)


def _deciding_table(machine: Machine, name: str):
    """The steps and entries of the newest live frame declaring name, and its
    scope: a read of the name index, which macro scopes keep current."""
    newest = -1
    for key in machine.name_index.get(name, ()):
        table = machine.tables[key]
        if table[3][-1] > newest:
            newest, found = table[3][-1], table
    if newest < 0:
        return (), {}, None
    return found[1], found[2], machine.module_stack[newest][1]


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


def substitute(decl: ast.Declaration, var: str, value: ast.Value) -> ast.Declaration:
    """decl with every free occurrence of var replaced by value, its own
    literal, in clause heads and in expressions within bodies. The engine
    never calls it: a body runs, and a trace step prints, in its activation.

    Inner binders of the same name (a quantifier or an allocation handle)
    shadow the substitution; assignment targets are name bindings, not
    expression occurrences, and stay untouched.
    """
    def subst(node):
        if type(node) is ast.Var:
            return value if node.name == var else node
        if type(node) is ast.Forall and node.var == var:
            return node
        if type(node) is ast.AllocScope and node.handle == var:
            # the handle hides var in the body, not in the length
            return (yield from ast.mapped(node, lambda child: subst(child) if child is node.length else child))
        return (yield from ast.mapped(node, subst))

    return ast.drive(subst(decl))


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def eval_expr(machine: Machine, expr: ast.Expression, env=_NO_BINDINGS) -> ast.Value:
    """The value of expr; a variable is looked up in env (the activation
    environment), then in the store. A value is its own literal. One loop
    evaluates operands left to right; pending holds each operator waiting
    for an operand, as (node, first operand's value) once it has that one."""
    store, pending = machine.store, []
    while True:
        kind = type(expr)  # evaluate expr, or go down to its first operand
        if kind is ast.Var:  # a value is never false
            value = env.get(expr.name) or store.get(expr.name) or _atom(expr.name)
        elif kind is ast.BinOp:
            pending.append(expr)
            expr = expr.left
            continue
        elif kind in ast.Value:
            value = expr
        elif kind is ast.Index or kind is ast.UnaryOp:
            pending.append(expr)
            expr = expr.base if kind is ast.Index else expr.operand
            continue
        else:
            raise TypeError(f"not an expression: {expr!r}")
        while pending:  # apply what waited for value
            node = pending.pop()
            if type(node) is tuple:  # value is the second operand
                node, first = node
            elif type(node) is ast.UnaryOp:
                name, operand_class, apply = _UNARY_OPERATORS[node.op]
                if type(value) is not operand_class:
                    raise _type_error(name, value)
                value = operand_class(apply(value.value))
                continue
            else:  # value is the first operand
                if type(node) is ast.BinOp:
                    expr = node.right
                    if node.op in _DECIDING:  # operands left to right, until one decides
                        if type(value) is not ast.Bool:
                            raise _type_error(node.op, value)
                        if value.value is _DECIDING[node.op]:
                            continue
                elif type(value) is not ast.Handle:
                    raise EngineFailure(TYPE_MISMATCH, f"{ast.render_value(value)} is not a region handle")
                else:
                    expr = node.index
                first = value
                if type(expr) is ast.Var:
                    value = env.get(expr.name) or store.get(expr.name) or _atom(expr.name)
                elif type(expr) in ast.Value:
                    value = expr
                else:
                    pending.append((node, first))
                    break
            if type(node) is ast.Index:
                if type(value) is not ast.Int:
                    raise EngineFailure(TYPE_MISMATCH, "region index must be an integer")
                value = region_read(machine, first, value.value)
                continue
            op = node.op
            if op in _DECIDING:
                if type(value) is not ast.Bool:
                    raise _type_error(op, value)
            elif op == "==" or op == "!=":
                equal = type(first) is type(value) and first == value
                value = ast.Bool(equal if op == "==" else not equal)
            elif type(first) is not ast.Int or type(value) is not ast.Int:
                raise _type_error(op, first if type(first) is not ast.Int else value)
            elif op == "/" and value.value == 0:
                raise EngineFailure(DIVISION_BY_ZERO, f"{ast.render_value(first)} / 0")
            else:
                apply = _INTEGER_OPERATORS.get(op)
                if apply is None:
                    raise TypeError(f"unknown operator {op!r}")
                result = apply(first.value, value.value)
                value = ast.Bool(result) if type(result) is bool else ast.Int(result)
        else:
            return value


def _atom(name: str) -> ast.Atom:
    """An unbound all-lowercase identifier: a self-evaluating atom."""
    if name != name.lower():
        raise EngineFailure(UNBOUND_VARIABLE, f"variable '{name}' is not bound")
    return ast.Atom(name)


def _truncating_quotient(a: int, b: int) -> int:
    """a / b rounded toward zero, as in C."""
    return a // b if (a < 0) == (b < 0) else -(-a // b)


# The operators on two integers, each mapped to the function of the
# operands' values; a comparison gives a Bool.
_INTEGER_OPERATORS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _truncating_quotient,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
# && and ||, each with the value of its first operand that decides it.
_DECIDING = {"&&": False, "||": True}
# Each unary operator's name in diagnostics, operand class and function.
_UNARY_OPERATORS = {"!": ("!", ast.Bool, operator.not_), "-": ("unary -", ast.Int, operator.neg)}


def _type_error(op: str, value: ast.Value) -> EngineFailure:
    return EngineFailure(
        TYPE_MISMATCH,
        f"{op} is not applicable to {ast.render_value(value)}",
    )


# ---------------------------------------------------------------------------
# Whole-program running
# ---------------------------------------------------------------------------


def machine_for(program: SourceProgram, max_depth: int = DEFAULT_MAX_DEPTH, trace=None, write=None) -> Machine:
    """An empty machine seeded with the program's module and macro
    definitions, the very trees the parser built."""
    return Machine(program.seeds(), max_depth=max_depth, trace=trace, write=write)


def run_source(source: str, max_depth: int = DEFAULT_MAX_DEPTH, trace=None, write=None) -> tuple[ExecOutcome, Machine]:
    """Parse, seed, and execute a whole program from the empty machine."""
    program = parse_source(source)
    machine = machine_for(program, max_depth=max_depth, trace=trace, write=write)
    return execute(machine, program.main), machine


def call_with_deep_stack(fn, *args, **kwargs):
    """fn(*args, **kwargs), for callers written when nested source needed a deep stack."""
    return fn(*args, **kwargs)
