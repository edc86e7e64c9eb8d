"""The big-step interpreter: statement execution and clause backchaining.

Execution reduces a statement against the machine, mutating store,
regions and output; module frames pushed by implication statements are
popped on scope exit no matter how the body ends, so effects persist
while declarations stay local. Backchaining first selects a clause: one
walk over the newest frame that declares the called name, conjunctions
left to right, yields the first clause whose head matches, renamed and
instantiated from the call. Only then does the clause body run, outside
the search, so a failure inside a body fails the call and never sends
the search on to a later conjunct.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Union

from . import ast
from .errors import (
    DEPTH_EXCEEDED,
    DIVISION_BY_ZERO,
    NO_MATCHING_CLAUSE,
    TYPE_MISMATCH,
    UNBOUND_VARIABLE,
    EngineFailure,
)
from .machine import DEFAULT_MAX_DEPTH, Machine
from .macros import rename
from .parser import SourceProgram, parse_source
from .printer import format_declaration, format_statement
from .regions import _alloc_scope, region_read, region_write


@dataclass(frozen=True)
class CallSite:
    name: str
    actuals: tuple[ast.Value, ...]

    def render(self) -> str:
        return f"{self.name}({', '.join(ast.render_value(a) for a in self.actuals)})"

    def signature(self) -> str:
        return f"{self.name}/{len(self.actuals)}"


@dataclass(frozen=True)
class TraceEvent:
    phase: str  # "ex" or "bc"
    depth: int
    subject: str
    rule_id: int

    def format(self) -> str:
        return f"{'  ' * self.depth}{self.phase}:{self.rule_id} {self.subject}"


@dataclass
class Success:
    machine: Machine


@dataclass(frozen=True)
class Failure:
    reason: str
    detail: str
    call_chain: tuple[CallSite, ...] = ()

    def render_chain(self, limit: int = 8) -> str:
        """The chain innermost-first, elided past limit sites."""
        if not self.call_chain:
            return ""
        sites = [site.render() for site in reversed(self.call_chain)]
        if len(sites) > limit:
            sites = sites[:limit] + [f"... {len(self.call_chain) - limit} more"]
        return " <- ".join(sites)


ExecOutcome = Union[Success, Failure]


def as_outcome(machine: Machine, fn, *args, **kwargs) -> ExecOutcome:
    try:
        fn(*args, **kwargs)
    except EngineFailure as failure:
        return Failure(failure.reason, failure.detail, failure.call_chain)
    return Success(machine)


# ---------------------------------------------------------------------------
# Execution phase
# ---------------------------------------------------------------------------


def execute(machine: Machine, stmt: ast.Statement) -> ExecOutcome:
    return as_outcome(machine, _execute, machine, stmt, 0)


def _emit_ex(machine: Machine, depth: int, stmt: ast.Statement, rule_id: int) -> None:
    if machine.trace is not None:
        machine.trace(TraceEvent("ex", depth, format_statement(stmt, compact=True), rule_id))


def _emit_bc(machine: Machine, depth: int, decl: ast.Declaration, rule_id: int) -> None:
    if machine.trace is not None:
        machine.trace(TraceEvent("bc", depth, format_declaration(decl, compact=True), rule_id))


def _execute(machine: Machine, stmt: ast.Statement, depth: int) -> None:
    if isinstance(stmt, ast.TrueStmt):
        _emit_ex(machine, depth, stmt, 8)
        return

    if isinstance(stmt, ast.Assign):
        _emit_ex(machine, depth, stmt, 9)
        machine.store.assign(stmt.name, eval_expr(machine, stmt.expr))
        return

    if isinstance(stmt, ast.StoreIndex):
        _emit_ex(machine, depth, stmt, 9)
        handle = eval_expr(machine, stmt.base)
        if not isinstance(handle, ast.Handle):
            raise EngineFailure(
                TYPE_MISMATCH,
                f"{ast.render_value(handle)} is not a region handle",
                machine.call_stack,
            )
        index = eval_expr(machine, stmt.index)
        if not isinstance(index, ast.Int):
            raise EngineFailure(TYPE_MISMATCH, "region index must be an integer", machine.call_stack)
        region_write(machine, handle, index.value, eval_expr(machine, stmt.value))
        return

    if isinstance(stmt, ast.Seq):
        _emit_ex(machine, depth, stmt, 10)
        _execute(machine, stmt.first, depth + 1)
        _execute(machine, stmt.second, depth + 1)
        return

    if isinstance(stmt, ast.Implication):
        _emit_ex(machine, depth, stmt, 11)
        machine.module_stack.append(stmt.decl)
        try:
            _execute(machine, stmt.body, depth + 1)
        finally:
            machine.module_stack.pop()
        return

    if isinstance(stmt, ast.ModuleImplication):
        _emit_ex(machine, depth, stmt, 11)
        if machine.macro_env.find(stmt.name) is None:
            raise EngineFailure(
                NO_MATCHING_CLAUSE,
                f"module or macro '/{stmt.name}' is not defined",
                machine.call_stack,
            )
        machine.module_stack.append(ast.MacroRef(stmt.name))
        try:
            _execute(machine, stmt.body, depth + 1)
        finally:
            machine.module_stack.pop()
        return

    if isinstance(stmt, ast.MacroScope):
        _emit_ex(machine, depth, stmt, 12)
        machine.macro_env = machine.macro_env.define(stmt.defs)
        frames = [ast.MacroRef(d.name) for d in stmt.defs]
        machine.module_stack.extend(frames)
        try:
            _execute(machine, stmt.body, depth + 1)
        finally:
            if frames:
                del machine.module_stack[-len(frames):]
            machine.macro_env = machine.macro_env.pop_frame()
        return

    if isinstance(stmt, ast.AllocScope):
        _emit_ex(machine, depth, stmt, 11)
        _alloc_scope(machine, stmt.handle, stmt.elem_type, stmt.length, stmt.body, depth + 1)
        return

    if isinstance(stmt, ast.If):
        # Surface form: transparent in the trace, the chosen branch runs
        # in its place.
        cond = eval_expr(machine, stmt.cond)
        if not isinstance(cond, ast.Bool):
            raise EngineFailure(
                TYPE_MISMATCH,
                f"if condition must be boolean, got {ast.render_value(cond)}",
                machine.call_stack,
            )
        _execute(machine, stmt.then if cond.value else stmt.orelse, depth)
        return

    if isinstance(stmt, ast.Switch):
        _execute(machine, ast.desugar(stmt), depth)
        return

    if isinstance(stmt, ast.Print):
        _emit_ex(machine, depth, stmt, 7)
        machine.output.append(ast.render_value(eval_expr(machine, stmt.expr)) + "\n")
        return

    if isinstance(stmt, ast.Call):
        _emit_ex(machine, depth, stmt, 7)
        actuals = tuple(eval_expr(machine, arg) for arg in stmt.args)
        _resolve_call(machine, CallSite(stmt.name, actuals), depth + 1)
        return

    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# Call resolution and backchaining
# ---------------------------------------------------------------------------


def resolve_call(machine: Machine, call: CallSite) -> ExecOutcome:
    return as_outcome(machine, _resolve_call, machine, call, 0)


def _resolve_call(machine: Machine, call: CallSite, depth: int) -> None:
    machine.call_stack.append(call)
    machine.depth += 1
    try:
        if machine.depth > machine.max_depth:
            raise EngineFailure(
                DEPTH_EXCEEDED,
                f"call depth exceeded the limit of {machine.max_depth}",
                machine.call_stack,
            )
        _run(machine.module_stack, machine, call, depth)
    finally:
        machine.depth -= 1
        machine.call_stack.pop()


def backchain(decl: ast.Declaration, machine: Machine, call: CallSite) -> ExecOutcome:
    """Run call against decl alone, as if decl were the only frame."""
    return as_outcome(machine, _run, (decl,), machine, call, 0)


def _run(frames, machine: Machine, call: CallSite, depth: int) -> None:
    """Select the clause call runs, then run its body outside the search.

    Dynamic scoping: frames are searched newest (last) first, and the
    first one with a head of the call's name decides, by name only; if
    none of its heads matches, the call fails with no-matching-clause.
    When tracing, the deciding frame's search steps are emitted before
    the body runs; nothing else the search builds outlives it.
    """
    clause, at = _select(frames, machine, call, depth)
    _execute(machine, clause.body, at + 1)


def _select(frames, machine: Machine, call: CallSite, depth: int) -> tuple[ast.Clause, int]:
    """The matched clause, renamed and instantiated, and its trace depth."""
    actuals = call.actuals
    declared = False

    def visit(clause, head, renames, binders, at):
        nonlocal declared
        declared = True
        values = _bindings(binders, actuals)
        if _head_matches(clause, values, actuals):
            return clause, renames, values, at
        return None

    found = None
    for frame in reversed(frames):
        steps = None if machine.trace is None else []
        found = ast.walk_heads(frame, machine.macro_env, call.name, visit, steps, depth)
        if declared:
            for at, rule_id, node, renames, binders in steps or ():
                _emit_bc(machine, at, _instantiate(node, renames, _bindings(binders, actuals)), rule_id)
            break
    if found is None:
        raise EngineFailure(NO_MATCHING_CLAUSE, call.signature(), machine.call_stack)
    clause, renames, values, at = found
    clause = _instantiate(clause, renames, values)
    _emit_bc(machine, at, clause, 1)
    return clause, at


def _bindings(binders, actuals: tuple[ast.Value, ...]) -> dict[str, ast.Value | None]:
    """The value each enclosing quantifier takes from the call (None when
    its variable is in no head), innermost first; an outer quantifier of
    a name already seen is shadowed and left out."""
    values: dict[str, ast.Value | None] = {}
    while binders is not None:
        var, scope, binders = binders
        if var not in values:
            values[var] = _instantiation(scope, var, actuals)
    return values


def _head_matches(clause: ast.Clause, values, actuals: tuple[ast.Value, ...]) -> bool:
    """Whether the head, instantiated with values, matches the actuals."""
    if len(clause.params) != len(actuals):
        return False
    for param, actual in zip(clause.params, actuals):
        if isinstance(param, ast.Var):
            value = values.get(param.name)
        else:
            value = ast.literal_value(param)
        if value is None or value != actual:
            return False
    return True


def _instantiate(decl: ast.Declaration, renames, values) -> ast.Declaration:
    """decl with the enclosing renames applied, outermost first, and the
    instantiated quantifier variables substituted."""
    for old, new in renames:
        decl = rename(decl, old, new)
    for var, value in values.items():
        if value is not None:
            decl = substitute(decl, var, value)
    return decl


def _instantiation(
    decl: ast.Declaration, var: str, actuals: tuple[ast.Value, ...]
) -> ast.Value | None:
    """The actual at the first head position where the bound variable
    occurs, or None when it occurs in none (then stripping the quantifier
    is harmless: an uninstantiated head never matches)."""
    if isinstance(decl, ast.Clause):
        for i, param in enumerate(decl.params):
            if isinstance(param, ast.Var) and param.name == var and i < len(actuals):
                return actuals[i]
        return None
    if isinstance(decl, ast.And):
        value = _instantiation(decl.left, var, actuals)
        if value is None:
            value = _instantiation(decl.right, var, actuals)
        return value
    if isinstance(decl, ast.Forall):
        if decl.var == var:
            return None  # shadowed
        return _instantiation(decl.decl, var, actuals)
    if isinstance(decl, ast.Rename):
        return _instantiation(decl.decl, var, actuals)
    return None


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


def substitute(decl: ast.Declaration, var: str, value: ast.Value) -> ast.Declaration:
    """decl with every free occurrence of var replaced by the literal of
    value, in clause heads and in expressions within bodies.

    Inner binders of the same name (a quantifier or an allocation handle)
    shadow the substitution; assignment targets are name bindings, not
    expression occurrences, and stay untouched.
    """
    literal = ast.literal_of(value)
    return _subst_decl(decl, var, literal)


def _subst_decl(decl: ast.Declaration, var: str, literal: ast.Expression) -> ast.Declaration:
    if isinstance(decl, ast.Clause):
        params = tuple(_subst_expr(p, var, literal) for p in decl.params)
        return ast.Clause(decl.name, params, _subst_stmt(decl.body, var, literal))
    if isinstance(decl, ast.And):
        return ast.And(_subst_decl(decl.left, var, literal), _subst_decl(decl.right, var, literal))
    if isinstance(decl, ast.Forall):
        if decl.var == var:
            return decl
        return ast.Forall(decl.var, _subst_decl(decl.decl, var, literal))
    if isinstance(decl, ast.Rename):
        return ast.Rename(decl.old, decl.new, _subst_decl(decl.decl, var, literal))
    return decl


def _subst_stmt(stmt: ast.Statement, var: str, literal: ast.Expression) -> ast.Statement:
    if isinstance(stmt, ast.Call):
        return ast.Call(stmt.name, tuple(_subst_expr(a, var, literal) for a in stmt.args))
    if isinstance(stmt, ast.Assign):
        return ast.Assign(stmt.name, _subst_expr(stmt.expr, var, literal))
    if isinstance(stmt, ast.StoreIndex):
        return ast.StoreIndex(
            _subst_expr(stmt.base, var, literal),
            _subst_expr(stmt.index, var, literal),
            _subst_expr(stmt.value, var, literal),
        )
    if isinstance(stmt, ast.Seq):
        return ast.Seq(_subst_stmt(stmt.first, var, literal), _subst_stmt(stmt.second, var, literal))
    if isinstance(stmt, ast.Implication):
        return ast.Implication(_subst_decl(stmt.decl, var, literal), _subst_stmt(stmt.body, var, literal))
    if isinstance(stmt, ast.ModuleImplication):
        return ast.ModuleImplication(stmt.name, _subst_stmt(stmt.body, var, literal))
    if isinstance(stmt, ast.MacroScope):
        defs = tuple(ast.MacroDef(d.name, _subst_decl(d.body, var, literal)) for d in stmt.defs)
        return ast.MacroScope(defs, _subst_stmt(stmt.body, var, literal))
    if isinstance(stmt, ast.AllocScope):
        length = _subst_expr(stmt.length, var, literal)
        if stmt.handle == var:
            return ast.AllocScope(stmt.handle, stmt.elem_type, length, stmt.body)
        return ast.AllocScope(stmt.handle, stmt.elem_type, length, _subst_stmt(stmt.body, var, literal))
    if isinstance(stmt, ast.If):
        return ast.If(
            _subst_expr(stmt.cond, var, literal),
            _subst_stmt(stmt.then, var, literal),
            _subst_stmt(stmt.orelse, var, literal),
        )
    if isinstance(stmt, ast.Switch):
        cases = tuple((label, _subst_stmt(body, var, literal)) for label, body in stmt.cases)
        return ast.Switch(
            _subst_expr(stmt.scrutinee, var, literal), cases, _subst_stmt(stmt.default, var, literal)
        )
    if isinstance(stmt, ast.Print):
        return ast.Print(_subst_expr(stmt.expr, var, literal))
    return stmt


def _subst_expr(expr: ast.Expression, var: str, literal: ast.Expression) -> ast.Expression:
    if isinstance(expr, ast.Var):
        return literal if expr.name == var else expr
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(expr.op, _subst_expr(expr.left, var, literal), _subst_expr(expr.right, var, literal))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _subst_expr(expr.operand, var, literal))
    if isinstance(expr, ast.Index):
        return ast.Index(_subst_expr(expr.base, var, literal), _subst_expr(expr.index, var, literal))
    return expr


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def eval_expr(machine: Machine, expr: ast.Expression) -> ast.Value:
    if isinstance(expr, ast.IntLit):
        return ast.Int(expr.value)
    if isinstance(expr, ast.BoolLit):
        return ast.Bool(expr.value)
    if isinstance(expr, ast.StrLit):
        return ast.Str(expr.value)
    if isinstance(expr, ast.AtomLit):
        return ast.Atom(expr.name)
    if isinstance(expr, ast.Quoted):
        return expr.value

    if isinstance(expr, ast.Var):
        if expr.name in machine.store:
            return machine.store[expr.name]
        # An unbound all-lowercase identifier is a self-evaluating atom.
        if expr.name == expr.name.lower():
            return ast.Atom(expr.name)
        raise EngineFailure(
            UNBOUND_VARIABLE, f"variable '{expr.name}' is not bound", machine.call_stack
        )

    if isinstance(expr, ast.UnaryOp):
        operand = eval_expr(machine, expr.operand)
        if expr.op == "!":
            if not isinstance(operand, ast.Bool):
                raise _type_error(machine, "!", operand)
            return ast.Bool(not operand.value)
        if not isinstance(operand, ast.Int):
            raise _type_error(machine, "unary -", operand)
        return ast.Int(-operand.value)

    if isinstance(expr, ast.BinOp):
        return _eval_binop(machine, expr)

    if isinstance(expr, ast.Index):
        base = eval_expr(machine, expr.base)
        if not isinstance(base, ast.Handle):
            raise _type_error(machine, "indexing", base)
        index = eval_expr(machine, expr.index)
        if not isinstance(index, ast.Int):
            raise _type_error(machine, "region index", index)
        return region_read(machine, base, index.value)

    raise TypeError(f"not an expression: {expr!r}")


def _eval_binop(machine: Machine, expr: ast.BinOp) -> ast.Value:
    op = expr.op

    if op in ("&&", "||"):
        left = eval_expr(machine, expr.left)
        if not isinstance(left, ast.Bool):
            raise _type_error(machine, op, left)
        if op == "&&" and not left.value:
            return ast.Bool(False)
        if op == "||" and left.value:
            return ast.Bool(True)
        right = eval_expr(machine, expr.right)
        if not isinstance(right, ast.Bool):
            raise _type_error(machine, op, right)
        return right

    left = eval_expr(machine, expr.left)
    right = eval_expr(machine, expr.right)

    if op in ("==", "!="):
        equal = type(left) is type(right) and left == right
        return ast.Bool(equal if op == "==" else not equal)

    if not isinstance(left, ast.Int) or not isinstance(right, ast.Int):
        raise _type_error(machine, op, left if not isinstance(left, ast.Int) else right)

    a, b = left.value, right.value
    if op == "+":
        return ast.Int(a + b)
    if op == "-":
        return ast.Int(a - b)
    if op == "*":
        return ast.Int(a * b)
    if op == "/":
        if b == 0:
            raise EngineFailure(DIVISION_BY_ZERO, f"{a} / 0", machine.call_stack)
        quotient = a // b
        if quotient < 0 and quotient * b != a:
            quotient += 1  # truncate toward zero
        return ast.Int(quotient)
    if op == "<":
        return ast.Bool(a < b)
    if op == "<=":
        return ast.Bool(a <= b)
    if op == ">":
        return ast.Bool(a > b)
    if op == ">=":
        return ast.Bool(a >= b)
    raise TypeError(f"unknown operator {op!r}")


def _type_error(machine: Machine, op: str, value: ast.Value) -> EngineFailure:
    return EngineFailure(
        TYPE_MISMATCH,
        f"{op} is not applicable to {ast.render_value(value)}",
        machine.call_stack,
    )


# ---------------------------------------------------------------------------
# Whole-program running
# ---------------------------------------------------------------------------


def machine_for(
    program: SourceProgram,
    max_depth: int = DEFAULT_MAX_DEPTH,
    trace=None,
) -> Machine:
    """An empty machine seeded with the program's module and macro
    definitions (desugared)."""
    seeds = [ast.MacroDef(d.name, ast.desugar_decl(d.body)) for d in program.seeds()]
    return Machine.initial(seeds=seeds, max_depth=max_depth, trace=trace)


def run_source(
    source: str,
    max_depth: int = DEFAULT_MAX_DEPTH,
    trace=None,
) -> tuple[ExecOutcome, Machine]:
    """Parse, seed, and execute a whole program from the empty machine."""
    program = parse_source(source)
    machine = machine_for(program, max_depth=max_depth, trace=trace)
    return execute(machine, ast.desugar(program.main)), machine


def call_with_deep_stack(fn, *args, **kwargs):
    """Run fn in a worker thread with a large stack.

    Deeply recursive programs are legal up to the machine's call-depth
    limit, which outruns the main thread's stack; the worker makes the
    limit, not the platform stack, the binding constraint.
    """
    result: dict = {}

    def worker():
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000_000)
        try:
            result["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            result["error"] = exc
        finally:
            sys.setrecursionlimit(old_limit)

    old_size = threading.stack_size(512 * 1024 * 1024)
    try:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old_size)

    if "error" in result:
        raise result["error"]
    return result["value"]
