"""Canonical text form of cmod trees.

``pretty_print`` emits a program that re-parses to a structurally equal
tree; the compact single-line forms are used for trace and diagnostic
rendering. In an environment, a variable bound to a value prints as the
value, unless a quantifier or handle of its name hides it, as in ``substitute``.
"""

from __future__ import annotations

from . import ast
from .lexer import ESCAPES
from .parser import PRECEDENCE, SourceProgram

_ESCAPES = {char: "\\" + name for name, char in ESCAPES.items()}  # the lexer's, reversed


def pretty_print(program: SourceProgram) -> str:
    parts: list[str] = []
    for name, decl in program.module_defs:
        parts.append(f"module {name}.\n{format_declaration(decl)}\nend")
    for macro in program.macro_defs:
        parts.append(f"macro /{macro.name} = {{\n  {format_declaration(macro.body, indent=2)}\n}}")
    parts.append(format_statement(program.main))
    return "\n\n".join(parts)


def format_expression(expr: ast.Expression, min_prec: int = 0, env=None) -> str:
    if type(expr) is ast.Var:
        value = env.get(expr.name) if env else None
        return expr.name if value is None else format_expression(value)
    if type(expr) is ast.Str:
        return '"' + "".join(_ESCAPES.get(c, c) for c in expr.value) + '"'
    if type(expr) in ast.Value:
        return ast.render_value(expr)
    if type(expr) is ast.Index:
        return f"{format_expression(expr.base, 7, env)}[{format_expression(expr.index, 0, env)}]"
    if type(expr) is ast.UnaryOp:
        text = f"{expr.op}{format_expression(expr.operand, 6, env)}"
        return f"({text})" if min_prec > 6 else text
    if type(expr) is ast.BinOp:
        prec = PRECEDENCE[expr.op]
        # comparisons are non-associative: parenthesize nested ones on
        # either side
        left_prec = prec + 1 if prec == PRECEDENCE["=="] else prec
        left = format_expression(expr.left, left_prec, env)
        right = format_expression(expr.right, prec + 1, env)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if prec < min_prec else text
    raise TypeError(f"not an expression: {expr!r}")


def format_statement(stmt: ast.Statement, indent: int = 0, compact: bool = False, env=None) -> str:
    nl = " " if compact else "\n" + " " * indent
    nl2 = " " if compact else "\n" + " " * (indent + 2)

    if type(stmt) is ast.TrueStmt:
        return "true"
    if type(stmt) is ast.Call:
        args = ", ".join(format_expression(a, 0, env) for a in stmt.args)
        return f"{stmt.name}({args})"
    if type(stmt) is ast.Assign:
        return f"{stmt.name} = {format_expression(stmt.expr, 0, env)}"
    if type(stmt) is ast.StoreIndex:
        base = format_expression(stmt.base, 7, env)
        return f"{base}[{format_expression(stmt.index, 0, env)}] = {format_expression(stmt.value, 0, env)}"
    if type(stmt) is ast.Print:
        return f"print({format_expression(stmt.expr, 0, env)})"
    if type(stmt) is ast.Seq:
        first = format_statement(stmt.first, indent, compact, env)
        if type(stmt.first) is ast.Seq:
            first = f"({first})"
        return f"{first};{nl}{format_statement(stmt.second, indent, compact, env)}"
    if type(stmt) is ast.Implication:
        decl = format_declaration(stmt.decl, indent + 1, compact, env)
        body = format_statement(stmt.body, indent + 2, compact, env)
        return f"({decl} =>{nl2}{body})"
    if type(stmt) is ast.MacroScope:
        defs = " and ".join(
            f"/{d.name} = {{{nl2}{format_declaration(d.body, indent + 2, compact, env)}{nl}}}"
            for d in stmt.defs
        )
        return f"(macro {defs} in{nl2}{format_statement(stmt.body, indent + 2, compact, env)})"
    if type(stmt) is ast.AllocScope:
        head = f"{stmt.handle} = new {stmt.elem_type}[{format_expression(stmt.length, 0, env)}]"
        body = format_statement(stmt.body, indent + 2, compact, _hide(env, (stmt.handle,)))
        return f"({head} =>{nl2}{body})"
    if type(stmt) is ast.If:
        cond = format_expression(stmt.cond, 0, env)
        then = format_statement(stmt.then, indent + 2, compact, env)
        orelse = format_statement(stmt.orelse, indent + 2, compact, env)
        return f"if ({cond}) ({then}) else ({orelse})"
    if type(stmt) is ast.Switch:
        lines = [f"switch ({format_expression(stmt.scrutinee, 0, env)}) {{"]
        for label, body in stmt.cases:
            body_text = format_statement(body, indent + 4, compact, env)
            lines.append(f"  case {ast.render_value(label)}: {body_text}; break;")
        lines.append(f"  default: {format_statement(stmt.default, indent + 4, compact, env)}; break;")
        lines.append("}")
        return nl.join(lines)
    raise TypeError(f"not a statement: {stmt!r}")


def format_declaration(decl: ast.Declaration, indent: int = 0, compact: bool = False, env=None) -> str:
    nl = " " if compact else "\n" + " " * indent

    if type(decl) is ast.Forall:
        chain: list[str] = []
        inner: ast.Declaration = decl
        while type(inner) is ast.Forall:
            chain.append(inner.var)
            inner = inner.decl
        env = _hide(env, chain)
        if type(inner) is ast.Clause:  # a parameter printed as a value is in no chain: it fails as the value would
            formals = [p.name for p in inner.params if type(p) is ast.Var]
            if len(formals) == len(inner.params) and chain[len(chain) - len(formals):] == formals:
                explicit = chain[: len(chain) - len(formals)]
                prefix = "".join(f"forall {v} " for v in explicit)
                return prefix + format_declaration(inner, indent, compact, env)
        prefix = "".join(f"forall {v} " for v in chain)
        return prefix + _format_decl_unit(inner, indent, compact, env)
    if type(decl) is ast.Clause:
        params = ", ".join(format_expression(p, 0, env) for p in decl.params)
        body = format_statement(decl.body, indent + 2, compact, env)
        return f"{decl.name}({params}) = ({body})"
    if type(decl) is ast.And:
        left = format_declaration(decl.left, indent, compact, env)
        right = _format_decl_unit(decl.right, indent, compact, env)
        return f"{left}{nl}and {right}"
    if type(decl) is ast.Rename:
        return f"ren({decl.old}, {decl.new}) {_format_decl_unit(decl.decl, indent, compact, env)}"
    if type(decl) is ast.MacroRef:
        return f"/{decl.name}"
    raise TypeError(f"not a declaration: {decl!r}")


def _format_decl_unit(decl: ast.Declaration, indent: int, compact: bool, env=None) -> str:
    text = format_declaration(decl, indent, compact, env)
    if type(decl) is ast.And:
        return f"({text})"
    return text


def _hide(env, names):
    """env without names, which a quantifier chain or a handle binds."""
    if env and not env.keys().isdisjoint(names):
        env = {var: value for var, value in env.items() if var not in names}
    return env
