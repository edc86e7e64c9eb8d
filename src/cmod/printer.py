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
    """expr's text, parenthesized if its operator binds looser than
    min_prec. One loop prints each operator's first operand first; work
    holds what is left to print, last piece first: text, or an operand
    with its min_prec."""
    if type(expr) not in _OPERATORS:
        return _leaf(expr, env)
    if type(expr) is ast.BinOp and type(expr.left) not in _OPERATORS and type(expr.right) not in _OPERATORS:
        text = _leaf(expr.left, env) + _OPERATOR_TEXT[expr.op] + _leaf(expr.right, env)  # the usual case, at once
        return f"({text})" if PRECEDENCE[expr.op] < min_prec else text
    parts, work = [], []
    while True:
        if type(expr) is ast.BinOp:
            prec = PRECEDENCE[expr.op]
            if prec < min_prec:
                parts.append("(")
                work.append(")")
            work += (expr.right, prec + 1), _OPERATOR_TEXT[expr.op]
            # comparisons are non-associative: parenthesize nested ones on either side
            expr, min_prec = expr.left, prec + 1 if prec == PRECEDENCE["=="] else prec
            continue
        if type(expr) is ast.UnaryOp:
            if min_prec > 6:
                parts.append("(")
                work.append(")")
            parts.append(expr.op)
            expr, min_prec = expr.operand, 6
            continue
        if type(expr) is ast.Index:
            work += "]", (expr.index, 0), "["
            expr, min_prec = expr.base, 7
            continue
        parts.append(_leaf(expr, env))
        while work and type(work[-1]) is str:
            parts.append(work.pop())
        if not work:
            return "".join(parts)
        expr, min_prec = work.pop()


_OPERATORS = (ast.BinOp, ast.UnaryOp, ast.Index)
_OPERATOR_TEXT = {op: f" {op} " for op in PRECEDENCE}


def _leaf(expr: ast.Expression, env) -> str:
    """The text of a variable, or of a value as its literal."""
    if type(expr) is ast.Var:
        value = env.get(expr.name) if env else None
        if value is None:
            return expr.name
        expr = value
    if type(expr) is ast.Str:
        return '"' + "".join(_ESCAPES.get(c, c) for c in expr.value) + '"'
    if type(expr) in ast.Value:
        return ast.render_value(expr)
    raise TypeError(f"not an expression: {expr!r}")


def format_statement(stmt: ast.Statement, indent: int = 0, compact: bool = False, env=None) -> str:
    """The text of a statement, or of a declaration. As in format_expression,
    one loop prints the first part of each node first; work holds what is
    left to print, last piece first: text, or (node, indent, env)."""
    parts, work, node = [], [], stmt
    nl = nl2 = " "  # a line break and one indented a level deeper, in one line when compact
    while True:
        kind = type(node)
        if not compact:
            nl, nl2 = "\n" + " " * indent, "\n" + " " * (indent + 2)
        if kind is ast.Call:
            parts.append(f"{node.name}({', '.join(format_expression(a, 0, env) for a in node.args)})")
        elif kind is ast.Assign:
            parts.append(f"{node.name} = {format_expression(node.expr, 0, env)}")
        elif kind is ast.Seq:
            work += (node.second, indent, env), f";{nl}"
            if type(node.first) is ast.Seq:
                parts.append("(")
                work.append(")")
            node = node.first
            continue
        elif kind is ast.If:
            parts.append(f"if ({format_expression(node.cond, 0, env)}) (")
            work += ")", (node.orelse, indent + 2, env), ") else ("
            node, indent = node.then, indent + 2
            continue
        elif kind is ast.Forall:
            chain: list[str] = []
            while type(node) is ast.Forall:
                chain.append(node.var)
                node = node.decl
            env = _hide(env, chain)
            if type(node) is ast.Clause:  # a parameter printed as a value is in no chain: it fails as the value would
                formals = [p.name for p in node.params if type(p) is ast.Var]
                if len(formals) == len(node.params) and chain[len(chain) - len(formals):] == formals:
                    del chain[len(chain) - len(formals):]  # the formals' quantifiers go without saying
            parts.append("".join(f"forall {v} " for v in chain))
            work += _unit(node, indent, env)
        elif kind is ast.Clause:
            parts.append(f"{node.name}({', '.join(format_expression(p, 0, env) for p in node.params)}) = (")
            work.append(")")
            node, indent = node.body, indent + 2
            continue
        elif kind is ast.TrueStmt:
            parts.append("true")
        elif kind is ast.Print:
            parts.append(f"print({format_expression(node.expr, 0, env)})")
        elif kind is ast.StoreIndex:
            base = format_expression(node.base, 7, env)
            parts.append(f"{base}[{format_expression(node.index, 0, env)}] = {format_expression(node.value, 0, env)}")
        elif kind is ast.Implication:
            parts.append("(")
            work += ")", (node.body, indent + 2, env), f" =>{nl2}"
            node, indent = node.decl, indent + 1
            continue
        elif kind is ast.AllocScope:
            parts.append(f"({node.handle} = new {node.elem_type}[{format_expression(node.length, 0, env)}] =>{nl2}")
            work.append(")")
            node, indent, env = node.body, indent + 2, _hide(env, (node.handle,))
            continue
        elif kind is ast.And:
            work += *_unit(node.right, indent, env), f"{nl}and "
            node = node.left
            continue
        elif kind is ast.Rename:
            parts.append(f"ren({node.old}, {node.new}) ")
            work += _unit(node.decl, indent, env)
        elif kind is ast.MacroRef:
            parts.append(f"/{node.name}")
        elif kind is ast.MacroScope:
            work += ")", (node.body, indent + 2, env), f" in{nl2}"
            for i, d in reversed(list(enumerate(node.defs))):
                work += f"{nl}}}", (d.body, indent + 2, env), f"{' and ' if i else '(macro '}/{d.name} = {{{nl2}"
        elif kind is ast.Switch:
            work += f"; break;{nl}}}", (node.default, indent + 4, env), f"{nl}  default: "
            for label, body in reversed(node.cases):
                work += "; break;", (body, indent + 4, env), f"{nl}  case {ast.render_value(label)}: "
            parts.append(f"switch ({format_expression(node.scrutinee, 0, env)}) {{")
        else:
            raise TypeError(f"not a statement or declaration: {node!r}")
        while work and type(work[-1]) is str:
            parts.append(work.pop())
        if not work:
            return "".join(parts)
        node, indent, env = work.pop()


def format_declaration(decl: ast.Declaration, indent: int = 0, compact: bool = False, env=None) -> str:
    return format_statement(decl, indent, compact, env)


def _unit(decl: ast.Declaration, indent: int, env) -> tuple:
    """The work items that print decl as an operand of and, ren or forall:
    a conjunction goes in parentheses."""
    return (")", (decl, indent, env), "(") if type(decl) is ast.And else ((decl, indent, env),)


def _hide(env, names):
    """env without names, which a quantifier chain or a handle binds."""
    if env and not env.keys().isdisjoint(names):
        env = {var: value for var, value in env.items() if var not in names}
    return env
