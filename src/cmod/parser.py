"""Parser producing cmod syntax trees, recursive descent without Python recursion.

Concrete syntax notes:

* ``D => G`` is the implication statement; ``/n => G`` and ``Name => G``
  are module implications, implications whose declaration is the macro
  reference ``/n``; ``p = new int[E] => G`` is the allocation scope.
* In statement position the first tokens decide, in one pass, between a
  statement and a declaration: ``forall``, ``ren`` and ``/`` start a
  declaration, ``IDENT(args) =`` is a clause, and a parenthesised group
  is whatever it holds. A group holding a declaration closes either
  before the arrow, ``(D) => G``, or after the body, ``(D => G)``. Each
  token is read once, so parsing time is linear in the input.
* An arrow's body extends as far as possible (through ``;``) and is
  closed by the matching parenthesis, so compound bodies are written in
  parentheses.
* ``and`` conjoins clauses inside a declaration; clause formals are
  universally closed by the parser, leftmost formal outermost.
* ``macro /n = { D } and /m = { D } in G`` scopes macro definitions to a
  statement; without ``in`` the definitions are top level.
* ``module N. D end`` names a module at top level.
* Binary operators climb one table, ``PRECEDENCE``, which the printer
  reads too: left-associative, except that a comparison takes no
  comparison operand (``a == b == c`` is a syntax error).
* Tokens come one at a time from any iterable and are dropped once read.
  A LexError anywhere wins over a ParseError.
* Nothing recurses in Python on the input's nesting: statements and
  declarations are generators run by ``ast.drive``, and an expression
  is read by one operator-precedence loop, so any nesting parses.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import ast
from .errors import ParseError
from .lexer import lex

_STATEMENT_START_KEYWORDS = {"true", "if", "switch", "print", "macro", "forall", "ren"}
# Binary operator precedence, loosest first; the printer reads it too.
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5,
}
_TIGHTEST = max(PRECEDENCE.values())
_COMPARISON = PRECEDENCE["=="]
_LITERALS = {"ident": ast.Var, "int": lambda lexeme: ast.Int(int(lexeme)), "string": ast.Str}  # by token kind
_CLOSING = {"(": ")", "[": "]"}


class SourceProgram(ast.Node):
    module_defs: tuple[tuple[str, ast.Declaration], ...]
    macro_defs: tuple[ast.MacroDef, ...]
    main: ast.Statement

    def seeds(self) -> list[ast.MacroDef]:
        """Macro-environment seeds: modules first, then macros, in source
        order; later entries shadow earlier ones."""
        out = [ast.MacroDef(name, decl) for name, decl in self.module_defs]
        out.extend(self.macro_defs)
        return out


def parse_source(source: str) -> SourceProgram:
    return parse_program(lex(source))


def parse_program(tokens: Iterable[tuple]) -> SourceProgram:
    return _Parser(tokens).run(need_main=True)


def parse_repl_input(source: str) -> tuple[list[ast.MacroDef], ast.Statement | None]:
    """Parse one REPL entry: any number of module/macro definitions,
    optionally followed by a statement."""
    program = _Parser(lex(source)).run(need_main=False)
    return program.seeds(), program.main


class _Parser:
    """A method that parses what nests is a generator that yields the parse of
    each part (ast.drive runs it), or returns a node or such a generator."""

    def __init__(self, tokens: Iterable[tuple]):
        self._tokens = iter(tokens)
        self.tok = next(self._tokens)  # the current (kind, lexeme, offset, source)
        self.ahead = next(self._tokens, self.tok)  # the one after it; eof repeats
        self._handles: list[str] = []

    def run(self, need_main: bool) -> SourceProgram:
        """The program the tokens hold; a ParseError first reads the rest of
        them, so a LexError anywhere wins over it."""
        try:
            return ast.drive(self._parse_program(need_main))
        except ParseError as exc:
            error = exc
        for _ in self._tokens:
            pass
        raise error

    # -- token helpers ------------------------------------------------

    def _peek(self, ahead: int = 0) -> tuple:
        return self.ahead if ahead else self.tok

    def _advance(self) -> tuple:
        tok = self.tok
        if tok[0] != "eof":
            self.ahead, self.tok = next(self._tokens, self.ahead), self.ahead
        return tok

    def _check(self, lexeme: str, ahead: int = 0) -> bool:
        tok = self.ahead if ahead else self.tok
        return tok[1] == lexeme and tok[0] in ("punct", "keyword")

    def _accept(self, lexeme: str) -> bool:
        if self._check(lexeme):
            self._advance()
            return True
        return False

    def _error(self, expected: str, tok: tuple | None = None) -> ParseError:
        kind, lexeme, offset, source = tok or self.tok
        found = "end of input" if kind == "eof" else repr(lexeme)
        return ParseError(source, offset, expected, found, at_eof=kind == "eof")

    def _expect(self, lexeme: str) -> tuple:
        if not self._check(lexeme):
            raise self._error(f"'{lexeme}'")
        return self._advance()

    def _expect_ident(self, what: str = "identifier") -> tuple:
        if self.tok[0] != "ident":
            raise self._error(what)
        return self._advance()

    # -- program structure --------------------------------------------

    def _parse_program(self, need_main: bool):
        """Module and macro definitions, then the main statement, which only
        the REPL (need_main false) may leave out; then the end of input."""
        module_defs: dict[str, ast.Declaration] = {}  # in source order
        macro_defs: list[ast.MacroDef] = []
        main: ast.Statement | None = None
        while True:
            if self._check("module"):
                name_tok, decl = yield self._parse_module_def()
                if name_tok[1] in module_defs:
                    raise self._error(f"a module name other than '{name_tok[1]}' (already defined)", name_tok)
                module_defs[name_tok[1]] = decl
                continue
            if self._check("macro"):
                self._advance()
                defs = yield self._parse_macro_defs()
                if self._accept("in"):
                    main = ast.MacroScope(defs, (yield self.parse_statement()))
                    break
                macro_defs.extend(defs)
                continue
            break
        if main is None and (need_main or self._peek()[0] != "eof"):
            main = yield self.parse_statement()
        if self._peek()[0] != "eof":
            raise self._error("end of input after the main statement" if need_main else "end of input")
        return SourceProgram(tuple(module_defs.items()), tuple(macro_defs), main)

    def _parse_module_def(self):
        self._expect("module")
        name_tok = self._expect_ident("module name")
        self._expect(".")
        decl = yield self.parse_declaration()
        self._expect("end")
        return name_tok, decl

    def _parse_macro_defs(self):
        defs = []
        while True:
            self._expect("/")
            name = self._expect_ident("macro name")[1]
            self._expect("=")
            self._expect("{")
            body = yield self.parse_declaration()
            self._expect("}")
            defs.append(ast.MacroDef(name, body))
            # an "and" before the end of input is a group not finished yet
            if self._check("and") and (self._check("/", ahead=1) or self._peek(1)[0] == "eof"):
                self._advance()
                continue
            break
        return tuple(defs)

    # -- statements ----------------------------------------------------

    def parse_statement(self, first: ast.Statement | None = None):
        """Arrows joined by ';', nested to the right, first the one already
        read if given. A chain is length, not nesting: a loop reads it."""
        stmts = [(yield self._parse_arrow()) if first is None else first]
        while self._accept(";") and self._starts_statement():
            stmts.append((yield self._parse_arrow()))
        stmt = stmts.pop()
        while stmts:
            stmt = ast.Seq(stmts.pop(), stmt)
        return stmt

    def _starts_statement(self) -> bool:
        tok = self._peek()
        if tok[0] == "ident":
            return True
        if tok[0] == "keyword":
            return tok[1] in _STATEMENT_START_KEYWORDS
        return tok[0] == "punct" and tok[1] in ("(", "/")

    def _parse_arrow(self):
        unit = yield self._parse_unit()
        if type(unit) in ast.Declaration:
            return (yield self._parse_implication((yield self._parse_conjuncts(unit))))
        return unit

    def _parse_implication(self, decl: ast.Declaration):
        self._expect("=>")
        return ast.Implication(decl, (yield self.parse_statement()))

    def _parse_unit(self):
        """A statement, or the first unit of an implication's declaration,
        decided by the first tokens."""
        if self.tok[0] == "ident":
            return self._parse_ident_statement()
        if self._check("("):
            return self._parse_group()
        if self._check("forall") or self._check("ren") or self._check("/"):
            return self._parse_decl_unit()
        if self._accept("true"):
            return ast.TrueStmt()
        if self._check("if"):
            return self._parse_if()
        if self._check("switch"):
            return self._parse_switch()
        if self._accept("print"):
            self._expect("(")
            expr = self.parse_expression()
            self._expect(")")
            return ast.Print(expr)
        if self._accept("macro"):
            return self._parse_macro_scope()
        raise self._error("statement")

    def _parse_macro_scope(self):
        defs = yield self._parse_macro_defs()
        self._expect("in")
        return ast.MacroScope(defs, (yield self.parse_statement()))

    def _parse_group(self):
        """A parenthesised group: a declaration when it holds one and
        closes before the arrow, as in ``(D) => G``; otherwise a statement,
        which may be ``(D => G)``."""
        self._expect("(")
        unit = yield self._parse_unit()
        if type(unit) in ast.Declaration:
            decl = yield self._parse_conjuncts(unit)
            if self._accept(")"):
                return decl
            unit = yield self._parse_implication(decl)
        inner = yield self.parse_statement(unit)
        self._expect(")")
        return inner

    def _parse_ident_statement(self):
        name_tok = self._advance()
        name = name_tok[1]

        if self._check("=>"):
            return self._parse_implication(ast.MacroRef(name))

        if self._accept("="):
            if self._check("new"):
                return self._parse_alloc(name_tok)
            if name in self._handles:
                raise self._error(
                    f"no assignment to '{name}' (region handles are read-only in their scope)", name_tok
                )
            return ast.Assign(name, self.parse_expression())

        if self._accept("["):
            index = self.parse_expression()
            self._expect("]")
            self._expect("=")
            return ast.StoreIndex(ast.Var(name), index, self.parse_expression())

        if self._check("("):
            args, not_formal = self._parse_arguments()
            if self._accept("="):  # a clause head: the first unit of an implication
                return self._finish_clause(name_tok, args, not_formal)
            return ast.Call(name, args)

        raise self._error("'=>', '=', '[' or '(' after identifier", name_tok)

    def _parse_alloc(self, name_tok: tuple):
        name = name_tok[1]
        if name in self._handles:
            raise self._error(
                f"no rebinding of '{name}' (region handles are read-only in their scope)", name_tok
            )
        self._expect("new")
        self._expect("int")
        self._expect("[")
        length = self.parse_expression()
        self._expect("]")
        self._expect("=>")
        self._handles.append(name)
        body = yield self.parse_statement()
        self._handles.pop()
        return ast.AllocScope(name, "int", length, body)

    def _parse_if(self):
        self._expect("if")
        self._expect("(")
        cond = self.parse_expression()
        self._expect(")")
        then = yield self._parse_arrow()
        orelse: ast.Statement = ast.TrueStmt()
        if self._accept("else"):
            orelse = yield self._parse_arrow()
        return ast.If(cond, then, orelse)

    def _parse_switch(self):
        self._expect("switch")
        self._expect("(")
        scrutinee = self.parse_expression()
        self._expect(")")
        self._expect("{")
        cases: list[tuple[ast.Value, ast.Statement]] = []
        seen: set[ast.Value] = set()
        while self._check("case"):
            self._advance()
            label_tok = self._peek()
            label = self._parse_case_label()
            if label in seen:
                raise self._error("a distinct case label", label_tok)
            seen.add(label)
            self._expect(":")
            body = yield self.parse_statement()
            self._expect("break")
            self._expect(";")
            cases.append((label, body))
        default: ast.Statement = ast.TrueStmt()
        if self._accept("default"):
            self._expect(":")
            default = yield self.parse_statement()
            self._expect("break")
            self._expect(";")
        self._expect("}")
        return ast.Switch(scrutinee, tuple(cases), default)

    def _parse_case_label(self) -> ast.Value:
        tok = self._peek()
        if tok[0] == "ident":
            self._advance()
            return ast.Atom(tok[1])
        if tok[0] == "int":
            self._advance()
            return ast.Int(int(tok[1]))
        if self._check("-") and self._peek(1)[0] == "int":
            self._advance()
            return ast.Int(-int(self._advance()[1]))
        raise self._error("case label (atom or integer)")

    # -- declarations ---------------------------------------------------

    def parse_declaration(self):
        return (yield self._parse_conjuncts((yield self._parse_decl_unit())))

    def _parse_conjuncts(self, decl: ast.Declaration):
        while self._accept("and"):
            decl = ast.And(decl, (yield self._parse_decl_unit()))
        return decl

    def _parse_decl_unit(self):
        if self._accept("forall"):
            var = self._expect_ident("bound variable name")[1]
            return ast.Forall(var, (yield self._parse_decl_unit()))
        if self._accept("ren"):
            self._expect("(")
            old = self._expect_ident("procedure name")[1]
            self._expect(",")
            new = self._expect_ident("procedure name")[1]
            self._expect(")")
            return ast.Rename(old, new, (yield self._parse_decl_unit()))
        if self._accept("/"):
            return ast.MacroRef(self._expect_ident("macro name")[1])
        if self._accept("("):
            decl = yield self.parse_declaration()
            self._expect(")")
            return decl
        if self.tok[0] == "ident":
            name_tok = self._advance()
            args, not_formal = self._parse_arguments()
            self._expect("=")
            return (yield self._finish_clause(name_tok, args, not_formal))
        raise self._error("declaration")

    def _parse_arguments(self) -> tuple[tuple[ast.Expression, ...], tuple | None]:
        """'(' arguments ')', and the token that starts the first that is not a lone identifier, if any."""
        self._expect("(")
        args, not_formal = [], None
        if not self._check(")"):
            while True:
                first = self.tok
                args.append(self.parse_expression())
                if not_formal is None and (first[0] != "ident" or type(args[-1]) is not ast.Var):
                    not_formal = first
                if not self._accept(","):
                    break
        self._expect(")")
        return tuple(args), not_formal

    def _finish_clause(self, name_tok: tuple, params: tuple[ast.Expression, ...], not_formal: tuple | None):
        if not_formal is not None:
            raise self._error("formal parameter", not_formal)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise self._error("distinct formal parameter names", name_tok)
        body = yield self.parse_statement()
        decl: ast.Declaration = ast.Clause(name_tok[1], params, body)
        for name in reversed(names):
            decl = ast.Forall(name, decl)
        return decl

    # -- expressions ----------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        """One expression, read by one operator-precedence loop. The open
        expression takes binary operators of precedence min_prec to limit; a
        comparison lowers limit below the comparisons, so they do not chain.
        pending holds what waits for an operand: a prefix operator, or (left
        operand or None, operator or bracket, the bounds to go on with)."""
        pending: list = []
        min_prec, limit, expr = 1, _TIGHTEST, None
        while True:
            tok = self.tok
            if expr is None:  # an operand: prefix operators, then a primary
                if tok[0] in _LITERALS:
                    expr = _LITERALS[tok[0]](tok[1])
                elif self._check("true") or self._check("false"):
                    expr = ast.Bool(tok[1] == "true")
                elif self._check("!") or self._check("-"):
                    pending.append(tok[1])
                elif self._check("("):
                    pending.append((None, "(", min_prec, limit))
                    min_prec, limit = 1, _TIGHTEST
                else:
                    raise self._error("expression")
                self._advance()
            elif self._accept("["):  # after a primary: its indexes, its prefix operators, then binary operators
                pending.append((expr, "[", min_prec, limit))
                min_prec, limit, expr = 1, _TIGHTEST, None
            else:
                while pending and type(pending[-1]) is str:
                    expr = ast.UnaryOp(pending.pop(), expr)
                prec = PRECEDENCE.get(tok[1], 0) if tok[0] == "punct" else 0
                if min_prec <= prec <= limit:
                    self._advance()
                    pending.append((expr, tok[1], min_prec, prec - 1 if prec == _COMPARISON else prec))
                    min_prec, limit, expr = prec + 1, _TIGHTEST, None
                elif not pending:
                    return expr
                else:  # the open expression ends
                    left, op, min_prec, limit = pending.pop()
                    if op in _CLOSING:
                        self._expect(_CLOSING[op])
                        expr = expr if left is None else ast.Index(left, expr)
                    else:
                        expr = ast.BinOp(op, left, expr)
