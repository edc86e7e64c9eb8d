import pytest

from cmod import ast as A
from cmod.errors import ParseError
from cmod.parser import parse_repl_input, parse_source

EMP_MODULE = """
module Emp.
Age(emp) =
  switch (emp) {
    case tom: age = 31; break;
    case kim: age = 40; break;
    case sue: age = 22; break;
    default: age = 0; break;
  }
end

(Emp => Age(tom))
"""


def test_module_definition_shape():
    program = parse_source(EMP_MODULE)
    assert len(program.module_defs) == 1
    name, decl = program.module_defs[0]
    assert name == "Emp"
    assert isinstance(decl, A.Forall) and decl.var == "emp"
    clause = decl.decl
    assert isinstance(clause, A.Clause)
    assert clause.name == "Age" and clause.params == (A.Var("emp"),)
    assert isinstance(clause.body, A.Switch)
    labels = [label for label, _ in clause.body.cases]
    assert labels == [A.Atom("tom"), A.Atom("kim"), A.Atom("sue")]
    assert clause.body.cases[0][1] == A.Assign("age", A.Int(31))
    assert clause.body.default == A.Assign("age", A.Int(0))


def test_smallest_implication_has_no_forall():
    program = parse_source("(p() = true => true)")
    assert program.main == A.Implication(A.Clause("p", (), A.TrueStmt()), A.TrueStmt())


def test_module_implication_with_slash():
    program = parse_source("/Ev => Even(9)")
    assert program.main == A.Implication(A.MacroRef("Ev"), A.Call("Even", (A.Int(9),)))


def test_module_implication_parenthesized_and_bare():
    assert parse_source("(/Ev => Even(9))").main == parse_source("/Ev => Even(9)").main
    assert parse_source("Emp => Age(tom)").main == A.Implication(
        A.MacroRef("Emp"), A.Call("Age", (A.Var("tom"),))
    )


def test_sequence_is_right_associated():
    program = parse_source("x = 1; y = 2; z = 3")
    assert program.main == A.Seq(
        A.Assign("x", A.Int(1)),
        A.Seq(A.Assign("y", A.Int(2)), A.Assign("z", A.Int(3))),
    )


def test_arrow_body_extends_through_semicolons():
    program = parse_source("p() = true => x = 1; y = 2")
    main = program.main
    assert isinstance(main, A.Implication)
    assert main.body == A.Seq(A.Assign("x", A.Int(1)), A.Assign("y", A.Int(2)))


def test_arrow_body_stops_at_closing_paren():
    program = parse_source("(p() = true => x = 1); y = 2")
    main = program.main
    assert isinstance(main, A.Seq)
    assert isinstance(main.first, A.Implication)
    assert main.first.body == A.Assign("x", A.Int(1))


def test_conjunction_folds_left():
    program = parse_source("(p() = true and q() = true and r() = true => p())")
    decl = program.main.decl
    assert isinstance(decl, A.And) and isinstance(decl.left, A.And)
    assert decl.right == A.Clause("r", (), A.TrueStmt())


def test_explicit_forall_wraps_the_closure():
    program = parse_source("(forall z p(x) = (true) => p(1))")
    decl = program.main.decl
    assert decl == A.Forall("z", A.Forall("x", A.Clause("p", (A.Var("x"),), A.TrueStmt())))


def test_rename_declaration():
    program = parse_source("(ren(f, g) f(x) = (true) => g(1))")
    decl = program.main.decl
    assert isinstance(decl, A.Rename)
    assert (decl.old, decl.new) == ("f", "g")
    assert isinstance(decl.decl, A.Forall)


def test_alloc_scope_parse():
    program = parse_source("(a = new int[10] => true)")
    assert program.main == A.AllocScope("a", "int", A.Int(10), A.TrueStmt())


def test_handle_is_read_only():
    with pytest.raises(ParseError) as info:
        parse_source("(a = new int[2] => a = 1)")
    assert "read-only" in str(info.value)


def test_handle_cannot_be_rebound_by_nested_alloc():
    with pytest.raises(ParseError):
        parse_source("(a = new int[2] => (a = new int[3] => true))")


def test_handle_element_write_is_allowed():
    program = parse_source("(a = new int[2] => a[0] = 1)")
    assert isinstance(program.main.body, A.StoreIndex)


def test_handle_scope_ends_with_the_body():
    program = parse_source("(a = new int[2] => true); a = 5")
    assert isinstance(program.main.second, A.Assign)


def test_macro_scope_statement():
    program = parse_source("macro /p = { f() = true } and /q = { g() = true } in f()")
    main = program.main
    assert isinstance(main, A.MacroScope)
    assert [d.name for d in main.defs] == ["p", "q"]
    assert main.body == A.Call("f", ())
    assert program.macro_defs == ()


def test_top_level_macro_definitions():
    program = parse_source("macro /p = { f() = true }\nmacro /q = { g() = true }\ntrue")
    assert [d.name for d in program.macro_defs] == ["p", "q"]
    assert program.main == A.TrueStmt()


def test_macro_reference_conjunction():
    program = parse_source("((/p and /q) => f())")
    assert program.main.decl == A.And(A.MacroRef("p"), A.MacroRef("q"))


def test_if_without_else_defaults_to_true():
    program = parse_source("if (x == 0) print(x)")
    assert program.main == A.If(
        A.BinOp("==", A.Var("x"), A.Int(0)), A.Print(A.Var("x")), A.TrueStmt()
    )


def test_negative_case_label():
    program = parse_source("switch (x) { case -1: true break; }")
    assert program.main.cases[0][0] == A.Int(-1)


def test_call_arguments_are_expressions():
    program = parse_source("Even(x - 1)")
    assert program.main == A.Call("Even", (A.BinOp("-", A.Var("x"), A.Int(1)),))


def test_expression_precedence():
    program = parse_source("v = 1 + 2 * 3 == 7 && !(x < 0)")
    expected = A.BinOp(
        "&&",
        A.BinOp("==", A.BinOp("+", A.Int(1), A.BinOp("*", A.Int(2), A.Int(3))), A.Int(7)),
        A.UnaryOp("!", A.BinOp("<", A.Var("x"), A.Int(0))),
    )
    assert program.main == A.Assign("v", expected)


@pytest.mark.parametrize(
    "source, expr",
    [
        ("a + b == c", A.BinOp("==", A.BinOp("+", A.Var("a"), A.Var("b")), A.Var("c"))),
        ("a - b - c", A.BinOp("-", A.BinOp("-", A.Var("a"), A.Var("b")), A.Var("c"))),
        ("a || b && c", A.BinOp("||", A.Var("a"), A.BinOp("&&", A.Var("b"), A.Var("c")))),
    ],
)
def test_binary_operator_trees(source, expr):
    assert parse_source(f"x = {source}").main == A.Assign("x", expr)


@pytest.mark.parametrize(
    "source, column",
    [
        ("x = a == b == c", 12),
        ("x = a && b == c == d", 17),
        ("x = a && b == c || d == e == f", 27),
    ],
)
def test_a_comparison_takes_no_comparison_operand(source, column):
    with pytest.raises(ParseError) as info:
        parse_source(source)
    assert str(info.value) == f"1:{column}: expected end of input after the main statement, found '=='"


@pytest.mark.parametrize(
    "source",
    [
        "p(x, x) = true => p(1, 1)",
        "switch (x) { case tom: true break; case tom: true break; }",
        "module M. f() = true end module M. g() = true end true",
        "x = ",
        "(p() = true",
        "true true",
        "module . f() = true end true",
        "",
        "module M. f() = true end",
    ],
)
def test_parse_errors(source):
    with pytest.raises(ParseError):
        parse_source(source)


def test_a_duplicate_module_is_named_where_it_is_redefined():
    with pytest.raises(ParseError) as info:
        parse_source("module M. f() = true end module N. g() = true end module M. g() = true end true")
    assert str(info.value) == "1:58: expected a module name other than 'M' (already defined), found 'M'"


def test_parse_error_positions_are_in_bounds():
    cases = ["x = ;", "(p() = true", "switch (x) { case 1: true }", "x ="]
    for source in cases:
        with pytest.raises(ParseError) as info:
            parse_source(source)
        lines = source.split("\n")
        assert 1 <= info.value.line <= len(lines)
        assert 1 <= info.value.column <= len(lines[info.value.line - 1]) + 1


def test_repl_input_forms():
    seeds, stmt = parse_repl_input("x = 1")
    assert seeds == [] and stmt == A.Assign("x", A.Int(1))

    seeds, stmt = parse_repl_input("module M. f() = true end")
    assert [d.name for d in seeds] == ["M"] and stmt is None

    seeds, stmt = parse_repl_input("macro /p = { f() = true }")
    assert [d.name for d in seeds] == ["p"] and stmt is None

    seeds, stmt = parse_repl_input("module M. f() = true end (/M => f())")
    assert [d.name for d in seeds] == ["M"]
    assert stmt == A.Implication(A.MacroRef("M"), A.Call("f", ()))


def test_parsing_is_a_pure_function_of_the_token_list():
    from cmod.lexer import tokenize
    from cmod.parser import parse_program

    tokens = tokenize("x = 1; y = 2")
    snapshot = list(tokens)
    first = parse_program(tokens)
    assert tokens == snapshot
    assert parse_program(tokens) == first


def test_repl_incomplete_input_is_flagged():
    with pytest.raises(ParseError) as info:
        parse_repl_input("module M.")
    assert info.value.at_eof

    with pytest.raises(ParseError) as info:
        parse_repl_input("x = 1 +")
    assert info.value.at_eof

    with pytest.raises(ParseError) as info:
        parse_repl_input("x = ;")
    assert not info.value.at_eof


def test_an_entry_ending_in_and_before_end_of_input():
    # a conjunction goes on past the end of input
    for source in ("f() = true and", "(f() = true and"):
        with pytest.raises(ParseError) as info:
            parse_repl_input(source)
        assert info.value.at_eof
    # so does a macro group: the next definition is still to come
    with pytest.raises(ParseError) as info:
        parse_repl_input("macro /m = { f() = true } and")
    assert (str(info.value), info.value.at_eof) == ("1:30: expected '/', found end of input", True)
    # an "and" followed by anything but "/" still ends the group
    with pytest.raises(ParseError) as info:
        parse_repl_input("macro /m = { f() = true } and x = 1")
    assert (info.value.column, info.value.found, info.value.at_eof) == (27, "'and'", False)


# -- one pass over the tokens ---------------------------------------------


def nested_groups(levels):
    """A valid program whose groups nest levels deep, alternating
    declarations and statements."""
    source = "x = 1"
    for _ in range(levels):
        source = "((p() = (%s) => p()); y = 2)" % source
    return source


@pytest.mark.parametrize(
    "source", [nested_groups(8), "(" * 300 + "x = 1" + ")" * 300], ids=["nested-8", "parens-300"]
)
def test_each_token_is_advanced_once(source, monkeypatch):
    from cmod.lexer import tokenize
    from cmod.parser import _Parser

    calls = 0
    advance = _Parser._advance

    def counting_advance(self):
        nonlocal calls
        calls += 1
        return advance(self)

    monkeypatch.setattr(_Parser, "_advance", counting_advance)
    parse_source(source)
    assert calls == len(tokenize(source)) - 1  # every token but end of input


def test_deeply_nested_groups_run():
    from cmod.engine import Success, run_source

    outcome, machine = run_source(nested_groups(12))
    assert isinstance(outcome, Success)
    assert machine.store == {"x": A.Int(1), "y": A.Int(2)}


# -- parsing from a token stream -------------------------------------------


def test_the_parser_holds_at_most_two_tokens_it_has_not_passed(monkeypatch):
    from cmod.lexer import tokenize
    from cmod.parser import _Parser, parse_program

    tokens = tokenize(nested_groups(4) + "; switch (x) { case -1: y = a[0]; break; }")
    pulled = passed = held = 0

    def stream():
        nonlocal pulled
        for tok in tokens:
            pulled += 1
            yield tok

    advance = _Parser._advance

    def counting_advance(self):
        nonlocal passed, held
        tok = advance(self)
        passed += tok[0] != "eof"
        held = max(held, pulled - passed)
        return tok

    monkeypatch.setattr(_Parser, "_advance", counting_advance)
    assert parse_program(stream()) == parse_program(tokens)
    assert (pulled, held) == (len(tokens), 2)


def test_parsing_holds_the_tree_not_the_tokens():
    import tracemalloc

    # 2,000 modules of two statements each; items do not nest, so the
    # stack stays shallow (tracemalloc slows with its depth)
    source = "".join(f"module M{i}. P{i}(a) = (x{i} = a + {i} * 7 - 1; print(x{i})) end\n" for i in range(2000))
    tracemalloc.start()
    try:
        tree = parse_source(source + "true")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.module_defs) == 2000
    assert peak <= 1.25 * retained  # the token list made it about three times the tree


@pytest.mark.parametrize(
    "source",
    ["x = ; y = 1 $", "(" * 100000 + "x = 1" + "$", "x = " + '("a\\n" + ' * 100000 + "1$"],
    ids=["syntax", "nesting", "nesting-strings"],
)
@pytest.mark.parametrize("parse", [parse_source, parse_repl_input], ids=["source", "repl"])
def test_a_lex_error_after_a_syntax_error_wins(parse, source):
    from cmod.errors import LexError

    with pytest.raises(LexError) as info:
        parse(source)
    assert (info.value.line, info.value.column, info.value.char) == (1, len(source), "$")


# -- a group is what it holds -----------------------------------------------


@pytest.mark.parametrize(
    "source, decl",
    [
        (
            "(p() = true) and q() = true => p()",
            A.And(A.Clause("p", (), A.TrueStmt()), A.Clause("q", (), A.TrueStmt())),
        ),
        (
            "macro /m = { p() = true } and /n = { q() = true } /m and /n => p()",
            A.And(A.MacroRef("m"), A.MacroRef("n")),
        ),
    ],
    ids=["group", "macro-refs"],
)
def test_conjunction_after_a_group_or_macro_reference(source, decl):
    from cmod.engine import Success, run_source
    from cmod.printer import pretty_print

    program = parse_source(source)
    assert program.main == A.Implication(decl, A.Call("p", ()))
    assert isinstance(run_source(source)[0], Success)
    assert parse_source(pretty_print(program)) == program


def test_repl_lone_declaration_group_asks_for_more():
    with pytest.raises(ParseError) as info:
        parse_repl_input("(p() = true)")
    assert info.value.at_eof and info.value.expected == "'=>'"


def test_forall_declaration_after_semicolon():
    program = parse_source("x = 1; forall y p() = true => p()")
    assert program.main == A.Seq(
        A.Assign("x", A.Int(1)),
        A.Implication(A.Forall("y", A.Clause("p", (), A.TrueStmt())), A.Call("p", ())),
    )


def test_ren_declaration_after_semicolon():
    program = parse_source("x = 1; ren(p, q) p() = true => q()")
    assert program.main == A.Seq(
        A.Assign("x", A.Int(1)),
        A.Implication(A.Rename("p", "q", A.Clause("p", (), A.TrueStmt())), A.Call("q", ())),
    )


@pytest.mark.parametrize(
    "source, column",
    [
        ("p((a)) = print(a) => p(1)", 3),
        ("(p((a)) = true) => p(1)", 4),
        ("p(a, (b)) = print(b) => p(1, 2)", 6),
        ("p(1) = true => p(1)", 3),
        ("p(a + 1) = true => p(1)", 3),
    ],
    ids=["statement-head", "group-head", "second-formal", "literal", "expression"],
)
def test_formals_are_bare_identifiers(source, column):
    # formals in docs/grammar.ebnf are identifiers, wherever the head is
    with pytest.raises(ParseError) as info:
        parse_source(source)
    assert (info.value.expected, info.value.column) == ("formal parameter", column)


def test_parenthesised_formal_is_a_syntax_error_in_cmod_run(tmp_path, capsys):
    from cmod.cli import main

    path = tmp_path / "prog.cmod"
    path.write_text("p((a)) = print(a) => p(1)\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected formal parameter" in captured.err
