import hypothesis.strategies as st
from hypothesis import given

from cmod import ast as A
from cmod.lexer import tokenize
from cmod.parser import _Parser, parse_source
from cmod.printer import format_expression, format_statement, pretty_print


def test_print_true():
    assert pretty_print(parse_source("true")) == "true"


def test_print_sequence_golden():
    assert pretty_print(parse_source("x=1;y=2")) == "x = 1;\ny = 2"


def test_round_trip_corpus(corpus_files):
    for path in corpus_files:
        first = parse_source(path.read_text(encoding="utf-8"))
        second = parse_source(pretty_print(first))
        assert first == second, f"round trip changed {path.name}"


def test_pretty_print_is_stable(corpus_files):
    for path in corpus_files:
        once = pretty_print(parse_source(path.read_text(encoding="utf-8")))
        twice = pretty_print(parse_source(once))
        assert once == twice


def test_needed_parentheses_are_kept():
    program = parse_source("x = (1 + 2) * 3")
    assert pretty_print(program) == "x = (1 + 2) * 3"
    program = parse_source("x = 1 + 2 * 3")
    assert pretty_print(program) == "x = 1 + 2 * 3"


def test_compact_statement_is_single_line():
    source = "(Emp =>\n  (Age(tom);\n   print(age)))"
    text = format_statement(parse_source(source).main, compact=True)
    assert "\n" not in text
    assert text == "(/Emp => Age(tom); print(age))"


def test_string_escapes_round_trip():
    program = parse_source('msg = "a\\nb\\t\\"c\\\\"')
    assert parse_source(pretty_print(program)) == program


def test_module_and_macro_printing():
    source = (
        "module M.\nf(x) = (y = x)\nand g() = true\nend\n"
        "macro /p = { h() = print(1) }\n"
        "(/M => f(2))"
    )
    program = parse_source(source)
    assert parse_source(pretty_print(program)) == program


# -- property: expression printing re-parses to the same tree ------------

_names = st.sampled_from(["x", "y", "emp", "total_9"])

_expr = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=999).map(A.Int),
        st.booleans().map(A.Bool),
        st.text(alphabet="ab c\n\t\"\\", max_size=6).map(A.Str),
        _names.map(A.Var),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]), inner, inner).map(
            lambda t: A.BinOp(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["!", "-"]), inner).map(lambda t: A.UnaryOp(t[0], t[1])),
        st.tuples(inner, inner).map(lambda t: A.Index(t[0], t[1])),
    ),
    max_leaves=25,
)


@given(_expr)
def test_expression_print_parse_round_trip(expr):
    text = format_expression(expr)
    parser = _Parser(tokenize(text))
    reparsed = parser.parse_expression()
    assert parser._peek().kind == "eof"
    assert reparsed == expr


# -- property: statement printing re-parses to the same tree -------------

_small_expr = st.one_of(
    st.integers(min_value=0, max_value=99).map(A.Int),
    st.booleans().map(A.Bool),
    _names.map(A.Var),
    st.builds(A.BinOp, st.sampled_from(["+", "=="]), _names.map(A.Var), st.integers(0, 9).map(A.Int)),
)

_proc_names = st.sampled_from(["p", "q", "tick"])
_macro_names = st.sampled_from(["ma", "mb"])


def _closed_clause(name: str, params: tuple[str, ...], body) -> A.Declaration:
    decl = A.Clause(name, tuple(A.Var(v) for v in params), body)
    for var in reversed(params):
        decl = A.Forall(var, decl)
    return decl


def _decl_strategy(stmt):
    clause = st.builds(
        _closed_clause,
        _proc_names,
        st.sampled_from([(), ("a",), ("a", "b")]),
        stmt,
    )
    return st.recursive(
        st.one_of(clause, _macro_names.map(A.MacroRef)),
        lambda inner: st.one_of(
            st.builds(A.And, inner, inner),
            st.builds(A.Forall, st.sampled_from(["w", "v"]), inner),
            st.builds(A.Rename, _proc_names, _proc_names, inner),
        ),
        max_leaves=4,
    )


_leaf_stmt = st.one_of(
    st.just(A.TrueStmt()),
    st.builds(A.Assign, _names, _small_expr),
    st.builds(A.Print, _small_expr),
    st.builds(A.Call, _proc_names, st.tuples()),
    st.builds(A.Call, _proc_names, st.tuples(_small_expr)),
    st.builds(A.StoreIndex, _names.map(A.Var), _small_expr, _small_expr),
)

_stmt = st.recursive(
    _leaf_stmt,
    lambda inner: st.one_of(
        st.builds(A.Seq, inner, inner),
        st.builds(A.If, _small_expr, inner, inner),
        # a bare macro reference before "=>" IS the module-implication
        # form, so it is generated as one below, never as an Implication
        st.builds(
            A.Implication,
            _decl_strategy(inner).filter(lambda d: not isinstance(d, A.MacroRef)),
            inner,
        ),
        st.builds(A.Implication, _macro_names.map(A.MacroRef), inner),
        st.builds(
            A.MacroScope,
            st.lists(st.builds(A.MacroDef, _macro_names, _decl_strategy(inner)), min_size=1, max_size=2).map(tuple),
            inner,
        ),
        st.builds(
            A.Switch,
            _small_expr,
            st.lists(
                st.tuples(st.sampled_from([A.Atom("tom"), A.Atom("kim"), A.Int(3)]), inner),
                min_size=1,
                max_size=3,
                unique_by=lambda case: case[0],
            ).map(tuple),
            inner,
        ),
    ),
    max_leaves=8,
)


@given(_stmt)
def test_statement_print_parse_round_trip(stmt):
    for compact in (False, True):
        text = format_statement(stmt, compact=compact)
        parser = _Parser(tokenize(text))
        reparsed = parser.parse_statement()
        assert parser._peek().kind == "eof"
        assert reparsed == stmt
