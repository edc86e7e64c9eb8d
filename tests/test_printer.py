import random

import hypothesis.strategies as st
from hypothesis import given

import proggen
from cmod import ast as A
from cmod.engine import substitute
from cmod.lexer import tokenize
from cmod.parser import _Parser, parse_source
from cmod.printer import format_declaration, format_expression, format_statement, pretty_print


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
    assert parser._peek()[0] == "eof"
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
        reparsed = A.drive(parser.parse_statement())
        assert parser._peek()[0] == "eof"
        assert reparsed == stmt


# -- property: rendering in an environment is rendering the substituted tree

# Each construct where substitution stops or turns a value into text: a
# quantifier and an allocation handle of a bound name, formals shown as
# values, macro scope definitions, a string with escapes, a handle.
ENV_CASES = """
(forall j forall k p(j, k) = print(j + k) and forall k q(k, j) = (k = j) => p(j, k))
(j = new int[j] => (j[k] = j; print(j[k])); print(j))
(macro /m = { forall k r(k) = print(k + s) and t(s) = (s = new int[k] => print(s)) } in (/m => r(j)))
switch (k) { case tom: print("a\\"b\\n"); break; default: s[j] = -k; break; }
"""


def _nodes(node, found):
    """Collect node and every statement and declaration below it."""
    if type(node) in A.Statement + A.Declaration:
        found.append(node)
    return A.drive(A.mapped(node, lambda child: _nodes(child, found)))


def _names_in(node, found):
    """Collect every variable, quantifier and handle name in node."""
    found.update(getattr(node, attr) for attr in ("name", "var", "handle") if type(getattr(node, attr, None)) is str)
    return A.drive(A.mapped(node, lambda child: _names_in(child, found)))


def test_rendering_in_an_environment_renders_the_substituted_tree():
    rng = random.Random(3)
    values = [None, A.Int(-4), A.Int(12), A.Bool(False), A.Atom("tom"), A.Str('a"\\\n\tb'), A.Handle(2)]
    nodes = []
    for line in ENV_CASES.strip().splitlines():
        _nodes(parse_source(line).main, nodes)
    for _, seeds, main in proggen.family_programs(15):
        for root in [main, *(macro.body for macro in seeds)]:
            _nodes(root, nodes)
    for node in nodes:
        names = set()
        _names_in(node, names)
        for _ in range(3):
            env = {name: rng.choice(values) for name in names if rng.random() < 0.7}
            closed = node
            for var, value in env.items():
                if value is not None:
                    closed = substitute(closed, var, value)
            render = format_statement if type(node) in A.Statement else format_declaration
            for compact in (True, False):
                assert render(node, compact=compact, env=env) == render(closed, compact=compact), (node, env)
