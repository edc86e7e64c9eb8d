import re

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cmod import ast as A
from cmod.engine import CallSite, Success, TraceEvent, execute
from cmod.machine import Machine
from cmod.macros import MacroEnv
from cmod.parser import SourceProgram, parse_source


def emp_switch():
    return A.Switch(
        A.Var("emp"),
        (
            (A.Atom("tom"), A.Assign("age", A.Int(31))),
            (A.Atom("kim"), A.Assign("age", A.Int(40))),
        ),
        A.Assign("age", A.Int(0)),
    )


def test_desugar_switch_to_if_chain():
    result = A.desugar(emp_switch())
    assert result == A.If(
        A.BinOp("==", A.Var("emp"), A.Atom("tom")),
        A.Assign("age", A.Int(31)),
        A.If(
            A.BinOp("==", A.Var("emp"), A.Atom("kim")),
            A.Assign("age", A.Int(40)),
            A.Assign("age", A.Int(0)),
        ),
    )


def test_desugar_keeps_if_nodes():
    stmt = A.If(A.Var("c"), A.Assign("x", A.Int(1)), A.Assign("x", A.Int(2)))
    assert A.desugar(stmt) == stmt


def test_desugar_recurses_through_seq():
    stmt = A.Seq(emp_switch(), A.Print(A.Var("age")))
    result = A.desugar(stmt)
    assert isinstance(result.first, A.If)
    assert result.second == A.Print(A.Var("age"))


def test_desugar_recurses_into_declarations():
    program = parse_source(
        "module M.\nAge(e) = switch (e) { case tom: x = 1; break; }\nend\n(M => Age(tom))"
    )
    _, decl = program.module_defs[0]
    sugared = A.desugar(decl)
    assert isinstance(sugared.decl.body, A.If)


def test_desugar_idempotent_on_corpus(corpus_files):
    for path in corpus_files:
        program = parse_source(path.read_text(encoding="utf-8"))
        once = A.desugar(program.main)
        assert A.desugar(once) == once
        for _, decl in program.module_defs:
            declared = A.desugar(decl)
            assert A.desugar(declared) == declared


NODE_TYPES = A.Expression + A.Statement + A.Declaration + (A.MacroDef,)


def test_child_fields_name_exactly_the_fields_that_hold_nodes():
    # a field holds nodes when its annotation mentions a node union or class
    holds_nodes = re.compile(r"\b(Expression|Statement|Declaration|MacroDef)\b")
    for cls in NODE_TYPES:
        annotations = cls.__annotations__.values()  # the annotations as written, strings
        expected = [i for i, annotation in enumerate(annotations) if holds_nodes.search(annotation)]
        assert [i for i, _ in A.CHILD_FIELDS.get(cls, ())] == expected, cls.__name__


# -- the Node base ----------------------------------------------------------

RECORD_TYPES = (CallSite, TraceEvent, SourceProgram, Success)


def test_equal_nodes_have_the_same_class_and_equal_fields():
    # each pair checked with both == and !=, which the base defines apart
    for a, b, equal in [
        (A.Int(1), A.Int(1), True), (A.Int(1), A.Int(2), False), (A.Int(1), A.Bool(True), False),
        (A.Atom("a"), A.Var("a"), False), (A.TrueStmt(), A.TrueStmt(), True),
        (A.TrueStmt(), A.Print(A.Int(1)), False), (A.Handle(1), A.Handle(1), True),
        (A.Handle(1), A.Handle(2), False), (A.Int(1), 1, False), (A.Int(1), (1,), False),
    ]:
        assert (a == b, a != b, b == a, b != a) == (equal, not equal, equal, not equal), (a, b)


def test_equal_nodes_hash_equal():
    pairs = [(A.Int(7), A.Int(7)), (A.TrueStmt(), A.TrueStmt()), (emp_switch(), emp_switch()),
             (TraceEvent("bc", 1, "x", 1), TraceEvent("bc", 1, "x", 1))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert len({A.Int(1), A.Int(1), A.Bool(True), A.Atom("a"), A.Var("a")}) == 4


def test_repr_names_each_field():
    assert repr(A.Int(1)) == "Int(value=1)"
    assert repr(A.TrueStmt()) == "TrueStmt()"
    assert repr(A.Call("p", (A.Var("x"),))) == "Call(name='p', args=(Var(name='x'),))"
    assert repr(TraceEvent("ex", 2, "", 7)) == "TraceEvent(phase='ex', depth=2, subject='', rule_id=7)"


def test_a_wrong_argument_count_is_a_type_error():
    for build in (lambda: A.Int(), lambda: A.Int(1, 2), lambda: A.TrueStmt(1), lambda: A.BinOp("+", A.Int(1))):
        with pytest.raises(TypeError):
            build()


def test_a_new_attribute_is_rejected():
    for node in (A.Int(1), A.TrueStmt(), A.Seq(A.TrueStmt(), A.TrueStmt()), TraceEvent("ex", 1, "", 1)):
        with pytest.raises(AttributeError):
            node.extra = 1


def test_fields_are_the_match_args():
    # the annotated fields, in order, are the match args and the slots
    for cls in NODE_TYPES + RECORD_TYPES:
        fields = tuple(cls.__annotations__)
        assert fields == cls.__match_args__ == cls.__slots__, cls.__name__


def test_node_classes_generate_no_comparison_or_repr_of_their_own():
    # Each such method generated at import would cost start-up time.
    for cls in NODE_TYPES + RECORD_TYPES:
        assert issubclass(cls, A.Node), cls.__name__
        own = {"__eq__", "__ne__", "__hash__", "__repr__", "__setattr__", "__delattr__"} & set(vars(cls))
        assert own == set(), cls.__name__


def test_map_children_shares_a_node_whose_children_are_unchanged():
    tree = A.Seq(A.Call("p", (A.Var("x"),)), emp_switch())
    assert A.map_children(tree, lambda child: child) is tree
    assert A.map_children(emp_switch(), lambda child: child) == emp_switch()
    assert A.map_children(A.Var("x"), lambda child: A.Int(1)) == A.Var("x")


def test_map_children_rebuilds_only_the_changed_path():
    call = A.Call("p", (A.Var("x"), A.Int(2)))
    kept = A.Print(A.Var("y"))
    tree = A.Seq(call, kept)

    def swap(node):
        return A.Int(1) if node == A.Var("x") else A.map_children(node, swap)

    result = A.map_children(tree, swap)
    assert result == A.Seq(A.Call("p", (A.Int(1), A.Int(2))), kept)
    assert result.second is kept and result.first.args[1] is call.args[1]


def test_map_children_maps_switch_case_bodies_not_labels():
    seen = []
    result = A.map_children(emp_switch(), lambda child: seen.append(child) or A.TrueStmt())
    bodies = [A.Assign("age", A.Int(n)) for n in (31, 40, 0)]
    assert seen == [A.Var("emp")] + bodies
    assert result.cases == ((A.Atom("tom"), A.TrueStmt()), (A.Atom("kim"), A.TrueStmt()))


def test_declared_names_direct_heads():
    decl = A.And(
        A.Clause("Age", (A.Var("x"),), A.TrueStmt()),
        A.Clause("Pay", (A.Var("x"),), A.TrueStmt()),
    )
    assert A.free_procedure_names(decl) == {"Age", "Pay"}


def test_declared_names_through_rename():
    decl = A.Rename("Age", "Years", A.Clause("Age", (A.Var("x"),), A.TrueStmt()))
    assert A.free_procedure_names(decl) == {"Years"}


def test_declared_names_through_forall():
    decl = A.Forall("x", A.Clause("Even", (A.Var("x"),), A.TrueStmt()))
    assert A.free_procedure_names(decl) == {"Even"}


def test_macro_ref_contributes_nothing_without_env():
    assert A.free_procedure_names(A.MacroRef("p")) == frozenset()


def _env(*defs):
    """A macro environment binding defs, top-level definitions."""
    env = MacroEnv()
    env.define(defs)
    return env


def test_macro_ref_chains_resolve_with_an_env():
    env = _env(
        A.MacroDef("inner", A.Clause("deep", (), A.TrueStmt())),
        A.MacroDef("outer", A.And(A.Clause("shallow", (), A.TrueStmt()), A.MacroRef("inner"))),
    )
    assert A.free_procedure_names(A.MacroRef("outer"), env) == {"shallow", "deep"}
    assert A.free_procedure_names(A.MacroRef("inner"), env) == {"deep"}
    assert A.free_procedure_names(A.MacroRef("ghost"), env) == frozenset()


def test_macro_ref_cycles_are_cut():
    env = _env(
        A.MacroDef("a", A.And(A.Clause("pa", (), A.TrueStmt()), A.MacroRef("b"))),
        A.MacroDef("b", A.And(A.Clause("pb", (), A.TrueStmt()), A.MacroRef("a"))),
    )
    assert A.free_procedure_names(A.MacroRef("a"), env) == {"pa", "pb"}


# -- clause tables ----------------------------------------------------------


def _clause(name, *params):
    return A.Clause(name, tuple(A.Var(p) if isinstance(p, str) else p for p in params), A.TrueStmt())


def _summary(table):
    """(depth, rule id) per step, and (name, steps before, depth) per entry but "/name" reads."""
    steps, entries = table
    return (
        [(depth, rule_id) for depth, rule_id, *_ in steps],
        [(name, before, depth) for name, items in entries.items() if name[0] != "/" for _, _, before, depth, _ in items],
    )


def test_the_table_lists_steps_in_search_order_at_relative_depths():
    env = _env(A.MacroDef("m", _clause("s")))
    decl = A.Rename("p", "q", A.Forall("x", A.And(A.And(_clause("p", "x"), _clause("r")), A.MacroRef("m"))))
    table = A.clause_table(decl, env)
    steps, entries = table
    assert _summary(table) == (
        [(0, 5), (1, 2), (2, 3), (3, 3), (3, 4), (2, 4), (3, 6)],
        [("q", 4, 4), ("r", 5, 4), ("s", 7, 4)],
    )
    # the nodes below the ren are listed renamed
    renamed = A.And(A.And(_clause("q", "x"), _clause("r")), A.MacroRef("m"))
    assert [node for _, _, node, *_ in steps[2:4]] == [renamed, renamed.left]
    assert entries["q"][0][0] == _clause("q", "x")


def test_the_table_keeps_same_name_clauses_in_search_order():
    decl = A.And(A.And(_clause("p"), _clause("q")), A.And(_clause("p", "x"), _clause("p", "x", "y")))
    _, entries = A.clause_table(decl, None)
    assert [len(clause.params) for clause, *_ in entries["p"]] == [0, 1, 2]
    assert [before for *_, before, _, _ in entries["p"]] == [2, 5, 6]


def test_a_quantifier_shared_by_two_heads_lists_both_positions():
    # forall x (p(0, x) = print(x) and q(x) = print(x)): the call's arity
    # picks the position x takes its value from
    show = A.Print(A.Var("x"))
    decl = A.Forall("x", A.And(A.Clause("p", (A.Int(0), A.Var("x")), show), A.Clause("q", (A.Var("x"),), show)))
    _, entries = A.clause_table(decl, None)
    (_, binders, *_), = entries["q"]
    assert binders == (("x", [1, 0]),) and entries["p"][0][1] is binders
    machine = Machine()
    assert isinstance(execute(machine, A.Implication(decl, parse_source("q(5); p(0, 7)").main)), Success)
    assert machine.output_text() == "5\n7\n"


def test_an_inner_quantifier_hides_an_outer_one_of_its_name():
    decl = A.Forall("x", A.And(_clause("p", "x"), A.Forall("x", _clause("q", "y", "x"))))
    _, entries = A.clause_table(decl, None)
    assert entries["p"][0][1] == (("x", [0]),)
    assert entries["q"][0][1] == (("x", [1]),)


def test_a_macro_reference_starts_a_new_quantifier_scope():
    env = _env(A.MacroDef("m", _clause("q", "x")))
    decl = A.Forall("x", A.And(_clause("p", "x"), A.MacroRef("m")))
    _, entries = A.clause_table(decl, env)
    assert entries["p"][0][1] == (("x", [0]),)
    assert entries["q"][0][1] == ()


def test_a_macro_reference_leaves_the_pushing_activation_behind():
    # the frame's own steps and clauses keep the scope it was pushed from;
    # those of a macro body it refers to have none: they read the store
    env = _env(A.MacroDef("m", A.And(_clause("q"), _clause("s"))))
    scope = {"k": A.Int(1)}
    steps, entries = A.clause_table(A.And(_clause("p"), A.MacroRef("m")), env, scope)
    assert entries["p"][0][4] is scope and entries["q"][0][4] is None and entries["s"][0][4] is None
    assert [(rule_id, at) for _, rule_id, _, _, at in steps] == [(3, scope), (4, scope), (6, scope), (3, None), (4, None)]


def test_cyclic_and_undefined_references_add_nothing():
    env = _env(A.MacroDef("a", A.And(_clause("pa"), A.MacroRef("a"))))
    table = A.clause_table(A.And(A.MacroRef("ghost"), A.MacroRef("a")), env)
    assert _summary(table) == ([(0, 3), (0, 4), (1, 6), (2, 3), (2, 4)], [("pa", 4, 3)])
    assert A.clause_table(A.MacroRef("a"), None) == ([], {})


# -- properties -----------------------------------------------------------

_decl = st.recursive(
    st.builds(
        A.Clause,
        st.sampled_from(["p", "q", "r", "s"]),
        st.just(()),
        st.just(A.TrueStmt()),
    ),
    lambda inner: st.one_of(
        st.builds(A.And, inner, inner),
        st.builds(A.Forall, st.sampled_from(["x", "y"]), inner),
        st.builds(A.Rename, st.sampled_from(["p", "q"]), st.sampled_from(["q", "r"]), inner),
    ),
    max_leaves=12,
)


@given(_decl, st.sampled_from(["x", "y", "z"]))
def test_names_invariant_under_forall(decl, var):
    assert A.free_procedure_names(A.Forall(var, decl)) == A.free_procedure_names(decl)


@given(_decl, _decl)
def test_names_distribute_over_and(left, right):
    assert A.free_procedure_names(A.And(left, right)) == (
        A.free_procedure_names(left) | A.free_procedure_names(right)
    )
