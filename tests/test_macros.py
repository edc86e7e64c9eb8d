import hypothesis.strategies as st
import pytest
from hypothesis import given

from cmod import ast as A
from cmod.ast import rename
from cmod.macros import MacroEnv
from proggen import MacroNotDefined, conj_expand, lookup


def clause(name, body=None):
    return A.Clause(name, (), body or A.TrueStmt())


def macro(name, body):
    return A.MacroDef(name, body)


def test_define_and_lookup():
    env = MacroEnv()
    assert env.define([macro("p", clause("f"))], {"x": A.Int(0)}) == [("p", None)]
    assert env.find("p") == (clause("f"), {"x": A.Int(0)}) and env.find("q") is None


def test_most_recent_definition_wins():
    env = MacroEnv()
    env.define([macro("p", clause("old"))])
    env.define([macro("p", clause("new"))])
    assert env.find("p")[0] == clause("new") and list(env) == ["p"]


def test_shadow_then_pop_restores():
    # define returns what it displaced; undefine puts back the very same binding
    env = MacroEnv()
    env.define([macro("p", clause("old"))])
    old = env.find("p")
    displaced = env.define([macro("p", clause("new"))])
    assert displaced == [("p", old)] and env.find("p")[0] == clause("new")
    env.undefine(displaced)
    assert env.find("p") is old


def test_empty_frame_define_keeps_defs():
    env = MacroEnv()
    env.define([macro("p", clause("f"))])
    before = dict(env)
    displaced = env.define([])
    assert displaced == [] and env == before and env["p"] is before["p"]
    env.undefine(displaced)
    assert env == before and env["p"] is before["p"]


def test_lookup_missing_raises():
    with pytest.raises(MacroNotDefined):
        lookup({}, "p")
    assert lookup({"p": clause("f")}, "p") == clause("f") and MacroEnv().find("p") is None


def test_within_one_group_later_definitions_shadow():
    env = MacroEnv()
    env.define([macro("p", clause("a")), macro("p", clause("b"))])
    assert env.find("p")[0] == clause("b")


def test_seeded_environment_has_no_frames():
    # one binding per name, whatever the seeds repeat; two environments seeded alike agree
    seeds = [macro("p", clause("a")), macro("p", clause("b"))]
    env, other = MacroEnv(), MacroEnv()
    env.define(seeds)
    other.define(seeds)
    assert env.find("p") == other.find("p") == (clause("b"), None) and list(env) == list(other) == ["p"]


def test_undefine_restores_a_duplicate_name_and_a_name_that_was_unbound():
    env = MacroEnv()
    env.define([macro("p", clause("base"))])
    base = env.find("p")
    displaced = env.define([macro("p", clause("a")), macro("q", clause("x")), macro("p", clause("b"))])
    assert env.find("p")[0] == clause("b") and env.find("q")[0] == clause("x")
    env.undefine(displaced)
    assert env.find("p") is base and env.find("q") is None and list(env) == ["p"]


def test_pop_restores_across_multiple_frames():
    env = MacroEnv()
    env.define([macro("base", clause("f"))])
    outer = env.define([macro("p", clause("x"))])
    inner = env.define([macro("q", clause("y")), macro("p", clause("z"))])
    assert env.find("p")[0] == clause("z")
    env.undefine(inner)
    assert env.find("p")[0] == clause("x") and env.find("q") is None
    env.undefine(outer)
    assert env.find("p") is None and env.find("base")[0] == clause("f")


def test_conj_expand_pair():
    # /p and /q expand to the conjunction of their bodies
    f = A.Forall("x", A.Clause("f", (A.Var("x"),), A.Assign("y", A.Var("x"))))
    g = A.Forall("x", A.Clause("g", (A.Var("x"),), A.Assign("y", A.Int(0))))
    env = {"p": f, "q": g}
    assert conj_expand(env, A.And(A.MacroRef("p"), A.MacroRef("q"))) == A.And(f, g)


def test_conj_expand_identity_without_refs():
    decl = A.And(clause("f"), A.Forall("x", clause("g")))
    assert conj_expand({}, decl) is decl or conj_expand({}, decl) == decl


def test_conj_expand_missing_raises():
    with pytest.raises(MacroNotDefined):
        conj_expand({}, A.MacroRef("nope"))


def test_conj_expand_cuts_cycles():
    env = {"a": A.And(clause("pa"), A.MacroRef("b")), "b": A.And(clause("pb"), A.MacroRef("a"))}
    expanded = conj_expand(env, A.MacroRef("a"))
    # /a's body with /b inlined, and the back-reference left residual
    assert expanded == A.And(clause("pa"), A.And(clause("pb"), A.MacroRef("a")))


def test_conj_expand_leaves_statement_bodies_alone():
    ev_body = A.Forall(
        "x",
        A.Clause("Even", (A.Var("x"),), A.Implication(A.MacroRef("Od"), A.Call("Odd", (A.Var("x"),)))),
    )
    assert conj_expand({"Ev": ev_body}, A.MacroRef("Ev")) == ev_body


def test_rename_recursive_call():
    decl = A.Clause("f", (A.Var("x"),), A.Call("f", (A.BinOp("-", A.Var("x"), A.Int(1)),)))
    renamed = rename(decl, "f", "g")
    assert renamed == A.Clause("g", (A.Var("x"),), A.Call("g", (A.BinOp("-", A.Var("x"), A.Int(1)),)))


def test_rename_identity():
    decl = clause("f")
    assert rename(decl, "f", "f") is decl


def test_rename_absent_name():
    decl = A.Clause("g", (A.Var("x"),), A.TrueStmt())
    assert rename(decl, "f", "h") == decl


def test_rename_does_not_touch_variables_or_macros():
    decl = A.And(
        A.Clause("f", (A.Var("f"),), A.Print(A.Var("f"))),
        A.MacroRef("f"),
    )
    renamed = rename(decl, "f", "g")
    assert renamed == A.And(
        A.Clause("g", (A.Var("f"),), A.Print(A.Var("f"))),
        A.MacroRef("f"),
    )


def test_rename_reaches_nested_declarations():
    inner = A.Implication(clause("f", A.TrueStmt()), A.Call("f", ()))
    decl = A.Clause("top", (), inner)
    renamed = rename(decl, "f", "g")
    assert renamed.body.decl == clause("g", A.TrueStmt())
    assert renamed.body.body == A.Call("g", ())


def test_lazy_resolution_agrees_with_eager_inlining_on_random_programs():
    # Behavioral equivalence: random programs whose macro names are never
    # rebound around a live reference frame execute identically whether
    # references resolve at backchain time or are expanded up front.
    import random

    import proggen
    from cmod.engine import Failure, Success, execute
    from cmod.machine import Machine

    rng = random.Random(424242)
    for _ in range(250):
        program = proggen.macro_equivalence_case(rng)
        seeds = [A.MacroDef(d.name, A.desugar(d.body)) for d in program.seeds()]
        direct = Machine(seeds=seeds, max_depth=48)
        direct_out = execute(direct, A.desugar(program.main))

        flat = Machine(max_depth=48)
        flat_out = execute(flat, A.desugar(proggen.inline_macros(program)))

        assert isinstance(direct_out, Success) == isinstance(flat_out, Success)
        if isinstance(direct_out, Failure) and isinstance(flat_out, Failure):
            assert direct_out.reason == flat_out.reason
        assert direct.store == flat.store
        assert direct.output_text() == flat.output_text()


_bodies = st.sampled_from(
    [A.TrueStmt(), A.Call("f", ()), A.Call("helper", ()), A.Seq(A.Call("f", ()), A.TrueStmt())]
)
_decl = st.recursive(
    st.builds(A.Clause, st.sampled_from(["f", "helper", "main"]), st.just(()), _bodies),
    lambda inner: st.one_of(
        st.builds(A.And, inner, inner),
        st.builds(A.Forall, st.just("x"), inner),
    ),
    max_leaves=10,
)


@given(_decl)
def test_rename_round_trip_when_target_absent(decl):
    # "fresh" never occurs, so renaming there and back is the identity
    assert rename(rename(decl, "f", "fresh"), "fresh", "f") == decl
