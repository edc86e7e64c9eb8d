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
    env = MacroEnv().define([macro("p", clause("f"))])
    assert lookup(env, "p") == clause("f")


def test_most_recent_definition_wins():
    env = MacroEnv().define([macro("p", clause("old"))]).define([macro("p", clause("new"))])
    assert lookup(env, "p") == clause("new")


def test_shadow_then_pop_restores():
    # defining returns a new environment; restoring is keeping the old one
    base = MacroEnv().define([macro("p", clause("old"))])
    shadowed = base.define([macro("p", clause("new"))])
    assert lookup(shadowed, "p") == clause("new")
    assert lookup(base, "p") == clause("old")
    assert shadowed.parent is base


def test_empty_frame_define_keeps_defs():
    env = MacroEnv().define([macro("p", clause("f"))])
    framed = env.define([])
    assert framed.find("p") == env.find("p") and framed.names() == env.names() == ["p"]


def test_lookup_missing_raises():
    with pytest.raises(MacroNotDefined):
        lookup(MacroEnv(), "p")
    assert MacroEnv().find("p") is None


def test_within_one_group_later_definitions_shadow():
    env = MacroEnv().define([macro("p", clause("a")), macro("p", clause("b"))])
    assert lookup(env, "p") == clause("b")


def test_seeded_environment_has_no_frames():
    seeds = [macro("p", clause("a")), macro("p", clause("b"))]
    env = MacroEnv().define(seeds)
    assert lookup(env, "p") == clause("b")
    other = MacroEnv().define(seeds)
    assert env.find("p") == other.find("p") and env.names() == other.names() == ["p", "p"]


def test_pop_restores_across_multiple_frames():
    env0 = MacroEnv().define([macro("base", clause("f"))])
    env1 = env0.define([macro("p", clause("x"))])
    env2 = env1.define([macro("q", clause("y")), macro("p", clause("z"))])
    assert lookup(env2, "p") == clause("z")
    assert env2.parent is env1 and lookup(env1, "p") == clause("x")
    assert env1.parent is env0 and env0.find("p") is None
    assert lookup(env0, "base") == clause("f")


def test_a_deep_chain_compares_hashes_and_prints():
    # environments compare by identity, so nothing walks the chain; each link holds a scope
    env = MacroEnv()
    for i in range(3000):
        env = env.define([macro(f"m{i}", clause("f"))], {"x": A.Int(i)})
    assert env == env and env != env.parent and hash(env) == hash(env)
    assert repr(env).startswith("<cmod.macros.MacroEnv")
    assert env.find("m0") == (clause("f"), {"x": A.Int(0)}) and len(env.names()) == 3000


def test_conj_expand_pair():
    # /p and /q expand to the conjunction of their bodies
    f = A.Forall("x", A.Clause("f", (A.Var("x"),), A.Assign("y", A.Var("x"))))
    g = A.Forall("x", A.Clause("g", (A.Var("x"),), A.Assign("y", A.Int(0))))
    env = MacroEnv().define([macro("p", f), macro("q", g)])
    assert conj_expand(env, A.And(A.MacroRef("p"), A.MacroRef("q"))) == A.And(f, g)


def test_conj_expand_identity_without_refs():
    decl = A.And(clause("f"), A.Forall("x", clause("g")))
    assert conj_expand(MacroEnv(), decl) is decl or conj_expand(MacroEnv(), decl) == decl


def test_conj_expand_missing_raises():
    with pytest.raises(MacroNotDefined):
        conj_expand(MacroEnv(), A.MacroRef("nope"))


def test_conj_expand_cuts_cycles():
    env = MacroEnv().define(
        [
            macro("a", A.And(clause("pa"), A.MacroRef("b"))),
            macro("b", A.And(clause("pb"), A.MacroRef("a"))),
        ]
    )
    expanded = conj_expand(env, A.MacroRef("a"))
    # /a's body with /b inlined, and the back-reference left residual
    assert expanded == A.And(clause("pa"), A.And(clause("pb"), A.MacroRef("a")))


def test_conj_expand_leaves_statement_bodies_alone():
    ev_body = A.Forall(
        "x",
        A.Clause("Even", (A.Var("x"),), A.Implication(A.MacroRef("Od"), A.Call("Odd", (A.Var("x"),)))),
    )
    env = MacroEnv().define([macro("Ev", ev_body)])
    assert conj_expand(env, A.MacroRef("Ev")) == ev_body


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
