import random

import pytest

import proggen
from cmod import ast as A
from cmod.engine import (
    CallSite,
    Failure,
    Success,
    backchain,
    eval_expr,
    execute,
    resolve_call,
    run_source,
    substitute,
)
from cmod.errors import (
    DEPTH_EXCEEDED,
    DIVISION_BY_ZERO,
    NO_MATCHING_CLAUSE,
    TYPE_MISMATCH,
    UNBOUND_VARIABLE,
    EngineFailure,
)
from cmod.machine import Machine
from cmod.parser import parse_source


def run(source, **kwargs):
    return run_source(source, **kwargs)


def main_of(source):
    return A.desugar(parse_source(source).main)


# -- execution ------------------------------------------------------------


def test_true_is_always_a_success():
    machine = Machine.initial()
    machine.store.assign("x", A.Int(1))
    outcome = execute(machine, A.TrueStmt())
    assert isinstance(outcome, Success)
    assert outcome.machine is machine
    assert machine.store == {"x": A.Int(1)}


def test_assignment_replaces_the_binding():
    machine = Machine.initial()
    machine.store.assign("x", A.Int(1))
    execute(machine, A.Assign("x", A.IntLit(2)))
    assert machine.store == {"x": A.Int(2)}


def test_emp_implication_golden():
    source = """
    module Emp.
    Age(emp) =
      switch (emp) {
        case tom: age = 31; break;
        case kim: age = 40; break;
        case sue: age = 22; break;
        default: age = 0; break;
      }
    end
    (Emp => (Age(tom); print(age)))
    """
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert machine.output_text() == "31\n"
    assert machine.module_stack == []


def test_module_stack_restored_after_implication():
    machine = Machine.initial()
    before = list(machine.module_stack)
    outcome = execute(machine, main_of("(p() = true => true)"))
    assert isinstance(outcome, Success)
    assert machine.module_stack == before
    assert len(machine.macro_env) == 0


def test_store_effects_survive_the_pop():
    outcome, machine = run("(p() = (x = 1) => p())")
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(1)
    assert machine.module_stack == []


def test_store_visibility_for_a_direct_body_write():
    # (D => x = 1); x is still bound after the frame is discarded
    outcome, machine = run("(unused() = true => x = 1); y = x + 1")
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(1)
    assert machine.store["y"] == A.Int(2)


def test_sequencing_is_ordered():
    outcome, machine = run("x = 1; x = 2")
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(2)


def test_most_recent_declaration_wins():
    source = "((p() = (x = 1)) => ((p() = (x = 2)) => p()))"
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(2)


def test_unbound_module_name_fails():
    outcome, _ = run("/Nope => true")
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE


def test_if_condition_must_be_boolean():
    outcome, _ = run("if (1) true else true")
    assert isinstance(outcome, Failure) and outcome.reason == TYPE_MISMATCH


def test_switch_executes_like_its_desugaring():
    source = """
    x = 2;
    switch (x) {
      case 1: r = 10; break;
      case 2: r = 20; break;
      default: r = 0; break;
    }
    """
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert machine.store["r"] == A.Int(20)


def test_execute_accepts_an_undesugared_switch():
    machine = Machine.initial()
    machine.store.assign("x", A.Atom("kim"))
    raw = parse_source("switch (x) { case kim: r = 1; break; }").main
    assert isinstance(raw, A.Switch)
    outcome = execute(machine, raw)
    assert isinstance(outcome, Success)
    assert machine.store["r"] == A.Int(1)


# -- call resolution --------------------------------------------------------


def test_resolve_call_picks_the_top_declaring_frame():
    machine = Machine.initial()
    machine.module_stack.append(A.Clause("p", (), A.Assign("x", A.IntLit(1))))
    machine.module_stack.append(A.Clause("p", (), A.Assign("x", A.IntLit(2))))
    outcome = resolve_call(machine, CallSite("p", ()))
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(2)


def test_resolve_call_empty_stack():
    outcome = resolve_call(Machine.initial(), CallSite("p", ()))
    assert isinstance(outcome, Failure)
    assert outcome.reason == NO_MATCHING_CLAUSE and outcome.detail == "p/0"


def test_resolve_call_name_absent():
    machine = Machine.initial()
    machine.module_stack.append(A.Clause("q", (), A.TrueStmt()))
    outcome = resolve_call(machine, CallSite("p", ()))
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE


def test_selection_is_by_name_only_no_fall_through():
    # the top frame declares p/1; a deeper frame declares p/0; calling p()
    # selects the top frame by name and then fails on arity
    machine = Machine.initial()
    machine.module_stack.append(A.Clause("p", (), A.Assign("x", A.IntLit(1))))
    machine.module_stack.append(proggen.closed_clause("p", ("a",), A.TrueStmt()))
    outcome = resolve_call(machine, CallSite("p", ()))
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE
    assert "x" not in machine.store


def test_depth_limit_is_enforced():
    source = "(loop() = loop() => loop())"
    outcome, machine = run(source, max_depth=64)
    assert isinstance(outcome, Failure) and outcome.reason == DEPTH_EXCEEDED
    assert machine.depth == 0  # unwound


def test_failure_carries_the_call_chain():
    outcome, _ = run("(outer() = inner(1) => outer())")
    assert isinstance(outcome, Failure)
    assert [site.name for site in outcome.call_chain] == ["outer", "inner"]


# -- backchaining -----------------------------------------------------------


def test_backchain_instantiates_from_the_call():
    source = """
    module Emp.
    Age(emp) =
      switch (emp) {
        case tom: age = 31; break;
        case kim: age = 40; break;
        default: age = 0; break;
      }
    end
    (Emp => Age(kim))
    """
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert machine.store["age"] == A.Int(40)


def test_backchain_falls_through_to_the_right_branch():
    machine = Machine.initial()
    decl = A.And(A.Clause("p", (), A.TrueStmt()), A.Clause("q", (), A.Assign("x", A.IntLit(1))))
    outcome = backchain(decl, machine, CallSite("q", ()))
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(1)


def test_backchain_head_mismatch_is_no_matching_clause():
    machine = Machine.initial()
    outcome = backchain(A.Clause("p", (), A.TrueStmt()), machine, CallSite("q", ()))
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE


def test_mismatch_detail_is_the_call_signature_past_an_undefined_macro():
    # the frame declares pa, so it decides the call; the undefined /nope
    # searched last contributes no clause and does not become the detail
    decl = A.And(A.Clause("pa", (), A.TrueStmt()), A.MacroRef("nope"))
    outcome = backchain(decl, Machine.initial(), CallSite("pa", (A.Int(1),)))
    assert isinstance(outcome, Failure)
    assert (outcome.reason, outcome.detail) == (NO_MATCHING_CLAUSE, "pa/1")


def test_no_fallback_after_a_head_matches():
    # both clauses are named p; the first head matches and its body fails,
    # so the second clause must not run
    machine = Machine.initial()
    decl = A.And(
        A.Clause("p", (), A.Call("missing", ())),
        A.Clause("p", (), A.Assign("x", A.IntLit(1))),
    )
    machine.module_stack.append(decl)
    outcome = resolve_call(machine, CallSite("p", ()))
    assert isinstance(outcome, Failure)
    assert "x" not in machine.store


FALL_THROUGH_REPRO = "((p() = (x = 1; q()) and p() = (y = 2)) and q(a) = true) => p()"


def test_body_mismatch_does_not_fall_through_to_the_next_clause():
    # q() reaches a frame declaring only q/1; that failure happens inside
    # the body of p's first clause, so p() fails rather than trying the
    # second clause
    outcome, machine = run(FALL_THROUGH_REPRO)
    assert isinstance(outcome, Failure)
    assert (outcome.reason, outcome.detail) == (NO_MATCHING_CLAUSE, "q/0")
    assert [site.name for site in outcome.call_chain] == ["p", "q"]
    assert machine.store["x"] == A.Int(1)
    assert "y" not in machine.store


def test_body_mismatch_from_a_module_frame_does_not_fall_through():
    source = (
        "module M.\nq(a) = true\nend\n"
        "(/M => ((p() = (x = 1; q()) and p() = (y = 2)) => p()))"
    )
    outcome, machine = run(source)
    assert isinstance(outcome, Failure)
    assert (outcome.reason, outcome.detail) == (NO_MATCHING_CLAUSE, "q/0")
    assert machine.store["x"] == A.Int(1)
    assert "y" not in machine.store


def test_backchain_rename_directly():
    renamed = A.Rename("f", "g", A.Forall("x", A.Clause("f", (A.Var("x"),), A.TrueStmt())))
    ok = backchain(renamed, Machine.initial(), CallSite("g", (A.Int(1),)))
    assert isinstance(ok, Success)
    bad = backchain(renamed, Machine.initial(), CallSite("f", (A.Int(1),)))
    assert isinstance(bad, Failure) and bad.reason == NO_MATCHING_CLAUSE


def test_rename_backchain_semantics():
    ok, machine = run("(ren(f, g) (f(x) = (hit = x)) => g(5))")
    assert isinstance(ok, Success) and machine.store["hit"] == A.Int(5)
    bad, _ = run("(ren(f, g) (f(x) = (hit = x)) => f(5))")
    assert isinstance(bad, Failure) and bad.reason == NO_MATCHING_CLAUSE


def test_rename_applies_to_recursive_self_calls():
    outcome, machine = run(
        "(ren(count, launch) (count(n) = if (n == 0) (done = 1) else count(n - 1)) => launch(3))"
    )
    assert isinstance(outcome, Success)
    assert machine.store["done"] == A.Int(1)


def test_rename_reaches_through_macro_references():
    # renaming a module made of references renames the referenced bodies
    source = (
        "macro /m = { f(x) = (hit = x) }\n"
        "(ren(f, g) /m => g(6))"
    )
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert machine.store["hit"] == A.Int(6)

    outcome, _ = run("macro /m = { f(x) = (hit = x) }\n(ren(f, g) /m => f(6))")
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE


def test_rename_over_a_reference_conjunction():
    source = (
        "macro /m = { f() = (a = 1) }\n"
        "(ren(f, g) (/m and h() = f()) => (g(); h()))"
    )
    # the inline clause's call site is renamed textually and the
    # reference's body is renamed on resolution, so h() calls g()
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert machine.store["a"] == A.Int(1)


def test_stacked_renames_through_a_reference():
    # independent renames: p -> pp and q -> qq, both through /m
    source = (
        "macro /m = { p() = (x = 1) and q() = (y = 2) }\n"
        "(ren(p, pp) ren(q, qq) /m => (pp(); qq()))"
    )
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(1) and machine.store["y"] == A.Int(2)


def test_colliding_renames_merge_names_textually():
    # ren(p, q) over ren(q, r): the outer pass turns p into q, colliding
    # with the original q, and the inner pass sends every q to r; both
    # clauses end up named r and left-first search wins (no hygiene)
    machine = Machine.initial(
        seeds=[
            A.MacroDef(
                "m",
                A.And(
                    A.Clause("p", (), A.Assign("x", A.IntLit(1))),
                    A.Clause("q", (), A.Assign("y", A.IntLit(2))),
                ),
            )
        ]
    )
    frame = A.Rename("p", "q", A.Rename("q", "r", A.MacroRef("m")))
    assert A.free_procedure_names(frame, machine.macro_env) == {"r"}
    machine.module_stack.append(frame)
    assert isinstance(resolve_call(machine, CallSite("r", ())), Success)
    assert machine.store["x"] == A.Int(1)
    assert "y" not in machine.store
    assert isinstance(resolve_call(machine, CallSite("q", ())), Failure)
    assert isinstance(resolve_call(machine, CallSite("p", ())), Failure)


def test_macro_ref_resolves_most_recent_at_call_time():
    source = (
        "macro /m = { f() = (x = 1) }\n"
        "(macro /m = { f() = (x = 2) } in f());\n"
        "(/m => f())"
    )
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert machine.output_text() == ""
    assert machine.store["x"] == A.Int(1)  # last call saw the outer macro


def test_cyclic_macro_reference_terminates():
    # /loop includes itself; calling with the wrong arity must fail
    # finitely instead of re-expanding forever
    source = "macro /loop = { p(a) = true and /loop }\n(/loop => p())"
    outcome, _ = run(source)
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE


def test_forall_with_unused_binder_still_matches():
    outcome, machine = run("(forall z p(x) = (hit = x) => p(9))")
    assert isinstance(outcome, Success)
    assert machine.store["hit"] == A.Int(9)


# -- eval --------------------------------------------------------------------


def eval_in(store, expr):
    machine = Machine.initial()
    for key, value in store.items():
        machine.store.assign(key, value)
    return eval_expr(machine, expr)


def test_eval_arithmetic():
    assert eval_in({}, A.BinOp("+", A.IntLit(2), A.IntLit(3))) == A.Int(5)
    assert eval_in({}, A.BinOp("*", A.IntLit(4), A.IntLit(5))) == A.Int(20)


def test_eval_variable():
    assert eval_in({"x": A.Int(7)}, A.Var("x")) == A.Int(7)


def test_eval_atom_equality():
    assert eval_in({"emp": A.Atom("tom")}, A.BinOp("==", A.Var("emp"), A.Var("tom"))) == A.Bool(True)
    assert eval_in({"emp": A.Atom("kim")}, A.BinOp("==", A.Var("emp"), A.Var("tom"))) == A.Bool(False)


def test_eval_equality_across_types_is_false():
    assert eval_in({}, A.BinOp("==", A.IntLit(1), A.BoolLit(True))) == A.Bool(False)
    assert eval_in({}, A.BinOp("!=", A.IntLit(1), A.StrLit("1"))) == A.Bool(True)


def test_eval_division_truncates_toward_zero():
    assert eval_in({}, A.BinOp("/", A.IntLit(7), A.IntLit(2))) == A.Int(3)
    assert eval_in({}, A.BinOp("/", A.IntLit(-7), A.IntLit(2))) == A.Int(-3)
    assert eval_in({}, A.BinOp("/", A.IntLit(7), A.IntLit(-2))) == A.Int(-3)


def test_eval_division_by_zero():
    with pytest.raises(EngineFailure) as info:
        eval_in({}, A.BinOp("/", A.IntLit(1), A.IntLit(0)))
    assert info.value.reason == DIVISION_BY_ZERO


def test_eval_short_circuit_skips_the_right_operand():
    guarded = A.BinOp("&&", A.BoolLit(False), A.BinOp("/", A.IntLit(1), A.IntLit(0)))
    assert eval_in({}, guarded) == A.Bool(False)
    guarded = A.BinOp("||", A.BoolLit(True), A.BinOp("/", A.IntLit(1), A.IntLit(0)))
    assert eval_in({}, guarded) == A.Bool(True)


def test_eval_type_mismatch():
    with pytest.raises(EngineFailure) as info:
        eval_in({}, A.BinOp("+", A.IntLit(1), A.BoolLit(True)))
    assert info.value.reason == TYPE_MISMATCH


def test_unbound_lowercase_identifier_is_an_atom():
    assert eval_in({}, A.Var("tom")) == A.Atom("tom")


def test_unbound_capitalized_identifier_is_an_error():
    with pytest.raises(EngineFailure) as info:
        eval_in({}, A.Var("Tom"))
    assert info.value.reason == UNBOUND_VARIABLE


def test_bound_identifier_beats_the_atom_reading():
    assert eval_in({"tom": A.Int(3)}, A.Var("tom")) == A.Int(3)


# -- substitution -------------------------------------------------------------


def test_substitute_head_and_body():
    decl = A.Clause(
        "Age",
        (A.Var("emp"),),
        A.If(A.BinOp("==", A.Var("emp"), A.AtomLit("tom")), A.TrueStmt(), A.TrueStmt()),
    )
    result = substitute(decl, "emp", A.Atom("tom"))
    assert result.params == (A.AtomLit("tom"),)
    assert result.body.cond == A.BinOp("==", A.AtomLit("tom"), A.AtomLit("tom"))


def test_substitute_absent_variable_is_identity():
    decl = A.Clause("p", (A.Var("y"),), A.TrueStmt())
    assert substitute(decl, "x", A.Int(5)) == decl


def test_substitute_respects_shadowing():
    inner = A.Forall("x", A.Clause("p", (A.Var("x"),), A.TrueStmt()))
    assert substitute(inner, "x", A.Int(1)) == inner
    nested = A.Forall("y", inner)
    assert substitute(nested, "x", A.Int(1)) == nested


def test_substitute_skips_alloc_body_when_handle_shadows():
    body = A.Assign("r", A.Index(A.Var("p"), A.IntLit(0)))
    stmt = A.AllocScope("p", "int", A.Var("p"), body)
    decl = A.Clause("f", (A.Var("p"),), stmt)
    result = substitute(decl, "p", A.Int(2))
    assert result.body.length == A.IntLit(2)  # the length sees the formal
    assert result.body.body == body  # the body sees the handle


# -- mutual recursion ---------------------------------------------------------

EV_OD = """
module Ev.
Even(x) = if (x == 0) true else (Od => Odd(x - 1))
end
module Od.
Odd(x) = if (x == 1) true else (Ev => Even(x - 1))
end
"""


def test_even_four_activates_the_full_descending_chain():
    # Even(4) -> Odd(3) -> Even(2) -> Odd(1): four clause firings
    events = []
    outcome, _ = run(EV_OD + "(/Ev => Even(4))", trace=events.append)
    assert isinstance(outcome, Success)
    clause_events = [e for e in events if e.phase == "bc" and e.rule_id == 1]
    assert len(clause_events) == 4


def test_even_rejects_odd_argument_by_diverging_into_the_limit():
    outcome, _ = run(EV_OD + "(/Ev => Even(3))", max_depth=64)
    assert isinstance(outcome, Failure) and outcome.reason == DEPTH_EXCEEDED


# -- deterministic search vs branch-order oracle ------------------------------


def test_left_first_search_matches_the_branch_order_oracle_quick():
    rng = random.Random(11)
    for _ in range(120):
        frame, _, target = proggen.conj_frame(rng)
        machine = Machine.initial(max_depth=32)
        outcome = execute(machine, A.Implication(frame, A.Call(target, ())))
        assert isinstance(outcome, Success) == proggen.branch_order_success(frame, target)
