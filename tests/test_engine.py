import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

import proggen
import test_golden
from cmod import ast as A
from cmod.engine import (
    Failure,
    Success,
    _push,
    eval_expr,
    execute,
    machine_for,
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
from cmod.parser import PRECEDENCE, parse_source


def run(source, **kwargs):
    return run_source(source, **kwargs)


def main_of(source):
    return A.desugar(parse_source(source).main)


def push(machine, *decls):
    """Push each declaration as a frame with no scope, oldest first."""
    _push(machine, [(decl, None) for decl in decls])


# -- execution ------------------------------------------------------------


def test_true_is_always_a_success():
    machine = Machine()
    machine.store["x"] = A.Int(1)
    outcome = execute(machine, A.TrueStmt())
    assert isinstance(outcome, Success)
    assert outcome.machine is machine
    assert machine.store == {"x": A.Int(1)}


def test_assignment_replaces_the_binding():
    machine = Machine()
    machine.store["x"] = A.Int(1)
    execute(machine, A.Assign("x", A.Int(2)))
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
    machine = Machine()
    before, bindings = list(machine.module_stack), dict(machine.macro_env)
    outcome = execute(machine, main_of("(p() = true => (macro /m = { q() = true } in p()))"))
    assert isinstance(outcome, Success)
    assert machine.module_stack == before
    assert proggen.same_bindings(machine.macro_env, bindings)


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


def test_an_implication_over_an_undefined_macro_fails_up_front():
    # built directly, as a library caller would; the body must not run
    machine = Machine()
    outcome = execute(machine, A.Implication(A.MacroRef("nope"), A.Assign("x", A.Int(1))))
    assert isinstance(outcome, Failure)
    assert (outcome.reason, outcome.detail) == (NO_MATCHING_CLAUSE, "module or macro '/nope' is not defined")
    assert machine.store == {} and machine.module_stack == []


def test_if_condition_must_be_boolean():
    outcome, _ = run("if (1) true else true")
    assert isinstance(outcome, Failure) and outcome.reason == TYPE_MISMATCH
    assert outcome.call_chain == ()  # raised outside every call


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
    machine = Machine()
    machine.store["x"] = A.Atom("kim")
    raw = parse_source("switch (x) { case kim: r = 1; break; }").main
    assert isinstance(raw, A.Switch)
    outcome = execute(machine, raw)
    assert isinstance(outcome, Success)
    assert machine.store["r"] == A.Int(1)


def test_machine_for_seeds_the_switch_the_parser_built():
    program = parse_source("module Emp. Age(e) = switch (e) { case tom: age = 31; break; } end\ntrue")
    machine = machine_for(program)
    body, scope = machine.macro_env.find("Emp")
    assert body is program.module_defs[0][1] and scope is None
    assert isinstance(body.decl.body, A.Switch)


def test_a_switch_with_no_case_never_evaluates_its_scrutinee():
    outcome, machine = run("switch (X) { default: print(3); break; }")
    assert isinstance(outcome, Success)
    assert machine.output_text() == "3\n"


def test_switch_labels_match_by_class():
    outcome, machine = run("x = 1; switch (x) { case one: r = 1; break; default: r = 3; break; }")
    assert isinstance(outcome, Success)
    assert machine.store["r"] == A.Int(3)
    machine = Machine()  # True == 1 in Python, not in cmod
    stmt = A.Switch(A.Int(1), ((A.Bool(True), A.Assign("r", A.Int(1))),), A.Assign("r", A.Int(3)))
    assert isinstance(execute(machine, stmt), Success)
    assert machine.store["r"] == A.Int(3)


def test_a_string_scrutinee_never_takes_the_integer_label_it_renders_as():
    outcome, machine = run('x = "1"; switch (x) { case 1: r = 1; break; default: r = 2; break; }')
    assert isinstance(outcome, Success) and machine.store["r"] == A.Int(2)


def test_a_switch_takes_the_first_equal_label_and_fails_on_an_unbound_scrutinee():
    outcome, machine = run("x = kim; switch (x) { case tom: r = 1; break; case kim: r = 2; break; }")
    assert isinstance(outcome, Success) and machine.store["r"] == A.Int(2)
    outcome, _ = run("switch (X) { case tom: true; break; }")
    assert isinstance(outcome, Failure) and outcome.reason == UNBOUND_VARIABLE


# -- call resolution --------------------------------------------------------


def test_resolve_call_picks_the_top_declaring_frame():
    machine = Machine()
    push(machine, A.Clause("p", (), A.Assign("x", A.Int(1))), A.Clause("p", (), A.Assign("x", A.Int(2))))
    outcome = execute(machine, A.Call("p", ()))
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(2)


def test_resolve_call_empty_stack():
    outcome = execute(Machine(), A.Call("p", ()))
    assert isinstance(outcome, Failure)
    assert outcome.reason == NO_MATCHING_CLAUSE and outcome.detail == "p/0"


def test_resolve_call_name_absent():
    machine = Machine()
    push(machine, A.Clause("q", (), A.TrueStmt()))
    outcome = execute(machine, A.Call("p", ()))
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE


def test_selection_is_by_name_only_no_fall_through():
    # the top frame declares p/1; a deeper frame declares p/0; calling p()
    # selects the top frame by name and then fails on arity
    machine = Machine()
    push(machine, A.Clause("p", (), A.Assign("x", A.Int(1))), proggen.closed_clause("p", ("a",), A.TrueStmt()))
    outcome = execute(machine, A.Call("p", ()))
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE
    assert "x" not in machine.store


def test_depth_limit_is_enforced():
    source = "(loop() = loop() => loop())"
    outcome, machine = run(source, max_depth=64)
    assert isinstance(outcome, Failure) and outcome.reason == DEPTH_EXCEEDED
    assert machine.call_stack == []  # unwound


def test_failure_carries_the_call_chain():
    outcome, _ = run("(outer() = inner(1) => outer())")
    assert isinstance(outcome, Failure)
    assert [site.name for site in outcome.call_chain] == ["outer", "inner"]
    assert outcome.__traceback__ is None  # the outcome holds no frames


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
    machine = Machine()
    decl = A.And(A.Clause("p", (), A.TrueStmt()), A.Clause("q", (), A.Assign("x", A.Int(1))))
    outcome = execute(machine, A.Implication(decl, A.Call("q", ())))
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(1)


def test_backchain_head_mismatch_is_no_matching_clause():
    machine = Machine()
    outcome = execute(machine, A.Implication(A.Clause("p", (), A.TrueStmt()), A.Call("q", ())))
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE


def test_mismatch_detail_is_the_call_signature_past_an_undefined_macro():
    # the frame declares pa, so it decides the call; the undefined /nope
    # searched last contributes no clause and does not become the detail
    decl = A.And(A.Clause("pa", (), A.TrueStmt()), A.MacroRef("nope"))
    outcome = execute(Machine(), A.Implication(decl, A.Call("pa", (A.Int(1),))))
    assert isinstance(outcome, Failure)
    assert (outcome.reason, outcome.detail) == (NO_MATCHING_CLAUSE, "pa/1")


def test_no_fallback_after_a_head_matches():
    # both clauses are named p; the first head matches and its body fails,
    # so the second clause must not run
    machine = Machine()
    decl = A.And(
        A.Clause("p", (), A.Call("missing", ())),
        A.Clause("p", (), A.Assign("x", A.Int(1))),
    )
    push(machine, decl)
    outcome = execute(machine, A.Call("p", ()))
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
    ok = execute(Machine(), A.Implication(renamed, A.Call("g", (A.Int(1),))))
    assert isinstance(ok, Success)
    bad = execute(Machine(), A.Implication(renamed, A.Call("f", (A.Int(1),))))
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


def test_an_outer_ren_renames_the_operands_of_an_inner_ren():
    # the outer pass turns the inner ren(p, r) into ren(q, r) and p() into q(),
    # which the inner pass then renames to r()
    outcome, machine = run("(ren(p, q) (ren(p, r) (p() = print(renamed))) => r())")
    assert isinstance(outcome, Success) and machine.output_text() == "renamed\n"


def test_colliding_renames_merge_names_textually():
    # ren(p, q) over ren(q, r): the outer pass turns p into q, colliding
    # with the original q, and the inner pass sends every q to r; both
    # clauses end up named r and left-first search wins (no hygiene)
    machine = Machine(
        seeds=[
            A.MacroDef(
                "m",
                A.And(
                    A.Clause("p", (), A.Assign("x", A.Int(1))),
                    A.Clause("q", (), A.Assign("y", A.Int(2))),
                ),
            )
        ]
    )
    frame = A.Rename("p", "q", A.Rename("q", "r", A.MacroRef("m")))
    assert A.free_procedure_names(frame, machine.macro_env) == {"r"}
    push(machine, frame)
    assert isinstance(execute(machine, A.Call("r", ())), Success)
    assert machine.store["x"] == A.Int(1)
    assert "y" not in machine.store
    assert isinstance(execute(machine, A.Call("q", ())), Failure)
    assert isinstance(execute(machine, A.Call("p", ())), Failure)


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


def test_a_live_frame_declares_what_its_macro_holds_now():
    # /m declares q when its frame is pushed; redefined under that frame
    # it declares z only, so q() falls to the older frame, until the
    # macro scope ends and /m declares q again
    source = (
        "macro /m = { q() = (x = 1) }\n"
        "((q() = (x = 2)) => (/m => ((macro /m = { z() = true } in q()); y = x; q())))"
    )
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert (machine.store["y"], machine.store["x"]) == (A.Int(2), A.Int(1))


def test_a_table_pushed_again_declares_what_its_macro_holds_now():
    # D's frame /m and p() is pushed by D(1) when /m declares q, popped, and
    # pushed again by D(2) under a /m that declares z only: its cached table
    # is rebuilt, so q() falls to the outer frame
    source = (
        "macro /m = { q() = (x = 1) }\n"
        "((q() = (x = 3)) => (D(k) = ((/m and p() = true) => (if (k == 1) p() else q())) => "
        "(D(1); (macro /m = { z() = (x = 2) } in (p0() = true => (p0(); D(2)))))))"
    )
    outcome, machine = run(source)
    assert isinstance(outcome, Success)
    assert machine.store["x"] == A.Int(3)


# A frame that refers to a macro, traced across a change of the macro
# environment: /g is undefined when its frame is pushed, and /m is
# redefined under a renaming frame. Each frame's steps follow what the
# macro holds at the call.
REFERRING_FRAME_TRACES = {
    "((/g and p() = (x = 1)) => (macro /g = { q() = (y = 2) } in (p(); q())))": """\
ex:11 (/g and p() = (x = 1) => (macro /g = { q() = (y = 2) } in p(); q()))
  ex:12 (macro /g = { q() = (y = 2) } in p(); q())
    ex:10 p(); q()
      ex:7 p()
        bc:3 /g and p() = (x = 1)
          bc:6 /g
        bc:4 /g and p() = (x = 1)
          bc:1 p() = (x = 1)
            ex:9 x = 1
      ex:7 q()
        bc:6 /g
          bc:1 q() = (y = 2)
            ex:9 y = 2
""",
    "macro /m = { q() = (x = 1) }\n"
    "((ren(q, q2) /m) => (q2(); (macro /m = { q() = (y = 2) and r() = print(y) } in (q2(); r())); q2()))": """\
ex:11 (ren(q, q2) /m => q2(); (macro /m = { q() = (y = 2) and r() = (print(y)) } in q2(); r()); q2())
  ex:10 q2(); (macro /m = { q() = (y = 2) and r() = (print(y)) } in q2(); r()); q2()
    ex:7 q2()
      bc:5 ren(q, q2) /m
        bc:6 /m
          bc:1 q2() = (x = 1)
            ex:9 x = 1
    ex:10 (macro /m = { q() = (y = 2) and r() = (print(y)) } in q2(); r()); q2()
      ex:12 (macro /m = { q() = (y = 2) and r() = (print(y)) } in q2(); r())
        ex:10 q2(); r()
          ex:7 q2()
            bc:5 ren(q, q2) /m
              bc:6 /m
                bc:3 q2() = (y = 2) and r() = (print(y))
                  bc:1 q2() = (y = 2)
                    ex:9 y = 2
          ex:7 r()
            bc:6 /m
              bc:3 q() = (y = 2) and r() = (print(y))
              bc:4 q() = (y = 2) and r() = (print(y))
                bc:1 r() = (print(y))
                  ex:7 print(y)
      ex:7 q2()
        bc:5 ren(q, q2) /m
          bc:6 /m
            bc:1 q2() = (x = 1)
              ex:9 x = 1
""",
}


@pytest.mark.parametrize("source", list(REFERRING_FRAME_TRACES), ids=["undefined_at_push", "renamed_and_redefined"])
def test_a_referring_frame_traces_what_its_macro_holds_at_the_call(source):
    events = []
    outcome, machine = run(source, trace=events.append)
    assert isinstance(outcome, Success)
    assert (machine.store["x"], machine.store["y"]) == (A.Int(1), A.Int(2))
    assert "".join(event.format() + "\n" for event in events) == REFERRING_FRAME_TRACES[source]


@pytest.mark.parametrize("call", ["f()", "g()"])
def test_a_macro_scope_puts_back_the_environment_it_replaced(call):
    # whether the body succeeds (f) or fails (g), the very same binding
    program = parse_source(f"macro /m = {{ f() = (x = 1) }}\n(macro /m = {{ f() = (x = 2) }} in (/m => {call}))")
    machine = machine_for(program)
    before = dict(machine.macro_env)
    outcome = execute(machine, A.desugar(program.main))
    assert isinstance(outcome, Success) == (call == "f()")
    assert proggen.same_bindings(machine.macro_env, before)


def test_a_read_of_an_undefined_macro_gains_its_clauses_when_a_scope_defines_it():
    # the frame's table read /n before any definition; the scope rebuilds it
    outcome, machine = run("((ren(g, h) /n) => (macro /n = { g() = (x = 2) } in h()))")
    assert isinstance(outcome, Success) and machine.store["x"] == A.Int(2)


def test_a_nested_macro_read_follows_an_inner_definition_until_the_scope_ends():
    # /k reads /m; inside the scope h() runs the new q, after it the old one again
    outcome, machine = run(
        "macro /m = { q() = (x = 1) } and /k = { ren(q, h) /m }\n"
        "(/k => ((macro /m = { q() = (x = 2) } in h()); y = x; h()))"
    )
    assert isinstance(outcome, Success)
    assert (machine.store["y"], machine.store["x"]) == (A.Int(2), A.Int(1))


def record_tables(monkeypatch):
    """Make every clause table record the names a call looks up in it;
    returns the (declaration, entries) pairs built and the (entries,
    name) pairs read, in order."""
    built, read = [], []
    clause_table = A.clause_table

    class Entries(dict):
        def get(self, name, default=None):
            read.append((self, name))
            return super().get(name, default)

    def recording(decl, env, scope=None, rename=A.rename):
        steps, entries = clause_table(decl, env, scope, rename)
        built.append((decl, Entries(entries)))
        return steps, built[-1][1]

    monkeypatch.setattr(A, "clause_table", recording)
    return built, read


def test_selection_walks_only_the_deciding_frame(monkeypatch):
    # shallow binding: base() is declared at the bottom of 200 frames; each
    # frame's table is built once, when it is pushed, and the call builds
    # none and reads the entries of base's frame only
    stmt = A.Call("base", ())
    for i in range(200):
        stmt = A.Implication(A.Clause(f"p{i}", (), A.TrueStmt()), stmt)
    stmt = A.Implication(A.Clause("base", (), A.Assign("x", A.Int(1))), stmt)
    built, read = record_tables(monkeypatch)
    machine = Machine()
    assert isinstance(execute(machine, stmt), Success)
    assert machine.store["x"] == A.Int(1)
    assert len(built) == 201
    assert len(read) == 1 and read[0][0] is built[0][1] and read[0][1] == "base"


def test_macro_reference_frames_share_one_table_per_environment(monkeypatch):
    # Even and Odd load each other on every level: seven frames, two tables
    built, _ = record_tables(monkeypatch)
    outcome, machine = run(
        "module Ev. Even(x) = if (x == 0) (r = even) else (Od => Odd(x - 1)) end\n"
        "module Od. Odd(x) = if (x == 0) (r = odd) else (Ev => Even(x - 1)) end\n"
        "Ev => Even(6)"
    )
    assert isinstance(outcome, Success) and machine.store["r"] == A.Atom("even")
    assert [decl for decl, _ in built] == [A.MacroRef("Ev"), A.MacroRef("Od")]


def test_the_frame_index_holds_live_frames_only():
    machine = Machine()
    outcome = execute(machine, main_of("(p() = q() => (r() = true => p()))"))
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE
    assert machine.module_stack == [] and machine.tables == {} and machine.name_index == {}


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
    machine = Machine()
    for key, value in store.items():
        machine.store[key] = value
    return eval_expr(machine, expr)


def test_eval_arithmetic():
    assert eval_in({}, A.BinOp("+", A.Int(2), A.Int(3))) == A.Int(5)
    assert eval_in({}, A.BinOp("*", A.Int(4), A.Int(5))) == A.Int(20)


def test_a_value_is_its_own_literal():
    five = parse_source("x = 5").main.expr
    assert five == A.Int(5)
    assert eval_in({}, five) is five
    decl = substitute(A.Clause("p", (A.Var("n"),), A.Print(A.Var("n"))), "n", five)
    assert decl.params[0] is five and decl.body.expr is five


def test_eval_variable():
    assert eval_in({"x": A.Int(7)}, A.Var("x")) == A.Int(7)


def test_eval_atom_equality():
    assert eval_in({"emp": A.Atom("tom")}, A.BinOp("==", A.Var("emp"), A.Var("tom"))) == A.Bool(True)
    assert eval_in({"emp": A.Atom("kim")}, A.BinOp("==", A.Var("emp"), A.Var("tom"))) == A.Bool(False)


def test_eval_equality_across_types_is_false():
    assert eval_in({}, A.BinOp("==", A.Int(1), A.Bool(True))) == A.Bool(False)
    assert eval_in({}, A.BinOp("!=", A.Int(1), A.Str("1"))) == A.Bool(True)


def test_eval_division_truncates_toward_zero():
    assert eval_in({}, A.BinOp("/", A.Int(7), A.Int(2))) == A.Int(3)
    assert eval_in({}, A.BinOp("/", A.Int(-7), A.Int(2))) == A.Int(-3)
    assert eval_in({}, A.BinOp("/", A.Int(7), A.Int(-2))) == A.Int(-3)


def test_eval_division_by_zero():
    with pytest.raises(EngineFailure) as info:
        eval_in({}, A.BinOp("/", A.Int(1), A.Int(0)))
    assert info.value.reason == DIVISION_BY_ZERO


def test_eval_short_circuit_skips_the_right_operand():
    guarded = A.BinOp("&&", A.Bool(False), A.BinOp("/", A.Int(1), A.Int(0)))
    assert eval_in({}, guarded) == A.Bool(False)
    guarded = A.BinOp("||", A.Bool(True), A.BinOp("/", A.Int(1), A.Int(0)))
    assert eval_in({}, guarded) == A.Bool(True)


def test_eval_type_mismatch():
    with pytest.raises(EngineFailure) as info:
        eval_in({}, A.BinOp("+", A.Int(1), A.Bool(True)))
    assert info.value.reason == TYPE_MISMATCH


def test_unbound_lowercase_identifier_is_an_atom():
    assert eval_in({}, A.Var("tom")) == A.Atom("tom")


def test_unbound_capitalized_identifier_is_an_error():
    with pytest.raises(EngineFailure) as info:
        eval_in({}, A.Var("Tom"))
    assert info.value.reason == UNBOUND_VARIABLE


def test_bound_identifier_beats_the_atom_reading():
    assert eval_in({"tom": A.Int(3)}, A.Var("tom")) == A.Int(3)


# -- operators against a Python reference -------------------------------------

VALUES = st.one_of(
    st.sampled_from([0, 1, -1]).map(A.Int),
    st.integers().map(A.Int),
    st.booleans().map(A.Bool),
    st.text(max_size=3).map(A.Str),
)
INTEGER_RESULTS = {
    "+": lambda a, b: A.Int(a + b),
    "-": lambda a, b: A.Int(a - b),
    "*": lambda a, b: A.Int(a * b),
    "/": lambda a, b: A.Int(abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)),
    "<": lambda a, b: A.Bool(a < b),
    "<=": lambda a, b: A.Bool(a <= b),
    ">": lambda a, b: A.Bool(a > b),
    ">=": lambda a, b: A.Bool(a >= b),
}


def reference(op, left, right):
    """The value of left op right, or the (reason, detail) it fails with."""
    if op in ("&&", "||"):
        if not isinstance(left, A.Bool):
            return TYPE_MISMATCH, f"{op} is not applicable to {A.render_value(left)}"
        if left.value == (op == "||"):
            return left
        if not isinstance(right, A.Bool):
            return TYPE_MISMATCH, f"{op} is not applicable to {A.render_value(right)}"
        return right
    if op in ("==", "!="):
        return A.Bool((type(left) is type(right) and left.value == right.value) == (op == "=="))
    for operand in (left, right):
        if not isinstance(operand, A.Int):
            return TYPE_MISMATCH, f"{op} is not applicable to {A.render_value(operand)}"
    if op == "/" and right.value == 0:
        return DIVISION_BY_ZERO, f"{left.value} / 0"
    return INTEGER_RESULTS[op](left.value, right.value)


def outcome_of(expr):
    try:
        return eval_in({}, expr)
    except EngineFailure as failure:
        return failure.reason, failure.detail


@given(st.sampled_from(sorted(PRECEDENCE)), VALUES, VALUES)
def test_binary_operators_agree_with_the_reference(op, left, right):
    assert outcome_of(A.BinOp(op, left, right)) == reference(op, left, right)


@given(VALUES)
def test_unary_operators_agree_with_the_reference(operand):
    expected = {
        "!": A.Bool(not operand.value) if isinstance(operand, A.Bool)
        else (TYPE_MISMATCH, f"! is not applicable to {A.render_value(operand)}"),
        "-": A.Int(-operand.value) if isinstance(operand, A.Int)
        else (TYPE_MISMATCH, f"unary - is not applicable to {A.render_value(operand)}"),
    }
    for op, result in expected.items():
        assert outcome_of(A.UnaryOp(op, operand)) == result


def test_operator_details_are_exact():
    assert outcome_of(A.UnaryOp("!", A.Int(3))) == (TYPE_MISMATCH, "! is not applicable to 3")
    assert outcome_of(A.UnaryOp("-", A.Bool(True))) == (TYPE_MISMATCH, "unary - is not applicable to true")
    assert outcome_of(A.BinOp("+", A.Bool(True), A.Int(1))) == (TYPE_MISMATCH, "+ is not applicable to true")
    assert outcome_of(A.BinOp("+", A.Int(1), A.Str("a"))) == (TYPE_MISMATCH, "+ is not applicable to a")
    assert outcome_of(A.BinOp("/", A.Int(7), A.Int(0))) == (DIVISION_BY_ZERO, "7 / 0")
    with pytest.raises(TypeError, match="unknown operator '%'"):
        eval_in({}, A.BinOp("%", A.Int(7), A.Int(2)))


@pytest.mark.parametrize("op", sorted(PRECEDENCE))
def test_every_parsed_operator_evaluates(op):
    operand = A.Bool(True) if op in ("&&", "||") else A.Int(2)
    assert isinstance(eval_in({}, A.BinOp(op, operand, operand)), (A.Int, A.Bool))


# -- substitution -------------------------------------------------------------


def test_substitute_head_and_body():
    decl = A.Clause(
        "Age",
        (A.Var("emp"),),
        A.If(A.BinOp("==", A.Var("emp"), A.Atom("tom")), A.TrueStmt(), A.TrueStmt()),
    )
    result = substitute(decl, "emp", A.Atom("tom"))
    assert result.params == (A.Atom("tom"),)
    assert result.body.cond == A.BinOp("==", A.Atom("tom"), A.Atom("tom"))


def test_substitute_absent_variable_is_identity():
    decl = A.Clause("p", (A.Var("y"),), A.TrueStmt())
    assert substitute(decl, "x", A.Int(5)) == decl


def test_substitute_respects_shadowing():
    inner = A.Forall("x", A.Clause("p", (A.Var("x"),), A.TrueStmt()))
    assert substitute(inner, "x", A.Int(1)) == inner
    nested = A.Forall("y", inner)
    assert substitute(nested, "x", A.Int(1)) == nested


def test_substitute_skips_alloc_body_when_handle_shadows():
    body = A.Assign("r", A.Index(A.Var("p"), A.Int(0)))
    stmt = A.AllocScope("p", "int", A.Var("p"), body)
    decl = A.Clause("f", (A.Var("p"),), stmt)
    result = substitute(decl, "p", A.Int(2))
    assert result.body.length == A.Int(2)  # the length sees the formal
    assert result.body.body == body  # the body sees the handle


# -- frames as closures -------------------------------------------------------

MACRO_IN_A_PUSHED_FRAME = "macro /m = { q() = print(k) } in ((P(k) = ((/m and r() = true) => q())) => (k = 5; P(1)))"


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_a_macro_body_in_a_pushed_declaration_reads_the_store(traced):
    # the frame (/m and r() = true) is pushed from P's activation, k = 1;
    # /m's body is conjoined into it but holds no variable of that
    # activation, so its k is the store's
    events = []
    outcome, machine = run(MACRO_IN_A_PUSHED_FRAME, trace=events.append if traced else None)
    assert isinstance(outcome, Success)
    assert machine.output_text() == "5\n"
    if traced:
        assert "bc:1 q() = (print(k))" in [event.format().strip() for event in events]


def count_substitutions(monkeypatch):
    """Make cmod.engine.substitute record the (declaration, variable) of each call."""
    import cmod.engine

    calls, substitute_ = [], cmod.engine.substitute

    def counting(decl, var, value):
        calls.append((decl, var))
        return substitute_(decl, var, value)

    monkeypatch.setattr(cmod.engine, "substitute", counting)
    return calls


# perfbench's tall shape: each level pushes a ren declaration from Step's
# activation, calls the renamed procedure and one declared at the bottom
TALL = """
(Base(k) = (s = s + k) =>
 (Step(k) = if (k == 0) true else
   (ren(h, g) (h(j) = (u = u + j)) =>
     (g(k); Base(k); Step(k - 1))) =>
  (s = 0; u = 0; Step(40); print(s); print(u))))
"""


def test_an_untraced_run_substitutes_nothing(monkeypatch):
    calls = count_substitutions(monkeypatch)
    outcome, machine = run(TALL)
    assert isinstance(outcome, Success) and machine.output_text() == "820\n820\n"
    assert calls == []


def test_no_run_substitutes_traced_or_untraced(monkeypatch):
    # /m's definition closes over each of P's two activations, and a trace
    # step is rendered in its activation: neither rewrites a tree
    calls = count_substitutions(monkeypatch)
    for trace in (None, lambda event: None):
        outcome, machine = run("(P(k) = (macro /m = { q() = print(k) } in (/m => q())) => (P(1); P(2)))", trace=trace)
        assert isinstance(outcome, Success) and machine.output_text() == "1\n2\n"
        for path in sorted(test_golden.CORPUS.glob("*.cmod")):
            run(path.read_text(encoding="utf-8"), trace=trace)
        for case in test_golden.CASES.values():
            seeds, stmt = case()
            execute(Machine(seeds=seeds, trace=trace), stmt)
    assert calls == []


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
        machine = Machine(max_depth=32)
        outcome = execute(machine, A.Implication(frame, A.Call(target, ())))
        assert isinstance(outcome, Success) == proggen.branch_order_success(frame, target)


def assert_unwound(machine):
    assert machine.module_stack == [] and machine.call_stack == []
    assert machine.tables == {} and machine.name_index == {}


def test_call_depth_uses_no_python_stack():
    # On the main thread this recursion once ran out of Python stack
    # long before the default call-depth limit.
    outcome, machine = run("(Loop(n) = if (n == 0) (done = 1) else (Loop(n - 1)) => Loop(600))")
    assert isinstance(outcome, Success) and machine.store["done"] == A.Int(1)
    assert_unwound(machine)


def test_a_macro_scope_at_every_level_uses_no_python_stack():
    # Every level enters a macro scope and calls q(), which reads /m's table
    # as the new environment has it; a few frames of Python stack suffice.
    main = main_of(
        "n = 3000; (Rec() = if (n == 0) true else (n = n - 1; "
        "(macro /m = { q() = true } in (/m => (q(); Rec())))) => Rec())"
    )
    here, frame = 0, sys._getframe()
    while frame:
        here, frame = here + 1, frame.f_back
    limit = sys.getrecursionlimit()
    machine = Machine()
    sys.setrecursionlimit(here + 100)
    try:
        outcome = execute(machine, main)
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(outcome, Success) and machine.store["n"] == A.Int(0)
    assert_unwound(machine)


def test_a_count_loop_of_20000_levels_runs_on_the_main_thread():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        outcome, machine = run(
            "(Loop(n) = if (n == 0) true else (s = s + 1; Loop(n - 1)) => (s = 0; Loop(20000)))",
            max_depth=20001,
        )
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(outcome, Success) and machine.store["s"] == A.Int(20000)
    assert_unwound(machine)


def nested_scopes(body):
    """body inside two allocation scopes of h, in the clause of P, called
    inside an implication, inside two macro scopes, so that exits run in
    the wrong order would show: macro /m = {..} in macro /n = {..} in
    (/m => ((forall x P(x) = new int[2] h => new int[3] h => body) => P(1)))."""
    allocs = A.AllocScope("h", "int", A.Int(2), A.AllocScope("h", "int", A.Int(3), body))
    inner = A.Implication(A.Forall("x", A.Clause("P", (A.Var("x"),), allocs)), A.Call("P", (A.Int(1),)))
    scope = A.Implication(A.MacroRef("m"), inner)
    for name in "nm":
        scope = A.MacroScope((A.MacroDef(name, A.Clause("q", (), A.TrueStmt())),), scope)
    return scope


def assert_scopes_undone(machine, bindings):
    assert_unwound(machine)
    assert proggen.same_bindings(machine.macro_env, bindings)
    assert machine.regions.regions == {} and all(count == 0 for count in machine.handles.values())
    assert machine.store["h"] == A.Int(7)  # the value the handle hid


def test_a_failure_deep_in_an_expression_unwinds_every_scope():
    # A division by zero at the bottom of a 100,000-deep expression.
    deep = A.BinOp("/", A.Int(1), A.Int(0))
    for i in range(100000):
        deep = A.UnaryOp("-", deep) if i % 2 else A.BinOp("+", A.Int(1), deep)
    machine = Machine()
    machine.store["h"] = A.Int(7)
    bindings = dict(machine.macro_env)
    outcome = execute(machine, nested_scopes(A.Assign("y", deep)))
    assert isinstance(outcome, Failure) and outcome.reason == DIVISION_BY_ZERO
    assert outcome.detail == "1 / 0" and outcome.__traceback__ is None
    assert "y" not in machine.store
    assert_scopes_undone(machine, bindings)


def test_an_exception_from_the_trace_hook_propagates_and_unwinds_every_scope():
    def hook(event):
        if event.phase == "ex" and event.subject.startswith("y ="):
            raise ValueError("hook")

    machine = Machine(trace=hook)
    machine.store["h"] = A.Int(7)
    bindings = dict(machine.macro_env)
    with pytest.raises(ValueError, match="hook"):
        execute(machine, nested_scopes(A.Assign("y", A.Int(2))))
    assert "y" not in machine.store
    assert_scopes_undone(machine, bindings)


def test_a_program_once_too_deep_to_desugar_runs():
    # It parses at the default recursion limit, and nothing walks it
    # again before it runs.
    outcome, machine = run_source("x = " + "-" * 700 + "1; print(x)")
    assert isinstance(outcome, Success) and machine.output_text() == "1\n"
    program = parse_source("module M. p() = x = " + "-" * 700 + "1 end\n(M => p()); print(x)")
    machine = machine_for(program)
    assert isinstance(execute(machine, program.main), Success) and machine.output_text() == "1\n"
