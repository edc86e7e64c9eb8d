"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import functools
import random

import proggen
from cmod import ast as A
from cmod.cli import main
from cmod.engine import (
    Failure,
    Success,
    execute,
    run_source,
)
from cmod.errors import DEPTH_EXCEEDED, NO_MATCHING_CLAUSE, REGION_FAULT, ParseError
from cmod.machine import Machine
from cmod.parser import parse_source
from cmod.printer import pretty_print
from conftest import CORPUS


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {title}")
                raise
            print(f"criterion {number}: PASS - {title}")

        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. golden run and module locality
# ---------------------------------------------------------------------------


@criterion(1, "Emp/Bank golden output, store effect, and module locality")
def test_c1_emp_bank(tmp_path, capsys):
    source = (CORPUS / "emp_bank.cmod").read_text(encoding="utf-8")
    outcome, machine = run_source(source)
    assert isinstance(outcome, Success)
    assert machine.output_text() == "31\n40\n22\n"
    # the Bank task's effect on the store
    assert machine.store["owner"] == A.Atom("tom")
    assert machine.store["balance"] == A.Int(100)

    # the Emp module is available to the first task only
    injected = source.replace("(Bank =>", "Age(tom);\n(Bank =>", 1)
    assert injected != source
    path = tmp_path / "injected.cmod"
    path.write_text(injected, encoding="utf-8")
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Age" in captured.err
    assert captured.out == "31\n40\n22\n"  # the first task already ran


# ---------------------------------------------------------------------------
# 2. dynamic scoping / shadowing
# ---------------------------------------------------------------------------


@criterion(2, "innermost declaration wins across 500 randomized nestings")
def test_c2_shadowing():
    rng = random.Random(2024)
    for _ in range(500):
        stmt, expected = proggen.shadowing_case(rng)
        machine = Machine()
        outcome = execute(machine, stmt)
        assert isinstance(outcome, Success)
        assert machine.store["hit"] == A.Int(expected)


# ---------------------------------------------------------------------------
# 3. stack balance with persistent store writes
# ---------------------------------------------------------------------------


@criterion(3, "module stack and macro env balanced around every scope; stores persist")
def test_c3_stack_balance():
    rng = random.Random(3033)
    total_scopes = 0
    for _ in range(500):
        seeds, stmt, assigned = proggen.balanced_case(rng)
        machine = Machine(seeds=seeds)
        checker = proggen.ScopeBalanceChecker(machine)
        machine.trace = checker
        outcome = execute(machine, stmt)
        checker.finish()
        assert isinstance(outcome, Success)
        assert machine.module_stack == []
        for name in assigned:
            assert name in machine.store, f"store write {name} was lost"
        total_scopes += checker.checked
    assert total_scopes > 500  # the generator actually exercised scopes


# ---------------------------------------------------------------------------
# 4. macro equivalence with eager expansion
# ---------------------------------------------------------------------------

EQUIVALENCE_SUITE = [
    # the paired single-procedure modules loaded by conjunction
    (CORPUS / "macros_fg.cmod").read_text(encoding="utf-8"),
    "module M. f() = (x = 1) end (/M => f())",
    "module M. f() = (x = 2) end (M => f())",
    (CORPUS / "macro_scope.cmod").read_text(encoding="utf-8"),
    "macro /r = { ren(f, g) f(n) = (hit = n) }\n(/r => g(4))",
    "macro /a = { pa() = (x = 1) }\nmacro /b = { pb() = (y = 2) }\nmacro /c = { pc() = (z = 3) }\n"
    "(((/a and /b) and /c) => (pa(); pb(); pc()))",
    "macro /m = { forall z p(x) = (v = x) }\n(/m => p(6))",
    "macro /m = { p() = (a = 1) and q() = (b = 2) }\n(/m => (q(); p()))",
    "macro /m = { f() = (x = 1) }\nmacro /m = { f() = (x = 2) }\n(/m => f())",
    "(macro /o = { f() = (x = 1) } in (macro /i = { g() = (y = 2) } in (f(); g())))",
    "macro /m = { f() = (c = 1) }\n((/m => f()); (/m => f()))",
    "macro /a = { pa() = pb() }\nmacro /b = { pb() = (x = 9) }\n((/a and /b) => pa())",
    "macro /m = { f() = g() }\n(/m => f())",
    "macro /base = { f() = (x = 5) }\nmacro /alias = { /base }\n(/alias => f())",
    "macro /m = { shout(n) = print(n * 2) }\n(/m => (shout(3); shout(4)))",
    "macro /m = { tag(e) = switch (e) { case tom: t = 1; break; default: t = 0; break; } }\n"
    "(/m => (tag(tom); tag(bob)))",
    "module A. f() = (x = 1) end\nmodule B. g() = (y = 2) end\n((/A => f()); (/B => g()))",
    "macro /m = { f() = (x = 1) }\n((/m and g() = (y = 2)) => (f(); g()))",
    "macro /m = { helper() = (h = 1) }\n((/m) => ((caller() = helper()) => caller()))",
    "macro /m = { calc(n) = (r = (n * n + 1) / 2) }\n(/m => calc(9))",
]


@criterion(4, "macro programs behave identically to their eager inlinings")
def test_c4_macro_equivalence():
    assert len(EQUIVALENCE_SUITE) == 20
    for source in EQUIVALENCE_SUITE:
        outcome, machine = run_source(source)

        program = parse_source(source)
        inlined = A.desugar(proggen.inline_macros(program))
        flat_machine = Machine()  # no macro environment at all
        flat_outcome = execute(flat_machine, inlined)

        assert isinstance(outcome, Success) == isinstance(flat_outcome, Success), source
        if isinstance(outcome, Failure):
            assert outcome.reason == flat_outcome.reason, source
        assert machine.store == flat_machine.store, source
        assert machine.output_text() == flat_machine.output_text(), source


# ---------------------------------------------------------------------------
# 5. rename semantics
# ---------------------------------------------------------------------------


@criterion(5, "after ren(f,g) calls to g succeed and calls to f fail")
def test_c5_rename():
    renamed = "(ren(f, g) (f(n) = if (n == 0) (hit = 1) else f(n - 1)) => g(3))"
    outcome, machine = run_source(renamed)
    assert isinstance(outcome, Success)
    assert machine.store["hit"] == A.Int(1)  # recursive self-calls renamed too

    failing = "(ren(f, g) (f(n) = if (n == 0) (hit = 1) else f(n - 1)) => f(3))"
    outcome, _ = run_source(failing)
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE

    both = "(ren(f, g) (f(n) = (hit = n)) => (g(7); f(7)))"
    outcome, machine = run_source(both)
    assert isinstance(outcome, Failure) and outcome.reason == NO_MATCHING_CLAUSE
    assert machine.store["hit"] == A.Int(7)  # g succeeded before f failed


# ---------------------------------------------------------------------------
# 6. mutual recursion and the divergence guard
# ---------------------------------------------------------------------------

EV_OD = """
module Ev.
Even(x) = if (x == 0) true else (Od => Odd(x - 1))
end
module Od.
Odd(x) = if (x == 1) true else (Ev => Even(x - 1))
end
"""


def hand_traced_activations(n: int) -> int:
    """Independent oracle: walk the Even/Odd definitions by hand.

    Even(x) stops at x == 0, Odd(x) stops at x == 1, otherwise each calls
    the other on x - 1. For an even start this is the full descending
    chain down to Odd(1): one activation for n == 0, n activations for
    even n >= 2. (The chain never reaches Even(0) from an even start, so
    the count is 2k for k >= 1, not 2k + 1.)
    """
    count, procedure = 0, "Even"
    while True:
        count += 1
        if procedure == "Even" and n == 0:
            return count
        if procedure == "Odd" and n == 1:
            return count
        assert n > -1, "diverges"
        n -= 1
        procedure = "Odd" if procedure == "Even" else "Even"


@criterion(6, "Even(2k) succeeds with the hand-traced activation count; Even(9) hits the depth limit")
def test_c6_mutual_recursion():
    for k in range(9):
        events = []
        outcome, _ = run_source(EV_OD + f"(/Ev => Even({2 * k}))", trace=events.append)
        assert isinstance(outcome, Success), f"Even({2 * k}) failed"
        activations = sum(1 for e in events if e.phase == "bc" and e.rule_id == 1)
        expected = hand_traced_activations(2 * k)
        assert expected == (1 if k == 0 else 2 * k)
        assert activations == expected, f"Even({2 * k}): {activations} activations"

    outcome, machine = run_source(EV_OD + "(/Ev => Even(9))")
    assert isinstance(outcome, Failure)
    assert outcome.reason == DEPTH_EXCEEDED
    assert machine.max_depth == 10000  # at the default limit


# ---------------------------------------------------------------------------
# 7. region discipline
# ---------------------------------------------------------------------------


@criterion(7, "nested regions accessible, dangling reads all detected, counts restored")
def test_c7_regions():
    # the nested allocation corpus program runs with both regions usable
    outcome, machine = run_source((CORPUS / "regions_nested.cmod").read_text(encoding="utf-8"))
    assert isinstance(outcome, Success)
    assert machine.output_text() == "33\n12\n"

    # any access through an out-of-scope handle faults
    outcome, _ = run_source("(p = new int[4] => q = p); x = q[0]")
    assert isinstance(outcome, Failure)
    assert outcome.reason == REGION_FAULT and "dangling" in outcome.detail

    rng = random.Random(7077)
    for _ in range(1000):
        stmt, expect_dangle = proggen.region_case(rng)
        machine = Machine()
        events = proggen.record_region_events(machine.regions)
        outcome = execute(machine, stmt)
        if expect_dangle:
            assert isinstance(outcome, Failure), "dangling read went undetected"
            assert outcome.reason == REGION_FAULT and "dangling" in outcome.detail
        else:
            assert isinstance(outcome, Success)
        # the region count always returns to its pre-scope value
        assert machine.regions.regions == {}
        # frees happen strictly LIFO
        proggen.assert_lifo(events)


# ---------------------------------------------------------------------------
# 8. deterministic left-first search vs branch-order enumeration
# ---------------------------------------------------------------------------


@criterion(8, "left-first conjunction search agrees with the branch-order oracle")
def test_c8_search_oracle():
    rng = random.Random(8088)
    for _ in range(600):
        frame, _, target = proggen.conj_frame(rng)
        machine = Machine(max_depth=32)
        outcome = execute(machine, A.Implication(frame, A.Call(target, ())))
        expected = proggen.branch_order_success(frame, target)
        assert isinstance(outcome, Success) == expected, (frame, target)


# ---------------------------------------------------------------------------
# 9. frontend round trip and error positions
# ---------------------------------------------------------------------------


@criterion(9, "parse/print/parse equality on the corpus; errors carry in-bounds positions")
def test_c9_frontend(corpus_files):
    for path in corpus_files:
        first = parse_source(path.read_text(encoding="utf-8"))
        second = parse_source(pretty_print(first))
        assert first == second, path.name

    broken = [
        "x = ;",
        "(p() = true",
        "module M f() = true end true",
        "switch (x) { case 1: true }",
        "p(x, x) = true => p(1, 1)",
        "x =",
        "true; and",
    ]
    for source in broken:
        try:
            parse_source(source)
        except ParseError as error:
            lines = source.split("\n")
            assert 1 <= error.line <= len(lines)
            assert 1 <= error.column <= len(lines[error.line - 1]) + 1
        else:
            raise AssertionError(f"parsed: {source!r}")
