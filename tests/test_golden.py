"""Derivation traces compared byte for byte against recorded files.

``tests/golden/<name>.trace`` holds, for each corpus program, the full
stderr of ``cmod run --trace``; for each hand-built case below, the
formatted trace events followed by one ``=>`` line with the outcome, the
final store and the output. The hand-built cases cover the places where
clause search must rename and instantiate exactly as the declaration
tree says: a nested ``forall`` rebinding the same variable, ``ren`` over
a macro reference, renames that collide, a cyclic macro reference, and a
``forall`` whose variable sits in no clause head. The closure cases pin
what a call's substitution reaches inside a clause body: a macro defined
there, an inner ``forall`` of the formal's name, a declaration pushed
from the body, an allocation handle named like the formal, and a
``switch`` over the formal.

Record the files again with ``PYTHONPATH=src python tests/test_golden.py``,
and only when a trace change is intended.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import proggen
from cmod import ast as A
from cmod.cli import main
from cmod.engine import Failure, execute
from cmod.machine import Machine

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CORPUS = ROOT / "corpus"


def _x(name: str = "x") -> A.Var:
    return A.Var(name)


def _nested_forall_rebinds() -> tuple[list[A.MacroDef], A.Statement]:
    # forall x. (p(x, 0) = print(x)
    #            and forall x. q(0, x) = print(x)
    #            and forall x. forall z. r(z) = print(x))
    # q(1, 2): the outer x takes 1 from p's head, the inner x takes 2 from
    # q's own head. r(7): the inner x occurs in no head, so the body's x
    # stays a variable even though the outer x is instantiated.
    frame = A.Forall(
        "x",
        A.And(
            A.Clause("p", (_x(), A.Int(0)), A.Print(_x())),
            A.And(
                A.Forall("x", A.Clause("q", (A.Int(0), _x()), A.Print(_x()))),
                A.Forall("x", proggen.closed_clause("r", ("z",), A.Print(_x()))),
            ),
        ),
    )
    calls = [
        A.Call("q", (A.Int(0), A.Int(2))),
        A.Call("p", (A.Int(3), A.Int(0))),
        A.Call("r", (A.Int(7),)),
        A.Call("q", (A.Int(1), A.Int(2))),
    ]
    return [], A.Implication(frame, proggen.fold_seq(calls))


def _rename_over_macro_ref() -> tuple[list[A.MacroDef], A.Statement]:
    # ren(f, g) /m, where /m's clauses call f: heads and call sites in the
    # referenced body are renamed when the reference is resolved
    count_down = A.If(
        A.BinOp("==", _x("n"), A.Int(0)),
        A.Assign("done", _x("n")),
        A.Call("f", (A.BinOp("-", _x("n"), A.Int(1)),)),
    )
    body = A.And(
        proggen.closed_clause("f", ("n",), count_down),
        proggen.closed_clause("h", (), A.Call("f", (A.Int(1),))),
    )
    frame = A.Rename("f", "g", A.And(A.MacroRef("m"), proggen.closed_clause("k", ("n",), A.Call("f", (_x("n"),)))))
    calls = [A.Call("g", (A.Int(2),)), A.Call("h", ()), A.Call("k", (A.Int(1),)), A.Call("f", (A.Int(1),))]
    return [A.MacroDef("m", body)], A.Implication(frame, proggen.fold_seq(calls))


def _colliding_renames() -> tuple[list[A.MacroDef], A.Statement]:
    # ren(p, q) ren(q, r) /m: both clauses end up named r, left first wins
    body = A.And(
        A.Clause("p", (), A.Assign("x", A.Int(1))),
        A.Clause("q", (), A.Assign("y", A.Int(2))),
    )
    frame = A.Rename("p", "q", A.Rename("q", "r", A.MacroRef("m")))
    calls = [A.Call("r", ()), A.Call("q", ())]
    return [A.MacroDef("m", body)], A.Implication(frame, proggen.fold_seq(calls))


def _cyclic_macro_ref() -> tuple[list[A.MacroDef], A.Statement]:
    # /a and /b refer to each other; the cycle is cut where it closes
    seeds = [
        A.MacroDef("a", A.And(A.MacroRef("b"), A.Clause("pa", (), A.Assign("x", A.Int(1))))),
        A.MacroDef("b", A.And(A.MacroRef("a"), A.Clause("pb", (), A.Assign("y", A.Int(2))))),
    ]
    calls = [A.Call("pb", ()), A.Call("pa", ()), A.Call("pb", (A.Int(1),))]
    return seeds, A.Implication(A.MacroRef("a"), proggen.fold_seq(calls))


def _forall_in_no_head() -> tuple[list[A.MacroDef], A.Statement]:
    # forall x. p() = print(x): nothing instantiates x, so the body reads
    # the store. forall x. (q(x) = true and s(y) = print(x)): x takes the
    # actual at q's head position even when s is called.
    lone = A.Forall("x", A.Clause("p", (), A.Print(_x())))
    shared = A.Forall(
        "x",
        A.And(
            A.Clause("q", (_x(),), A.TrueStmt()),
            proggen.closed_clause("s", ("y",), A.Seq(A.Print(_x()), A.Print(_x("y")))),
        ),
    )
    calls = [A.Call("p", ()), A.Assign("x", A.Int(5)), A.Call("p", ()), A.Call("s", (A.Int(9),))]
    return [], A.Implication(A.And(lone, shared), proggen.fold_seq(calls))


def _macro_in_body_captures_formal() -> tuple[list[A.MacroDef], A.Statement]:
    # p(x) = (macro /m = { q() = print(x) } in (/m => q())): the call
    # substitutes into the macro body too, so p(3) prints 3
    macro = A.MacroDef("m", A.Clause("q", (), A.Print(_x())))
    body = A.MacroScope((macro,), A.Implication(A.MacroRef("m"), A.Call("q", ())))
    frame = proggen.closed_clause("p", ("x",), body)
    return [], A.Implication(frame, A.Call("p", (A.Int(3),)))


def _inner_forall_hides_formal() -> tuple[list[A.MacroDef], A.Statement]:
    # p(x) = ((forall x q() = print(x)) => q()): the inner x is in no head,
    # so it hides the formal and q reads the store, printing 9
    inner = A.Implication(A.Forall("x", A.Clause("q", (), A.Print(_x()))), A.Call("q", ()))
    frame = proggen.closed_clause("p", ("x",), inner)
    calls = [A.Assign("x", A.Int(9)), A.Call("p", (A.Int(3),))]
    return [], A.Implication(frame, proggen.fold_seq(calls))


def _pushed_decl_captures_formal() -> tuple[list[A.MacroDef], A.Statement]:
    # p(x) = ((q() = print(x)) => r()) and r() = q(): r lives in the outer
    # frame, yet its call to q finds the clause p pushed, holding x = 3
    pushed = A.Implication(A.Clause("q", (), A.Print(_x())), A.Call("r", ()))
    frame = A.And(proggen.closed_clause("p", ("x",), pushed), A.Clause("r", (), A.Call("q", ())))
    return [], A.Implication(frame, A.Call("p", (A.Int(3),)))


def _alloc_handle_hides_formal() -> tuple[list[A.MacroDef], A.Statement]:
    # p(x) = (x = new int[x] => print(x)): the length sees the formal, the
    # body sees the handle
    scope = A.AllocScope("x", "int", _x(), A.Print(_x()))
    frame = proggen.closed_clause("p", ("x",), scope)
    return [], A.Implication(frame, A.Call("p", (A.Int(3),)))


def _switch_over_formal() -> tuple[list[A.MacroDef], A.Statement]:
    # p(x) = switch (x) { case 1: print(one) case two: print(x) default:
    # print(x) }, left undesugared so the call substitutes into the switch
    cases = ((A.Int(1), A.Print(A.Atom("one"))), (A.Atom("two"), A.Print(_x())))
    body = A.Switch(_x(), cases, A.Seq(A.Print(_x()), A.Assign("seen", _x())))
    frame = proggen.closed_clause("p", ("x",), body)
    calls = [A.Call("p", (A.Int(1),)), A.Call("p", (A.Atom("two"),)), A.Call("p", (A.Int(5),))]
    return [], A.Implication(frame, proggen.fold_seq(calls))


CASES = {
    "nested_forall_rebinds": _nested_forall_rebinds,
    "rename_over_macro_ref": _rename_over_macro_ref,
    "colliding_renames": _colliding_renames,
    "cyclic_macro_ref": _cyclic_macro_ref,
    "forall_in_no_head": _forall_in_no_head,
    "macro_in_body_captures_formal": _macro_in_body_captures_formal,
    "inner_forall_hides_formal": _inner_forall_hides_formal,
    "pushed_decl_captures_formal": _pushed_decl_captures_formal,
    "alloc_handle_hides_formal": _alloc_handle_hides_formal,
    "switch_over_formal": _switch_over_formal,
}


def corpus_trace(path: Path, capture) -> str:
    """The stderr of ``cmod run --trace`` on path; capture() runs main and
    returns what it wrote to stderr."""
    return capture(lambda: main(["run", str(path), "--trace"]))


def case_trace(name: str) -> str:
    seeds, stmt = CASES[name]()
    lines: list[str] = []
    machine = Machine(seeds=seeds, trace=lambda event: lines.append(event.format()))
    outcome = execute(machine, stmt)
    if isinstance(outcome, Failure):
        result = f"fail {outcome.reason}: {outcome.detail} [{outcome.render_chain()}]"
    else:
        result = "ok"
    store = ", ".join(f"{k}={A.render_value(v)}" for k, v in sorted(machine.store.items()))
    lines.append(f"=> {result} | store: {store} | output: {machine.output_text()!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.cmod")), ids=lambda p: p.stem)
def test_corpus_trace_matches_golden(path, capsys):
    def capture(run):
        capsys.readouterr()
        run()
        return capsys.readouterr().err

    expected = (GOLDEN / f"{path.stem}.trace").read_text(encoding="utf-8")
    assert corpus_trace(path, capture) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_hand_built_trace_matches_golden(name):
    expected = (GOLDEN / f"{name}.trace").read_text(encoding="utf-8")
    assert case_trace(name) == expected


def _record() -> None:
    import contextlib
    import io

    def capture(run):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            run()
        return err.getvalue()

    GOLDEN.mkdir(exist_ok=True)
    for path in sorted(CORPUS.glob("*.cmod")):
        (GOLDEN / f"{path.stem}.trace").write_text(corpus_trace(path, capture), encoding="utf-8")
    for name in CASES:
        (GOLDEN / f"{name}.trace").write_text(case_trace(name), encoding="utf-8")


if __name__ == "__main__":
    _record()
