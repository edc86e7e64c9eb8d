"""Derivation traces compared byte for byte against recorded files.

``tests/golden/<name>.trace`` holds, for each corpus program, the full
stderr of ``cmod run --trace``; for each hand-built case below, the
formatted trace events followed by one ``=>`` line with the outcome, the
final store and the output. The hand-built cases cover the places where
clause search must rename and instantiate exactly as the declaration
tree says: a nested ``forall`` rebinding the same variable, ``ren`` over
a macro reference, renames that collide, a cyclic macro reference, and a
``forall`` whose variable sits in no clause head.

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
            A.Clause("p", (_x(), A.IntLit(0)), A.Print(_x())),
            A.And(
                A.Forall("x", A.Clause("q", (A.IntLit(0), _x()), A.Print(_x()))),
                A.Forall("x", proggen.closed_clause("r", ("z",), A.Print(_x()))),
            ),
        ),
    )
    calls = [
        A.Call("q", (A.IntLit(0), A.IntLit(2))),
        A.Call("p", (A.IntLit(3), A.IntLit(0))),
        A.Call("r", (A.IntLit(7),)),
        A.Call("q", (A.IntLit(1), A.IntLit(2))),
    ]
    return [], A.Implication(frame, proggen.fold_seq(calls))


def _rename_over_macro_ref() -> tuple[list[A.MacroDef], A.Statement]:
    # ren(f, g) /m, where /m's clauses call f: heads and call sites in the
    # referenced body are renamed when the reference is resolved
    count_down = A.If(
        A.BinOp("==", _x("n"), A.IntLit(0)),
        A.Assign("done", _x("n")),
        A.Call("f", (A.BinOp("-", _x("n"), A.IntLit(1)),)),
    )
    body = A.And(
        proggen.closed_clause("f", ("n",), count_down),
        proggen.closed_clause("h", (), A.Call("f", (A.IntLit(1),))),
    )
    frame = A.Rename("f", "g", A.And(A.MacroRef("m"), proggen.closed_clause("k", ("n",), A.Call("f", (_x("n"),)))))
    calls = [A.Call("g", (A.IntLit(2),)), A.Call("h", ()), A.Call("k", (A.IntLit(1),)), A.Call("f", (A.IntLit(1),))]
    return [A.MacroDef("m", body)], A.Implication(frame, proggen.fold_seq(calls))


def _colliding_renames() -> tuple[list[A.MacroDef], A.Statement]:
    # ren(p, q) ren(q, r) /m: both clauses end up named r, left first wins
    body = A.And(
        A.Clause("p", (), A.Assign("x", A.IntLit(1))),
        A.Clause("q", (), A.Assign("y", A.IntLit(2))),
    )
    frame = A.Rename("p", "q", A.Rename("q", "r", A.MacroRef("m")))
    calls = [A.Call("r", ()), A.Call("q", ())]
    return [A.MacroDef("m", body)], A.Implication(frame, proggen.fold_seq(calls))


def _cyclic_macro_ref() -> tuple[list[A.MacroDef], A.Statement]:
    # /a and /b refer to each other; the cycle is cut where it closes
    seeds = [
        A.MacroDef("a", A.And(A.MacroRef("b"), A.Clause("pa", (), A.Assign("x", A.IntLit(1))))),
        A.MacroDef("b", A.And(A.MacroRef("a"), A.Clause("pb", (), A.Assign("y", A.IntLit(2))))),
    ]
    calls = [A.Call("pb", ()), A.Call("pa", ()), A.Call("pb", (A.IntLit(1),))]
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
    calls = [A.Call("p", ()), A.Assign("x", A.IntLit(5)), A.Call("p", ()), A.Call("s", (A.IntLit(9),))]
    return [], A.Implication(A.And(lone, shared), proggen.fold_seq(calls))


CASES = {
    "nested_forall_rebinds": _nested_forall_rebinds,
    "rename_over_macro_ref": _rename_over_macro_ref,
    "colliding_renames": _colliding_renames,
    "cyclic_macro_ref": _cyclic_macro_ref,
    "forall_in_no_head": _forall_in_no_head,
}


def corpus_trace(path: Path, capture) -> str:
    """The stderr of ``cmod run --trace`` on path; capture() runs main and
    returns what it wrote to stderr."""
    return capture(lambda: main(["run", str(path), "--trace"]))


def case_trace(name: str) -> str:
    seeds, stmt = CASES[name]()
    lines: list[str] = []
    machine = Machine.initial(seeds=seeds, trace=lambda event: lines.append(event.format()))
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
