import errno
import io
import os
import re
import runpy
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from cmod import cli
from cmod.cli import _dump_state, _repl_entry, main
from cmod.machine import Machine
from cmod.parser import parse_source
from conftest import CORPUS, ROOT

SRC = ROOT / "src"

TRACE_LINE = re.compile(r"^(?P<indent>(?:  )*)(?P<phase>ex|bc):(?P<rule>\d+) \S")


def write(tmp_path, text, name="prog.cmod"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def child_env(buffered=True):
    # stdout to a pipe or a file is block-buffered unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if not (buffered and k == "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(SRC)
    return env


def test_run_emp_bank_golden(capsys):
    code = main(["run", str(CORPUS / "emp_bank.cmod")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "31\n40\n22\n"
    assert captured.err == ""


def test_run_trace_shows_the_switch_as_written(capsys):
    code = main(["run", "--trace", str(CORPUS / "emp_bank.cmod")])
    selected = [line.strip() for line in capsys.readouterr().err.splitlines() if line.strip().startswith("bc:1 Age(")]
    assert code == 0
    assert [line[: line.index(" = ")] for line in selected] == ["bc:1 Age(tom)", "bc:1 Age(kim)", "bc:1 Age(sue)"]
    assert all(" = (switch (" in line for line in selected)


def test_repl_a_switch_with_no_case_never_evaluates_its_scrutinee(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["switch (X) { default: print(3); break; }", ":quit"])
    assert code == 0
    assert "3\nok\n" in captured.out


def test_run_is_deterministic(capsys):
    main(["run", str(CORPUS / "emp_bank.cmod")])
    first = capsys.readouterr().out
    main(["run", str(CORPUS / "emp_bank.cmod")])
    second = capsys.readouterr().out
    assert first == second


def test_run_call_outside_its_module_exits_1(tmp_path, capsys):
    path = write(tmp_path, "Age(tom)")
    code = main(["run", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "Age" in captured.err


def test_body_mismatch_fails_the_call_and_exits_1(tmp_path, capsys):
    path = write(tmp_path, "((p() = (x = 1; q()) and p() = (y = 2)) and q(a) = true) => p()")
    code = main(["run", path, "--dump-state"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "cmod: no matching clause: q/0 (call chain: q() <- p())\n"
    assert "x = 1\n" in captured.out and "y = " not in captured.out


def test_run_syntax_error_exits_2_with_position(tmp_path, capsys):
    path = write(tmp_path, "x = ;")
    code = main(["run", path])
    captured = capsys.readouterr()
    assert code == 2
    assert "1:5" in captured.err


def test_run_missing_file_exits_2(capsys):
    code = main(["run", "no/such/file.cmod"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "fmt"])
def test_source_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "latin1.cmod"
    path.write_bytes('print("caf\u00e9")'.encode("latin-1"))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"cmod: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")


# superscript two, Arabic-Indic twelve, and a literal longer than int()
# converts (4,300 digits by default)
BAD_INTEGERS = ["x = \u00b2", "x = \u0661\u0662", "x = " + "1" * 5000]


@pytest.mark.parametrize("source", BAD_INTEGERS, ids=["superscript", "arabic-indic", "overlong"])
def test_a_bad_integer_literal_is_a_syntax_error_exit_2(tmp_path, capsys, source):
    code = main(["run", write(tmp_path, source)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("cmod: syntax error: 1:5: ")


@pytest.mark.parametrize(
    "source",
    [
        "print(Zzz)",
        "(p = new int[1] => q = p); x = q[0]",
        "x = 1 / 0",
        "x = 1 + true",
    ],
)
def test_runtime_faults_exit_3(tmp_path, capsys, source):
    path = write(tmp_path, source)
    code = main(["run", path])
    capsys.readouterr()
    assert code == 3


# A read and a write word the same region-access fault the same.
@pytest.mark.parametrize(
    "source, detail",
    [
        ("x = 1; x[0] = 2", "1 is not a region handle"),
        ("x = 1; y = x[0]", "1 is not a region handle"),
        ("(h = new int[2] => h[true] = 1)", "region index must be an integer"),
        ("(h = new int[2] => y = h[true])", "region index must be an integer"),
    ],
    ids=["write-handle", "read-handle", "write-index", "read-index"],
)
def test_a_region_access_fault_has_one_diagnostic(tmp_path, capsys, source, detail):
    code = main(["run", write(tmp_path, source)])
    assert (code, *capsys.readouterr()) == (3, "", f"cmod: type mismatch: {detail}\n")


@pytest.mark.parametrize(
    "source, code, err",
    [
        ("x = true && 1", 3, "type mismatch: && is not applicable to 1"),
        ("x = false || 1", 3, "type mismatch: || is not applicable to 1"),
        ("p; q()", 2, "syntax error: 1:1: expected '=>', '=', '[' or '(' after identifier, found 'p'"),
        ('switch (x) { case "s": true; break; }', 2, "syntax error: 1:19: expected case label (atom or integer), found 's'"),
        ("y = aB", 3, "unbound variable: variable 'aB' is not bound"),  # an atom is all-lowercase
    ],
    ids=["and-operand", "or-operand", "bare-identifier", "string-case-label", "mixed-case-identifier"],
)
def test_a_failure_ends_with_its_exit_code_and_diagnostic(tmp_path, capsys, source, code, err):
    assert (main(["run", write(tmp_path, source)]), *capsys.readouterr()) == (code, "", f"cmod: {err}\n")


def test_depth_exceeded_exits_3(tmp_path, capsys):
    path = write(tmp_path, "(loop() = loop() => loop())")
    code = main(["run", path, "--max-depth", "50"])
    captured = capsys.readouterr()
    assert code == 3
    assert "depth" in captured.err


def test_max_depth_must_be_positive(tmp_path):
    path = write(tmp_path, "true")
    assert main(["run", path, "--max-depth", "0"]) == 2


def test_a_run_imports_no_unused_standard_library():
    # -S keeps the site module's own imports out of the check
    script = (
        "import sys\n"
        "from cmod.cli import main\n"
        f"assert main(['run', {str(CORPUS / 'ev_od.cmod')!r}]) == 0\n"
        "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "[]"


# Usage errors exit 2 with the usage on stderr; only the exit code and the start of
# each stream are pinned, not the wording of the message.
@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 2),
        (["go", "x.cmod"], 2),
        (["run"], 2),
        (["run", "{prog}", "{prog}"], 2),
        (["run", "{prog}", "--fast"], 2),
        (["run", "{prog}", "--max-depth"], 2),
        (["run", "{prog}", "--max-depth", "x"], 2),
        (["run", "{prog}", "--max-depth", "0"], 2),
        (["run", "{prog}", "--max-depth=50"], 0),
        (["run", "--trace", "--max-depth", "50", "--dump-state", "{prog}"], 0),
        (["run", "--tr", "{prog}"], 0),
        (["repl", "{prog}"], 2),
        (["fmt", "{prog}", "--trace"], 2),
        (["-h"], 0),
        (["run", "{prog}", "--help"], 0),
    ],
)
def test_argv_exit_codes(tmp_path, capsys, argv, code):
    prog = write(tmp_path, "x = 1")
    assert main([word.format(prog=prog) for word in argv]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("usage:") and out == ""
    elif "-h" in argv or "--help" in argv:
        assert out.startswith("usage:") and err == ""


def test_a_usage_error_ends_with_its_message(tmp_path, capsys):
    assert main(["run", "--max-depth", "0", write(tmp_path, "x = 1")]) == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()[-1]) == ("", "cmod: error: argument --max-depth: must be at least 1")


def test_a_value_given_to_a_flag_is_a_usage_error(tmp_path, capsys):
    assert main(["run", "--trace=1", write(tmp_path, "x = 1")]) == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()[-1]) == ("", "cmod: error: argument --trace: ignored explicit argument '1'")


def test_trace_goes_to_stderr_and_is_well_formed(capsys):
    code = main(["run", str(CORPUS / "ev_od.cmod"), "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.err.strip("\n").split("\n")
    depths = []
    for line in lines:
        match = TRACE_LINE.match(line)
        assert match, f"bad trace line: {line!r}"
        assert 1 <= int(match.group("rule")) <= 12
        depth = len(match.group("indent")) // 2
        while depths and depths[-1] >= depth:
            depths.pop()
        if depths:
            assert depth == depths[-1] + 1
        else:
            assert depth == 0
        depths.append(depth)


def test_a_traced_run_into_one_pipe_prints_each_line_after_its_print_step():
    # stdout to a pipe is block-buffered and stderr is not; a traced run
    # flushes each printed line, so it follows its ex:7 line
    done = subprocess.run(
        [sys.executable, "-m", "cmod", "run", "--trace", str(CORPUS / "emp_bank.cmod")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(), text=True, timeout=60,
    )
    lines = done.stdout.splitlines()
    printed = [i for i, line in enumerate(lines) if not TRACE_LINE.match(line)]
    assert done.returncode == 0 and [lines[i] for i in printed] == ["31", "40", "22"]
    assert all(lines[i - 1].lstrip().startswith("ex:7 print(") for i in printed)


def test_dump_state_table(tmp_path, capsys):
    # a failing body frees its region too
    for source, exit_code in [("(a = new int[3] => a[0] = 5); x = 42", 0),
                              ("x = 42; (a = new int[3] => (a[0] = 5; nope()))", 1)]:
        code = main(["run", write(tmp_path, source), "--dump-state"])
        captured = capsys.readouterr()
        assert code == exit_code
        assert "-- store --" in captured.out
        assert "x = 42" in captured.out
        assert captured.out.endswith("-- regions: 1 allocated, 0 live --\n")


def test_dump_state_lists_the_live_regions(capsys):
    machine = Machine()
    machine.regions.free(machine.regions.allocate("int", 2))
    machine.regions.allocate("int", 3)
    _dump_state(machine)
    assert capsys.readouterr().out == "-- store --\n-- regions: 2 allocated, 1 live --\n1 int 3\n"


def test_fmt_emits_canonical_reparseable_text(capsys):
    code = main(["fmt", str(CORPUS / "emp_bank.cmod")])
    captured = capsys.readouterr()
    assert code == 0
    original = parse_source((CORPUS / "emp_bank.cmod").read_text(encoding="utf-8"))
    assert parse_source(captured.out) == original


def test_fmt_syntax_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "module broken")
    code = main(["fmt", path])
    capsys.readouterr()
    assert code == 2


def test_fmt_handles_a_long_statement_chain(tmp_path, capsys):
    path = write(tmp_path, "x = 1;\n" * 4999 + "x = 1")
    code = main(["fmt", path])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("x = 1") == 5000


def test_huge_region_length_is_a_region_fault_not_a_memory_error(tmp_path, capsys):
    path = write(tmp_path, "(p = new int[100000000000] => print(1))")
    code = main(["run", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("cmod: region fault: region length 100000000000 exceeds")


# x ends with more digits than str() converts: 10**9 squared nine times
HUGE = "x = 1000000000; " + "x = x * x; " * 9
BITS = ((10**9) ** 2**9).bit_length()


@pytest.mark.parametrize(
    "tail, code, out, err",
    [
        ("print(x)", 0, f"<int of {BITS} bits>\n", ""),
        ("print(0 - x)", 0, f"<negative int of {BITS} bits>\n", ""),
        ("(p(a) = q() => p(x))", 1, "", f"cmod: no matching clause: q/0 (call chain: q() <- p(<int of {BITS} bits>))\n"),
        ("y = x / 0", 3, "", f"cmod: division by zero: <int of {BITS} bits> / 0\n"),
        ("(r = new int[0 - x] => true)", 3, "", f"cmod: region fault: negative region length <negative int of {BITS} bits>\n"),
        (
            "(r = new int[x] => true)", 3, "",
            f"cmod: region fault: region length <int of {BITS} bits> exceeds the limit of 16777216\n",
        ),
        (
            "(r = new int[1] => r[x] = 1)", 3, "",
            f"cmod: region fault: bounds: index <int of {BITS} bits> outside region 0 of length 1\n",
        ),
    ],
    ids=["print", "print-negative", "call-chain", "division", "negative-length", "long-length", "bounds"],
)
def test_a_huge_integer_is_rendered_by_its_size(tmp_path, capsys, tail, code, out, err):
    assert main(["run", write(tmp_path, HUGE + tail)]) == code
    assert capsys.readouterr() == (out, err)


def test_a_huge_integer_in_the_dump_and_the_trace(tmp_path, capsys):
    assert main(["run", write(tmp_path, HUGE + "(p(a) = true => p(x))"), "--dump-state", "--trace"]) == 0
    captured = capsys.readouterr()
    assert f"x = <int of {BITS} bits>\n" in captured.out
    assert f"bc:1 p(<int of {BITS} bits>) = (true)\n" in captured.err


def test_unexpected_exception_is_an_internal_error_exit_3(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr("cmod.cli.run_source", broken)
    code = main(["run", write(tmp_path, "x = 1")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "cmod: internal error: ValueError: boom\n"


class Stream:
    def __init__(self, name, events):
        self.name, self.events = name, events

    def write(self, text):
        self.events.append((self.name, text))

    def flush(self):
        self.events.append((self.name, "flush"))


def test_an_internal_error_keeps_the_output_written_before_it(tmp_path, monkeypatch):
    events = []

    def broken(source, max_depth, trace, write):
        write("1\n")
        raise ValueError("boom")

    monkeypatch.setattr("cmod.cli.run_source", broken)
    monkeypatch.setattr(sys, "stdout", Stream("stdout", events))
    monkeypatch.setattr(sys, "stderr", Stream("stderr", events))
    assert main(["run", write(tmp_path, "x = 1")]) == 3
    assert events == [("stdout", "1\n"), ("stderr", "cmod: internal error: ValueError: boom\n"),
                      ("stderr", "flush"), ("stdout", "flush")]


# -- REPL ---------------------------------------------------------------------


def repl(monkeypatch, capsys, lines):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = main(["repl"])
    return code, capsys.readouterr()


def test_repl_store_inspection(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["x = 1", ":store", ":quit"])
    assert code == 0
    assert "x = 1" in captured.out
    assert "ok" in captured.out


def test_a_repl_entry_keeps_no_line_it_printed(capsys):
    from cmod.cli import _repl_entry
    from cmod.machine import Machine

    machine = Machine(write=sys.stdout.write)  # as the REPL builds it
    for source in ("print(1)", "print(2)"):
        _repl_entry(machine, source)
        assert machine.output == []
    assert capsys.readouterr().out == "1\nok\n2\nok\n"


def test_repl_error_does_not_kill_the_session(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["p()", "x = 2", ":store", ":quit"])
    assert code == 0
    assert "no matching clause: p/0" in captured.out
    assert "x = 2" in captured.out


@pytest.mark.parametrize("source", BAD_INTEGERS, ids=["superscript", "arabic-indic", "overlong"])
def test_repl_bad_integer_literal_is_a_syntax_error_not_the_end(monkeypatch, capsys, source):
    code, captured = repl(monkeypatch, capsys, [source, "x = 2", ":store", ":quit"])
    assert code == 0
    assert "syntax error: 1:5: " in captured.out
    assert "x = 2" in captured.out


def test_repl_multiline_module_paste_and_run(monkeypatch, capsys):
    lines = [
        "module Ev.",
        "Even(x) = if (x == 0) true else (Od => Odd(x - 1))",
        "end",
        "module Od.",
        "Odd(x) = if (x == 1) true else (Ev => Even(x - 1))",
        "end",
        "(/Ev => Even(8))",
        ":quit",
    ]
    code, captured = repl(monkeypatch, capsys, lines)
    assert code == 0
    assert "defined /Ev" in captured.out
    assert "defined /Od" in captured.out
    assert "ok" in captured.out


def test_repl_parses_a_long_statement_chain(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["; ".join(["x = 1"] * 5000), ":quit"])
    assert code == 0
    assert captured.out.splitlines()[1:] == ["cmod> ok", "cmod> "]
    assert captured.err == ""


def test_repl_store_shows_a_huge_integer_by_its_size(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, [HUGE + "true", ":store", ":quit"])
    assert code == 0
    assert f"x = <int of {BITS} bits>" in captured.out


def test_repl_reset_clears_the_store(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["x = 1", ":reset", ":store", ":quit"])
    assert code == 0
    assert "machine reset" in captured.out
    assert "(empty)" in captured.out


def test_repl_blank_line_flushes_a_stuck_buffer(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["x = 1 +", "", ":quit"])
    assert code == 0
    assert "syntax error" in captured.out


def test_repl_blank_lines_with_nothing_buffered_print_nothing(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["", "   ", "\t", "print(1)", ":quit"])
    assert code == 0
    assert captured.out.split("\n", 1)[1] == "cmod> " * 4 + "1\nok\ncmod> "


def test_repl_eof_is_a_clean_exit(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["x = 1"])
    assert code == 0


def test_repl_stack_is_an_unknown_command(monkeypatch, capsys):
    # execute pops every frame it pushed, so there was never a stack to show
    code, captured = repl(monkeypatch, capsys, ["(p() = true => p())", ":stack", ":quit"])
    assert code == 0
    assert "unknown command :stack" in captured.out and ":stack" not in captured.out.splitlines()[0]


def test_repl_macros_listing(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["macro /m = { f() = true }", ":macros", ":quit"])
    assert code == 0
    assert "/m" in captured.out


def test_repl_macros_lists_each_defined_name_once_in_definition_order(monkeypatch, capsys):
    lines = ["macro /m = { f() = true }", "module M. g() = true end", "macro /m = { h() = true }", ":macros", ":quit"]
    code, captured = repl(monkeypatch, capsys, lines)
    assert code == 0
    assert "cmod> /m /M\n" in captured.out


def test_repl_continues_a_macro_group_after_and(monkeypatch, capsys):
    lines = ["macro /m = { f() = true } and", "/n = { g() = true } in (m => f())", ":quit"]
    code, captured = repl(monkeypatch, capsys, lines)
    assert code == 0
    assert captured.out.splitlines()[1:] == ["cmod> ....> ok", "cmod> "]


def test_repl_trace_flag_streams_to_stderr(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("(p() = true => p())\n:quit\n"))
    code = main(["repl", "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    assert TRACE_LINE.match(captured.err.splitlines()[0])
    assert "bc:1" in captured.err


@pytest.fixture
def main_thread_only(monkeypatch):
    """The interpreter's default recursion limit, and no thread can start."""

    def cannot_start(self):
        raise RuntimeError("no thread may start")

    monkeypatch.setattr(threading.Thread, "start", cannot_start)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


DEEP = 100000
DEEP_NEGATION = "x = " + "-" * DEEP + "1; print(x)"
DEEP_PARENS = "x = " + "(" * DEEP + "1" + ")" * DEEP + "; print(x)"
DEEP_GROUPS = "s = 0; " + "(s = s + 1; " * DEEP + "print(s)" + ")" * DEEP  # each group holds the next


def same_tree(a, b) -> bool:
    """a == b for trees too deep for Node.__eq__, which recurses."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if type(a) is not type(b):
            return False
        if type(a) in (tuple, list):
            if len(a) != len(b):
                return False
            pairs += zip(a, b)
        elif hasattr(a, "__match_args__"):
            pairs += ((getattr(a, f), getattr(b, f)) for f in a.__match_args__)
        elif a != b:
            return False
    return True


LEX_AFTER_SYNTAX = ["x = ; y = 1 $", "(" * 100000 + "x = 1" + "$"]


@pytest.mark.parametrize("source", LEX_AFTER_SYNTAX, ids=["syntax", "nesting"])
@pytest.mark.parametrize("command", ["run", "fmt"])
def test_a_lex_error_after_a_syntax_error_is_the_one_reported(tmp_path, capsys, monkeypatch, command, source):
    code = main([command, write(tmp_path, source)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured == ("", f"cmod: syntax error: 1:{len(source)}: unexpected character '$'\n")


@pytest.mark.parametrize("source", LEX_AFTER_SYNTAX, ids=["syntax", "nesting"])
def test_repl_reports_a_lex_error_after_a_syntax_error(monkeypatch, capsys, source):
    code, captured = repl(monkeypatch, capsys, [source, ":quit"])
    assert code == 0
    assert f"syntax error: 1:{len(source)}: unexpected character '$'\n" in captured.out


@pytest.mark.parametrize("source, out", [(DEEP_PARENS, "1\n"), (DEEP_GROUPS, f"{DEEP}\n")], ids=["parens", "groups"])
def test_deep_nesting_runs_on_the_main_thread(tmp_path, capsys, main_thread_only, source, out):
    code = main(["run", write(tmp_path, source)])
    assert code == 0
    assert capsys.readouterr() == (out, "")


def test_a_deep_negation_runs_on_the_main_thread(tmp_path, capsys, main_thread_only):
    code = main(["run", write(tmp_path, DEEP_NEGATION)])
    assert code == 0
    assert capsys.readouterr() == ("1\n", "")


def test_repl_runs_a_deep_negation_on_the_main_thread(monkeypatch, capsys, main_thread_only):
    code, captured = repl(monkeypatch, capsys, [DEEP_NEGATION, "print(7)", ":quit"])
    assert code == 0
    assert "syntax error" not in captured.out
    assert captured.out.endswith("1\nok\ncmod> 7\nok\ncmod> ")


def test_fmt_of_a_deep_sum_reparses_equal_on_the_main_thread(tmp_path, capsys, main_thread_only):
    source = "x = " + "1 + (" * 10000 + "1" + ")" * 10000
    code = main(["fmt", write(tmp_path, source)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert same_tree(parse_source(captured.out), parse_source(source))


def test_deep_recursion_runs_on_the_main_thread(tmp_path, capsys, main_thread_only):
    path = write(tmp_path, "(Loop(n) = if (n == 0) (done = 1) else (Loop(n - 1)) => Loop(600))")
    code = main(["run", path, "--dump-state"])
    captured = capsys.readouterr()
    assert code == 0
    assert "done = 1" in captured.out and captured.err == ""


def test_a_session_keeps_no_clause_table_or_renaming_between_entries(capsys):
    # Each entry pushes a declaration and a renamed one; with no frame left
    # after an entry, its tables and renamings go.
    machine = Machine()
    entry = "(p() = true => p()); (ren(h, g) (h() = true) => g())"
    sizes = []
    for _ in range(300):
        _repl_entry(machine, entry)
        sizes.append((len(machine.tables), len(machine.renamed)))
    capsys.readouterr()
    assert sizes[99] == sizes[299]


def test_ctrl_c_during_a_traced_run_exits_130(tmp_path):
    calls = "; ".join(["Loop(100)"] * 3000)
    path = write(tmp_path, f"(Loop(k) = if (k == 0) true else Loop(k - 1) => ({calls}))")
    child = subprocess.Popen(
        [sys.executable, "-m", "cmod", "run", "--trace", path],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=child_env(),
    )
    try:
        first = child.stderr.readline().decode()
        assert TRACE_LINE.match(first)
        child.send_signal(signal.SIGINT)
        err = first + child.communicate(timeout=10)[1].decode()  # the interrupt may come right after it
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 130
    assert err.endswith("\ncmod: interrupted\n")  # the run stopped before the message
    assert "Traceback" not in err and "Fatal" not in err


def test_ctrl_c_keeps_the_lines_printed_before_it(tmp_path):
    # Output is written as it is printed, so an interrupt loses none of it. The
    # recursion would take about a million levels to end: a run that holds its output
    # back shows none within the wait.
    path = write(tmp_path, "(P(n) = (print(n); P(n + 1)) => P(0))")
    child = subprocess.Popen(  # a pipe, as usual, buffers
        [sys.executable, "-m", "cmod", "run", "--max-depth", "1000000", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), bufsize=0,  # readline takes only its line
    )
    try:
        assert select.select([child.stdout], [], [], 5)[0], "no output within 5 s"
        first = child.stdout.readline()
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=10)
    finally:
        child.kill()
        child.wait()
    lines = (first + out).decode().splitlines()
    assert child.returncode == 130 and err.decode().endswith("cmod: interrupted\n")
    assert first == b"0\n" and lines == [str(i) for i in range(len(lines))]


def test_ctrl_c_keeps_the_output_still_buffered(tmp_path):
    # The three lines are still in stdout's buffer when the interrupt comes, so they
    # reach the pipe only if main flushes after the interrupt. The recursion would take
    # 100,000,000 levels to end.
    path = write(tmp_path, "print(1); print(2); print(3); (L() = L() => L())")
    child = subprocess.Popen([sys.executable, "-m", "cmod", "run", "--max-depth", "100000000", path],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        time.sleep(1)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=10)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, out, err) == (130, b"1\n2\n3\n", b"cmod: interrupted\n")


def test_ctrl_c_at_the_repl_prompt_exits_130(monkeypatch, capsys):
    def interrupt(prompt):
        raise KeyboardInterrupt

    monkeypatch.setattr("builtins.input", interrupt)
    code = main(["repl"])
    assert code == 130
    assert capsys.readouterr().err == "cmod: interrupted\n"


# The process exit: `python -m cmod` and the installed `cmod` script both end through
# cli.entry, which ends with main's code without interpreter teardown.

def cmod_child(argv, stdout=subprocess.PIPE, buffered=True):
    return subprocess.run([sys.executable, "-m", "cmod", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          env=child_env(buffered), text=True, timeout=60)


def test_a_child_writes_every_printed_line_to_a_file(tmp_path):
    path = write(tmp_path, "(Row(n) = if (n == 0) true else (print(n); Row(n - 1)) => Row(20000))")
    with open(tmp_path / "out.txt", "wb") as out:
        done = cmod_child(["run", "--max-depth", "20001", path], stdout=out)
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "out.txt").read_bytes() == "".join(f"{n}\n" for n in range(20000, 0, -1)).encode()


@pytest.mark.parametrize("source, code, err", [
    ("print(1); Age(tom)", 1, "cmod: no matching clause: Age/1 (call chain: Age(tom))\n"),
    ("print(1); y = Zz", 3, "cmod: unbound variable: variable 'Zz' is not bound\n"),
], ids=["no-clause", "unbound"])
def test_a_failing_child_keeps_its_output_and_diagnostic(tmp_path, source, code, err):
    done = cmod_child(["run", write(tmp_path, source)])
    assert (done.returncode, done.stdout, done.stderr) == (code, "1\n", err)


def test_a_child_exits_0_on_help_and_2_on_a_usage_error():
    done = cmod_child(["--help"])
    assert (done.returncode, done.stderr) == (0, "") and done.stdout.startswith("usage:")
    done = cmod_child(["run"])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("cmod: error: the following arguments are required: file\n")


def test_the_entry_exits_with_the_code_main_returns(monkeypatch):
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(os, "_exit", lambda status: events.append(("exit", status)))
    cli.entry()
    assert events == ["main", ("exit", 3)]


def test_the_console_script_is_the_entry_python_m_cmod_calls(monkeypatch):
    # a line match, not tomllib: Python 3.10 has none
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^cmod = "cmod\.cli:(\w+)"$', scripts, re.M)
    assert target, scripts
    calls = []
    monkeypatch.setattr(cli, target.group(1), lambda: calls.append("called"))
    runpy.run_module("cmod", run_name="__main__")
    assert calls == ["called"]


# A write that fails, while the program runs or in the final flush, is an output
# failure: exit 3 and one line on stderr. A diagnostic that cannot be written changes
# no exit code.
BROKEN_PIPE = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
NO_SPACE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
BUFFERED = pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
DEEP_TRACE = "(R(n) = if (n == 0) true else R(n - 1) => R(3000))"


def broken_child(argv, fd, target, buffered):
    """A `python -m cmod` child whose stdout (fd 1) or stderr (fd 2) is a pipe whose
    reader is gone before the first write, /dev/full, or closed; the other is captured."""
    read_end, dead = os.pipe()
    os.close(read_end)
    redirect = {"pipe": f">&{dead}", "full": ">/dev/full", "closed": ">&-"}[target]
    try:
        # bash: sh may not redirect to a descriptor above 9
        return subprocess.run(["bash", "-c", f'exec "$0" -m cmod "$@" {fd}{redirect}', sys.executable, *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(dead,),
                              env=child_env(buffered), text=True, timeout=60)
    finally:
        os.close(dead)


@BUFFERED
@pytest.mark.parametrize("argv, target, reason", [
    (["run", "{prog}"], "pipe", BROKEN_PIPE),
    (["run", "{prog}"], "full", NO_SPACE),
    (["run", "{prog}"], "closed", "standard output is closed"),
    (["-h"], "pipe", BROKEN_PIPE),
    (["-h"], "full", NO_SPACE),
    (["-h"], "closed", "standard output is closed"),
], ids=["pipe", "full", "closed", "help-pipe", "help-full", "help-closed"])
def test_output_that_cannot_be_written_ends_in_its_own_diagnostic(tmp_path, buffered, argv, target, reason):
    prog = write(tmp_path, "print(1)")
    done = broken_child([word.format(prog=prog) for word in argv], 1, target, buffered)
    assert (done.returncode, done.stderr) == (3, f"cmod: cannot write output: {reason}\n")


@BUFFERED
@pytest.mark.parametrize("target", ["pipe", "full", "closed"])
@pytest.mark.parametrize("argv, source, code, out", [
    (["run", "{prog}"], "x = = 1", 2, ""),
    (["run", "{prog}"], "print(1); Age(tom)", 1, "1\n"),
    (["run", "{prog}"], "print(1); y = Zz", 3, "1\n"),
    (["run", "{prog}.missing"], "", 2, ""),
    (["go", "{prog}"], "", 2, ""),
    (["run", "--trace", "{prog}"], DEEP_TRACE, 3, ""),  # the trace is output: it fails at its first line
], ids=["syntax", "no-clause", "unbound", "missing", "usage", "trace"])
def test_a_diagnostic_that_cannot_be_written_changes_no_exit_code(tmp_path, buffered, target, argv, source, code, out):
    prog = write(tmp_path, source)
    done = broken_child([word.format(prog=prog) for word in argv], 2, target, buffered)
    assert (done.returncode, done.stdout) == (code, out)


@BUFFERED
def test_a_trace_into_a_pipe_read_for_one_line_exits_3(tmp_path, buffered):
    # as `cmod run --trace prog 2>&1 | head -1`
    read_end, write_end = os.pipe()
    child = subprocess.Popen([sys.executable, "-m", "cmod", "run", "--trace", write(tmp_path, DEEP_TRACE)],
                             stdout=write_end, stderr=write_end, env=child_env(buffered))
    os.close(write_end)
    with open(read_end, "rb") as reader:
        assert TRACE_LINE.match(reader.readline().decode())
    assert child.wait(timeout=60) == 3


class Broken(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class Interrupted(io.StringIO):
    def flush(self):
        raise KeyboardInterrupt


@pytest.mark.parametrize("stdout, code, err", [
    (Broken, 3, f"cmod: cannot write output: {BROKEN_PIPE}\n"),
    (Interrupted, 130, "cmod: interrupted\n"),  # Ctrl-C while the last output is flushed
], ids=["write", "flush"])
def test_a_write_or_flush_that_fails_is_reported_in_process(monkeypatch, tmp_path, capsys, stdout, code, err):
    monkeypatch.setattr(sys, "stdout", stdout())
    assert (main(["run", write(tmp_path, "print(1)")]), capsys.readouterr().err) == (code, err)
