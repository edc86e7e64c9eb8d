import io
import re

import pytest

from cmod.cli import main
from cmod.parser import parse_source
from conftest import CORPUS

TRACE_LINE = re.compile(r"^(?P<indent>(?:  )*)(?P<phase>ex|bc):(?P<rule>\d+) \S")


def write(tmp_path, text, name="prog.cmod"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_emp_bank_golden(capsys):
    code = main(["run", str(CORPUS / "emp_bank.cmod")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "31\n40\n22\n"
    assert captured.err == ""


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


def test_depth_exceeded_exits_3(tmp_path, capsys):
    path = write(tmp_path, "(loop() = loop() => loop())")
    code = main(["run", path, "--max-depth", "50"])
    captured = capsys.readouterr()
    assert code == 3
    assert "depth" in captured.err


def test_max_depth_must_be_positive(tmp_path):
    path = write(tmp_path, "true")
    with pytest.raises(SystemExit):
        main(["run", path, "--max-depth", "0"])


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


def test_dump_state_table(tmp_path, capsys):
    path = write(tmp_path, "(a = new int[3] => a[0] = 5); x = 42")
    code = main(["run", path, "--dump-state"])
    captured = capsys.readouterr()
    assert code == 0
    assert "-- store --" in captured.out
    assert "x = 42" in captured.out
    assert "id gen type length live" in captured.out
    assert "0 1 int 3 false" in captured.out


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


def test_repl_error_does_not_kill_the_session(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["p()", "x = 2", ":store", ":quit"])
    assert code == 0
    assert "no matching clause: p/0" in captured.out
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


def test_repl_reset_clears_the_store(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["x = 1", ":reset", ":store", ":quit"])
    assert code == 0
    assert "machine reset" in captured.out
    assert "(empty)" in captured.out


def test_repl_blank_line_flushes_a_stuck_buffer(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["x = 1 +", "", ":quit"])
    assert code == 0
    assert "syntax error" in captured.out


def test_repl_eof_is_a_clean_exit(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["x = 1"])
    assert code == 0


def test_repl_stack_between_statements_is_empty(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["(p() = true => p())", ":stack", ":quit"])
    assert code == 0
    assert "(empty)" in captured.out


def test_repl_macros_listing(monkeypatch, capsys):
    code, captured = repl(monkeypatch, capsys, ["macro /m = { f() = true }", ":macros", ":quit"])
    assert code == 0
    assert "/m" in captured.out


def test_repl_trace_flag_streams_to_stderr(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("(p() = true => p())\n:quit\n"))
    code = main(["repl", "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    assert TRACE_LINE.match(captured.err.splitlines()[0])
    assert "bc:1" in captured.err
