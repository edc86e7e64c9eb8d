"""Run cmod on seven large programs, each in its own child process, and gate
on what each child exits with, prints and, for two of them, its peak RSS.

    python3 tests/stress.py >> "$GITHUB_STEP_SUMMARY"

One line per program goes to stdout: its exit status, its wall time and the
child's own maxrss, read with os.wait4 on its pid (RUSAGE_CHILDREN would be a
maximum over every child waited for, so one program's peak would show in the
next one's gate). The wall times, and the maxrss of a program without a
bound, are a report only. The script exits 1, naming each failed gate on
stderr, when a program exits or prints other than expected or its child's
maxrss is not under its bound.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (summary label, program text, extra `cmod run` options, expected stdout,
# maxrss bound in MB or None, what a maxrss over the bound means)
PROGRAMS = [
    # A 300,000-deep count loop runs to the end: call depth uses no Python stack.
    ("300k-deep count loop",
     "(Loop(n) = if (n == 0) true else (s = s + 1; Loop(n - 1)) => (s = 0; Loop(300000); print(s)))\n",
     ["--max-depth", "400000"], "300000\n", None, None),
    # 400,000 nested parentheses around a statement: parsing and running use no
    # Python stack for nesting, so this runs at the default recursion limit.
    ("400k nested parentheses", "(" * 400000 + "x = 1; print(x)" + ")" * 400000 + "\n", [], "1\n", None, None),
    # 200 sequential scopes of int[100000]: a freed region gives its cells back, so
    # the child's maxrss stays far below the 200 x 0.8 MB it would take to keep them.
    ("200 scopes of int[100000]",
     "(Many(k) = if (k == 0) true else ((p = new int[100000] => (p[99999] = k; s = s + p[99999])); Many(k - 1))"
     " => (s = 0; Many(200); print(s)))\n",
     [], "20100\n", 60, "freed regions are kept"),
    # 8,000 nested macro scopes: each binds its definitions in the one macro environment
    # and copies nothing, so the child's maxrss stays far below what the n(n+1)/2
    # entries of copied environments would take.
    ("8,000 nested macro scopes",
     "(Rec(n) = if (n == 0) true else (macro /m = { q() = (s = s + 1) } in (/m => (q(); Rec(n - 1))))"
     " => (s = 0; Rec(8000); print(s)))\n",
     [], "8000\n", 60, "macro environments are copied"),
    # 2,000 modules loaded at once by nested /Mi =>, around a 4,000-iteration loop that
    # calls the outermost module's procedure and itself: each of the 8,000 calls reads
    # the frames that declare its name, not every loaded module.
    ("2,000 loaded modules, 8,000 calls",
     "".join(f"module M{i}. f{i}() = true end\n" for i in range(2000))
     + "(Loop(n) = if (n == 0) true else (f0(); s = s + 1; Loop(n - 1)) => "
     + "".join(f"(/M{i} => " for i in range(2000)) + "(s = 0; Loop(4000); print(s))" + ")" * 2001 + "\n",
     [], "4000\n", None, None),
    # 1,000 modules loaded the same way, around a 1,000-iteration loop that enters a
    # macro scope per iteration: each scope rebuilds the one live table that reads the
    # name it defines (the outer iterations' /z), not every loaded module's.
    ("1,000 loaded modules, 1,000 macro scopes",
     "".join(f"module M{i}. f{i}() = true end\n" for i in range(1000))
     + "(Loop(n) = if (n == 0) true else (macro /z = { z() = true } in (f0(); z(); s = s + 1; Loop(n - 1))) => "
     + "".join(f"(/M{i} => " for i in range(1000)) + "(s = 0; Loop(1000); print(s))" + ")" * 1001 + "\n",
     [], "1000\n", None, None),
    # 8,000 macro scopes, one per iteration, each loading a top-level module: a lookup
    # is one read at any scope depth, and the module's cached table is kept while its
    # binding is unchanged, so no scope rebuilds it.
    ("8,000 macro scopes each loading a top-level module",
     "module M0. f0() = true end\n"
     "(Loop(n) = if (n == 0) true else (macro /z = { z() = true } in ((/M0 => f0()); s = s + 1; Loop(n - 1)))"
     " => (s = 0; Loop(8000); print(s)))\n",
     ["--max-depth", "400000"], "8000\n", None, None),
]


def run(path: Path, options: list[str]) -> tuple[int, str, str, float, float]:
    """Exit status, stdout, stderr, wall seconds and maxrss in MB of one `cmod run`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "cmod", "run", *options, str(path)],
                                 stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen waits no more
        out.seek(0)
        err.seek(0)
        return child.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, text, options, expected, bound, meaning in PROGRAMS:
            path = Path(tmp, "prog.cmod")
            path.write_text(text)
            code, stdout, stderr, wall, maxrss = run(path, options)
            print(f"{label}: exit {code}, {wall:.1f} s, child maxrss {maxrss:.0f} MB", flush=True)
            if (code, stdout, stderr) != (0, expected, ""):
                failures.append(f"{label}: unexpected result: {code} {stdout[-200:]!r} {stderr[-500:]!r}")
            if bound is not None and maxrss >= bound:
                failures.append(f"{label}: child maxrss {maxrss:.0f} MB, not under {bound} MB: {meaning}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
