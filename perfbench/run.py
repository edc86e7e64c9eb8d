"""cmod benchmark: seeded workloads run through ``cmod run``.

Usage, from the repository root:

    python3 perfbench/run.py --workload recursion --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every program of the workload runs as its own
``cmod run`` process, one after another (a closed loop with one client),
in passes until ``--seconds`` have gone by, and the end-to-end metrics are
reported. With ``--trace 1`` the per-layer metrics are reported instead:
interpreter start-up probes, scaling ratios from untraced subprocess
passes, and one traced in-process pass (see tracing.py). Every output is
checked against an oracle from programs.py. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # the checkout stays clean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import programs  # noqa: E402

WORK = HERE / ".work"
OUT = HERE / ".out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60.0
PROBE_REPEATS = 5
SCALE_PASSES = 5
TRACE_LINE = re.compile(rb"(?:  )*(?:ex|bc):\d+ ")
WARM_PROGRAM = "(W(k) = (v = k) => (W(1); print(v)))\n"
EMPTY = programs.Program("empty", 1, "true\n", "")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio", "setup_s": "s"}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no cmod sources, or cmod
    fails on the warm-up program)."""


def check_checkout() -> None:
    for needed in (ROOT / "src" / "cmod" / "__init__.py", ROOT / "corpus"):
        if not needed.exists():
            raise SetupError(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")


def child_env(cache: Path, write_bytecode: bool = False) -> dict:
    """The caller's environment without its PYTHON* settings (such as
    PYTHONUNBUFFERED, which doubles the writes of a trace), so children
    run the same whoever starts the benchmark."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _steal_ticks() -> dict[int, int]:
    """Per-CPU time the host has taken from this VM so far (/proc/stat)."""
    ticks = {}
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            name, *fields = line.split()
            if name[3:].isdigit() and name.startswith("cpu") and len(fields) >= 8:
                ticks[int(name[3:])] = int(fields[7])
    return ticks


def pin_to_quietest_cpu() -> None:
    """Run the benchmark, and every child it starts, on the CPU the host
    has taken least time from over the last second.

    On a small shared VM the host takes time from one virtual CPU more
    than another, for minutes at a time, and wall time counts it. On one
    CPU a child and the parent draining its pipe also hand it over
    without cross-CPU wake-ups (unpinned, the trace workload's times
    spread by a fifth). Pinning acts only on this process and its
    children."""
    allowed = sorted(os.sched_getaffinity(0))
    try:
        before = _steal_ticks()
        time.sleep(1.0)
        after = _steal_ticks()
        cpu = min(allowed, key=lambda c: (after.get(c, 0) - before.get(c, 0), -c))
    except OSError:  # no /proc/stat
        cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})


def cmod_argv(path: Path, trace: bool = False) -> list[str]:
    return [sys.executable, "-m", "cmod", "run"] + (["--trace"] if trace else []) + [str(path)]


class Setup:
    """Everything done before timing starts: generate the workload's
    programs from the seed (with their expected outputs), write them to a
    fresh work directory, and fill a bytecode cache for the child
    interpreters by running cmod once with writing enabled.

    The cache lives under the benchmark's own work directory, never in
    the source tree; children read it with PYTHONPYCACHEPREFIX, as an
    installed cmod would read its compiled modules.
    """

    def __init__(self, workload: str, seed: int, scale: float):
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
        self.cache = self.dir / "pycache"
        self.programs: list[programs.Program] = []
        self.paths: list[Path] = []
        for prog in programs.workload_programs(workload, seed, ROOT, scale):
            self.add(prog)
        warm = self.dir / "warm.cmod"
        warm.write_text(WARM_PROGRAM, encoding="utf-8")
        done = subprocess.run(
            cmod_argv(warm), env=child_env(self.cache, write_bytecode=True),
            capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if done.returncode != 0 or done.stdout != b"1\n":
            raise SetupError(f"cmod failed on the warm-up program: {done.stderr.decode()[-500:]}")
        self.env = child_env(self.cache)

    def add(self, prog: programs.Program) -> None:
        path = self.dir / f"{len(self.paths):02d}-{prog.key}.cmod"
        path.write_text(prog.source, encoding="utf-8")
        self.programs.append(prog)
        self.paths.append(path)

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def timed_setup(workload: str, seed: int, scale: float) -> tuple[Setup, float]:
    """Set up SETUP_REPEATS times from scratch; keep the last, report the
    median duration."""
    durations, setup = [], None
    for _ in range(SETUP_REPEATS):
        if setup is not None:
            setup.remove()
        start = time.perf_counter()
        setup = Setup(workload, seed, scale)
        durations.append(time.perf_counter() - start)
    return setup, statistics.median(durations)


# ---------------------------------------------------------------------------
# Subprocess runs
# ---------------------------------------------------------------------------


class TraceCounter:
    """Counts bytes and lines of a --trace stream as it is drained, and
    checks each line's shape, without keeping the stream."""

    def __init__(self):
        self.bytes = 0
        self.lines = 0
        self.bad_lines = 0
        self._head = b""  # the current, unfinished line

    def feed(self, chunk: bytes) -> None:
        self.bytes += len(chunk)
        parts = chunk.split(b"\n")
        for part in parts[:-1]:
            self._end_line(self._head + part)
            self._head = b""
        self._head += parts[-1]

    def _end_line(self, head: bytes) -> None:
        self.lines += 1
        if not TRACE_LINE.match(head):
            self.bad_lines += 1

    def close(self) -> None:
        if self._head:  # output not ending in a newline
            self.lines += 1
            self.bad_lines += 1


@dataclass
class RunResult:
    why: str  # empty when the run passed its oracle
    wall_s: float
    maxrss_kb: int
    cpu_s: float  # user + system time of the child
    trace_bytes: int


def run_program(prog: programs.Program, path: Path, setup: Setup) -> RunResult:
    """One ``cmod run`` process; stdout goes to a file, a --trace stream
    is drained and counted through a pipe."""
    out_path = path.with_suffix(".stdout")
    err_path = path.with_suffix(".stderr")
    counter = TraceCounter() if prog.trace else None
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        child = subprocess.Popen(
            cmod_argv(path, prog.trace), env=setup.env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=out, stderr=subprocess.PIPE if counter else err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        try:
            if counter:
                while chunk := child.stderr.read(1 << 20):
                    counter.feed(chunk)
                counter.close()
                child.stderr.close()
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    # reaped by wait4 above; tell Popen so it does not wait again
    child.returncode = code = os.waitstatus_to_exitcode(status)

    stdout = out_path.read_bytes().decode("utf-8", "replace")
    why = ""
    if code != prog.exit_code:
        why = f"exit {code}, expected {prog.exit_code}: {err_path.read_bytes()[-200:]!r}"
    elif stdout != prog.stdout:
        why = f"stdout {stdout[:80]!r}, expected {prog.stdout[:80]!r}"
    elif counter and (counter.lines != prog.trace_lines or counter.bad_lines):
        why = f"trace has {counter.lines} lines ({counter.bad_lines} malformed), expected {prog.trace_lines}"
    cpu = usage.ru_utime + usage.ru_stime
    return RunResult(why, wall, usage.ru_maxrss, cpu, counter.bytes if counter else 0)


class Passes:
    """Repeated passes over a workload's programs, each pass in its own
    seeded order, so families and sizes interleave and a slow phase of
    the machine lands on n and 2n alike."""

    def __init__(self, setup: Setup, seed: int):
        self.setup = setup
        self.rng = random.Random(f"order:{seed}")
        self.pass_walls: list[float] = []
        self.pass_rss_mb: list[float] = []
        self.runs: list[list[RunResult]] = [[] for _ in setup.programs]
        self.attempted = 0
        self.failures: list[str] = []

    def run_until(self, deadline: float, min_passes: int = 1) -> None:
        while len(self.pass_walls) < min_passes or time.perf_counter() < deadline:
            self.one_pass()

    def one_pass(self) -> None:
        order = list(range(len(self.setup.programs)))
        self.rng.shuffle(order)
        peak_kb = 0
        start = time.perf_counter()
        for i in order:
            prog = self.setup.programs[i]
            result = run_program(prog, self.setup.paths[i], self.setup)
            self.attempted += 1
            if result.why:
                self.failures.append(f"{prog.key}: {result.why}")
            self.runs[i].append(result)
            peak_kb = max(peak_kb, result.maxrss_kb)
        self.pass_walls.append(time.perf_counter() - start)
        self.pass_rss_mb.append(peak_kb / 1024)


def probe(argv: list[str], env: dict) -> float:
    """Median wall time of PROBE_REPEATS runs of a short child process."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                       timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    setup, setup_s = timed_setup(workload, seed, scale)
    try:
        passes = Passes(setup, seed)
        passes.run_until(time.perf_counter() + seconds)
    finally:
        setup.remove()
    failed = len(passes.failures)
    values = {
        "wall_s": statistics.median(passes.pass_walls),
        "peak_rss_mb": statistics.median(passes.pass_rss_mb),
        "ok_ratio": (passes.attempted - failed) / passes.attempted,
        "setup_s": setup_s,
    }
    info = {"pass_walls_s": [round(w, 3) for w in passes.pass_walls],
            "programs": len(setup.programs), "failures": passes.failures[:10]}
    return result_object(passes.attempted, failed,
                         {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, info)


def per_layer(workload: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    begin = time.perf_counter()
    setup, _ = timed_setup(workload, seed, scale)
    try:
        process_s = probe([sys.executable, "-c", "pass"], setup.env)
        import_s = probe([sys.executable, "-c", "import cmod.cli"], setup.env)
        # The empty run joins the passes, so the start-up taken off in the
        # scaling ratios is measured under the same conditions.
        setup.add(EMPTY)
        passes = Passes(setup, seed)
        passes.run_until(begin + seconds, min_passes=SCALE_PASSES)
        # Tracing makes every event format its subject, which costs up to
        # fifteen times the untraced run, so the in-process passes take the
        # size-n programs only.
        layers = tracing.measure(size_n_programs(setup.programs[:-1]))
    finally:
        setup.remove()

    empty_runs = passes.runs[-1]
    empty_run_s = statistics.median(r.wall_s for r in empty_runs)
    empty_cpu_s = statistics.median(r.cpu_s for r in empty_runs)
    values = dict(layers.values)
    values["cli.process_s"] = process_s
    values["cli.import_s"] = import_s - process_s
    values["cli.empty_run_s"] = empty_run_s
    for family in programs.FAMILIES:
        values[f"scale.{family}"] = scale_ratio(setup.programs, passes, family, empty_cpu_s)
    values["printer.trace_bytes_growth"] = trace_growth(setup.programs, passes)

    failures = layers.failures + passes.failures
    attempted = layers.attempted + passes.attempted
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-{seed}.json"
    layers.write_spans(spans_file)
    info = {"pass_walls_s": [round(w, 3) for w in passes.pass_walls],
            "spans": str(spans_file.relative_to(ROOT)),
            "failures": failures[:10]}
    metrics = {name: metric(values[name], unit) for name, unit in tracing.per_layer_units().items()}
    return result_object(attempted, len(failures), metrics, info)


def size_n_programs(progs: list[programs.Program]) -> list[programs.Program]:
    """The smaller size of every family (and every corpus program)."""
    smallest: dict[str, int] = {}
    for prog in progs:
        smallest[prog.family] = min(prog.size, smallest.get(prog.family, prog.size))
    return [prog for prog in progs if prog.size == smallest[prog.family]]


def n_and_2n(progs: list[programs.Program], family: str) -> tuple[int, int] | None:
    """Indexes of a family's size-n and size-2n programs, if it has both."""
    found = sorted((prog.size, i) for i, prog in enumerate(progs) if prog.family == family)
    return (found[0][1], found[1][1]) if len(found) == 2 else None


def scale_ratio(progs, passes: Passes, family: str, start_cpu_s: float) -> float:
    """t(2n)/t(n) for one family, where t is the median CPU time of its
    untraced subprocess runs less that of the empty run: without start-up,
    which would dilute the ratio, and without time stolen from the
    machine, which wall time includes. 0 when the family is not in this
    workload."""
    pair = n_and_2n(progs, family)
    if pair is None:
        return 0.0
    small, large = (statistics.median(r.cpu_s for r in passes.runs[i]) - start_cpu_s for i in pair)
    return large / max(small, 1e-3)


def trace_growth(progs, passes: Passes) -> float:
    """Bytes of --trace output at 2n over those at n, as drained from the
    children; 0 when the workload runs nothing traced."""
    small = large = 0
    for family in {prog.family for prog in progs if prog.trace}:
        i, j = n_and_2n(progs, family)
        small += passes.runs[i][-1].trace_bytes
        large += passes.runs[j][-1].trace_bytes
    return large / small if small else 0.0


def result_object(attempted: int, failed: int, metrics: dict, info: dict) -> dict:
    info.update({
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "bytecode_cache": "warm, PYTHONPYCACHEPREFIX under perfbench/.work, filled during set-up",
    })
    return {"info": info, "result": {
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(programs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        pin_to_quietest_cpu()
        measure = per_layer if args.trace else end_to_end
        out = measure(args.workload, args.seed, args.seconds)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("# " + json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
