"""Seeded cmod program generators, each paired with an oracle that does
not come from cmod.

Every generator takes a size n and a ``random.Random`` and returns a
``Program``: the source text cmod receives, plus the stdout and exit code
it must produce, computed here in Python from the generator's own
parameters. The seed changes names and constants, never the amount of
work, so run-to-run differences in a measurement are noise, not input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# cmod's default --max-depth; every recursive family stays below it
# (a count loop at n = 16000 exits 3 with depth-exceeded).
MAX_DEPTH = 10000


@dataclass(frozen=True)
class Program:
    family: str
    size: int
    source: str
    stdout: str
    exit_code: int = 0
    trace: bool = False
    # exact number of --trace lines, for traced programs
    trace_lines: int | None = None

    @property
    def key(self) -> str:
        return f"{self.family}-{self.size}"


def _name(rng: random.Random, prefix: str) -> str:
    return prefix + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------


def loop(n: int, rng: random.Random, trace: bool = False) -> Program:
    """Self-recursive count loop; every call substitutes its formal into
    the clause body. Under --trace it emits 5 lines per level plus 9."""
    assert n < MAX_DEPTH
    proc, acc, var = _name(rng, "Loop"), _name(rng, "s"), _name(rng, "k")
    start = rng.randint(0, 999)
    source = (
        f"({proc}({var}) = if ({var} == 0) true"
        f" else ({acc} = {acc} + {var}; {proc}({var} - 1)) =>\n"
        f"  ({acc} = {start}; {proc}({n}); print({acc})))\n"
    )
    return Program(
        "trace" if trace else "loop", n, source, f"{start + _triangle(n)}\n",
        trace=trace, trace_lines=5 * n + 9 if trace else None,
    )


WIDE_CLAUSES = 50


def wide(n: int, rng: random.Random) -> Program:
    """A module of 50 clauses whose recursive procedure is the last one,
    called under n levels of recursion: every call first fails to match
    the other 49 heads, and each failure copies the whole call stack."""
    assert 2 * n + 2 < MAX_DEPTH
    module, proc, acc = _name(rng, "W"), _name(rng, "Rec"), _name(rng, "s")
    down = _name(rng, "Down")
    others = [f"{_name(rng, 'P')}{i}() = ({_name(rng, 'v')} = {i})" for i in range(WIDE_CLAUSES - 1)]
    start = rng.randint(0, 999)
    clauses = others + [f"{proc}(k) = if (k == 0) true else ({acc} = {acc} + k; {proc}(k - 1))"]
    source = (
        f"module {module}.\n" + "\nand ".join(clauses) + "\nend\n\n"
        f"({down}(j) = if (j == 0) ({module} => ({acc} = {start}; {proc}({n}); print({acc})))"
        f" else {down}(j - 1) =>\n  {down}({n}))\n"
    )
    return Program("wide", n, source, f"{start + _triangle(n)}\n")


def evod(n: int, rng: random.Random) -> Program:
    """Even/Odd as two modules that load each other on demand: the module
    stack grows by one frame per level. Prints the parity of n."""
    depth = n + rng.randint(0, 1)  # either parity, same work
    assert depth < MAX_DEPTH
    ev, od, res = _name(rng, "Ev"), _name(rng, "Od"), _name(rng, "r")
    source = (
        f"module {ev}.\nEven(x) = if (x == 0) ({res} = even) else ({od} => Odd(x - 1))\nend\n\n"
        f"module {od}.\nOdd(x) = if (x == 0) ({res} = odd) else ({ev} => Even(x - 1))\nend\n\n"
        f"({ev} => Even({depth})); print({res})\n"
    )
    return Program("evod", n, source, "even\n" if depth % 2 == 0 else "odd\n")


def tall(n: int, rng: random.Random) -> Program:
    """Each level pushes a ren implication and calls the renamed procedure
    (one rename per level), then calls a procedure declared at the bottom
    of the stack, so every call scans all frames."""
    assert n < MAX_DEPTH
    base, step, acc = _name(rng, "Base"), _name(rng, "Step"), _name(rng, "s")
    hid, shown, acc2 = _name(rng, "h"), _name(rng, "g"), _name(rng, "u")
    start, start2 = rng.randint(0, 999), rng.randint(0, 999)
    source = (
        f"({base}(k) = ({acc} = {acc} + k) =>\n"
        f" ({step}(k) = if (k == 0) true else\n"
        f"   (ren({hid}, {shown}) ({hid}(j) = ({acc2} = {acc2} + j)) =>\n"
        f"     ({shown}(k); {base}(k); {step}(k - 1))) =>\n"
        f"  ({acc} = {start}; {acc2} = {start2}; {step}({n}); print({acc}); print({acc2}))))\n"
    )
    total = _triangle(n)
    return Program("tall", n, source, f"{start + total}\n{start2 + total}\n")


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def seq_alloc(n: int, rng: random.Random) -> Program:
    """n small allocation scopes one after another: each allocates, writes,
    reads and frees one int[4] region."""
    assert n < MAX_DEPTH
    proc, acc, handle = _name(rng, "Alloc"), _name(rng, "s"), _name(rng, "p")
    slot = rng.randint(0, 3)
    source = (
        f"({proc}(k) = if (k == 0) true else\n"
        f"   (({handle} = new int[4] => ({handle}[{slot}] = k; {acc} = {acc} + {handle}[{slot}])); {proc}(k - 1)) =>\n"
        f"  ({acc} = 0; {proc}({n}); print({acc})))\n"
    )
    return Program("seq_alloc", n, source, f"{_triangle(n)}\n")


def fill(n: int, rng: random.Random) -> Program:
    """One region of n cells, filled and then summed through a handle
    passed as an argument: many accesses, one allocation."""
    assert n < MAX_DEPTH
    mul = rng.randint(1, 9)
    buf, acc = _name(rng, "buf"), _name(rng, "s")
    # two implications, not one conjunction, so no call ever mismatches
    source = (
        f"(Fill(h, k) = if (k == 0) true else (h[k - 1] = k * {mul}; Fill(h, k - 1)) =>\n"
        f" (Sum(h, k) = if (k == 0) true else ({acc} = {acc} + h[k - 1]; Sum(h, k - 1)) =>\n"
        f"  ({buf} = new int[{n}] => ({acc} = 0; Fill({buf}, {n}); Sum({buf}, {n}); print({acc})))))\n"
    )
    return Program("fill", n, source, f"{mul * _triangle(n)}\n")


BIG_CELLS = 50000


def big_alloc(n: int, rng: random.Random) -> Program:
    """n scopes, one after another, each allocating int[50000]; the store
    keeps freed cells, so peak RSS grows with n."""
    proc, acc, handle = _name(rng, "Big"), _name(rng, "s"), _name(rng, "q")
    last = BIG_CELLS - 1
    source = (
        f"({proc}(k) = if (k == 0) true else\n"
        f"   (({handle} = new int[{BIG_CELLS}] => ({handle}[{last}] = k; {acc} = {acc} + {handle}[{last}])); {proc}(k - 1)) =>\n"
        f"  ({acc} = 0; {proc}({n}); print({acc})))\n"
    )
    return Program("big_alloc", n, source, f"{_triangle(n)}\n")


# ---------------------------------------------------------------------------
# frontend
# ---------------------------------------------------------------------------


def bigsrc(n: int, rng: random.Random) -> Program:
    """A large source: n modules with switch and if bodies, then a chain
    of 4n arithmetic assignments, then a few module calls. Little of it
    executes; lexing and parsing dominate."""
    labels = ["red", "green", "blue"]
    lines, outputs = [], []
    table = []
    for i in range(n):
        vals = [rng.randint(0, 99) for _ in labels]
        limit = rng.randint(0, 99)
        table.append((vals, limit))
        cases = " ".join(f"case {lab}: r = {v}; break;" for lab, v in zip(labels, vals))
        lines.append(
            f"module M{i}.\n"
            f"Pick(c) = switch (c) {{ {cases} default: r = 0; break; }}\n"
            f"and Clip(v) = if (v > {limit}) (r = {limit}) else (r = v)\n"
            f"end\n"
        )
    stmts, value = [], 0
    for j in range(4 * n):
        a, b, c = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 50)
        if j == 0:
            stmts.append(f"x0 = {a} * {b} + {c}")
            value = a * b + c
        else:
            stmts.append(f"x{j} = x{j - 1} + {a} * {b} - {c}")
            value = value + a * b - c
    stmts.append(f"print(x{4 * n - 1})")
    outputs.append(value)
    for _ in range(4):
        i = rng.randrange(n)
        vals, limit = table[i]
        lab = rng.choice(labels + ["gray"])
        v = rng.randint(0, 120)
        stmts.append(f"(M{i} => (Pick({lab}); print(r); Clip({v}); print(r)))")
        outputs.append(vals[labels.index(lab)] if lab in labels else 0)
        outputs.append(limit if v > limit else v)
    source = "".join(lines) + "\n" + ";\n".join(stmts) + "\n"
    return Program("bigsrc", n, source, "".join(f"{v}\n" for v in outputs))


def corpus(root: Path) -> list[Program]:
    """The repository's corpus programs, checked against hand-written
    expected output in corpus_expected.json."""
    expected = json.loads((HERE / "corpus_expected.json").read_text(encoding="utf-8"))
    programs = []
    for name in sorted(expected):
        source = (root / "corpus" / f"{name}.cmod").read_text(encoding="utf-8")
        want = expected[name]
        programs.append(Program(f"corpus.{name}", 1, source, want["stdout"], want["exit"]))
    return programs


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# family -> (generator, n); each family runs at n and 2n.
FAMILIES = {
    "loop": (loop, 2000),
    "wide": (wide, 600),
    "evod": (evod, 2000),
    "tall": (tall, 250),
    "seq_alloc": (seq_alloc, 1500),
    "fill": (fill, 1500),
    "big_alloc": (big_alloc, 100),
    "trace": (lambda n, rng: loop(n, rng, trace=True), 800),
    "bigsrc": (bigsrc, 200),
}

WORKLOADS = {
    "frontend": ["bigsrc"],
    "recursion": ["loop", "wide", "evod", "tall"],
    "regions": ["seq_alloc", "fill", "big_alloc"],
    "trace": ["trace"],
}


def family_program(family: str, size: int, seed: int) -> Program:
    gen, _ = FAMILIES[family]
    return gen(size, random.Random(f"{seed}:{family}:{size}"))


def workload_programs(workload: str, seed: int, root: Path, scale: float = 1.0) -> list[Program]:
    """Every program of a workload: each family at n and 2n (n shrunk by
    scale for quick checks), plus the corpus for frontend."""
    programs = corpus(root) if workload == "frontend" else []
    for family in WORKLOADS[workload]:
        n = max(2, int(FAMILIES[family][1] * scale))
        programs += [family_program(family, n, seed), family_program(family, 2 * n, seed)]
    return programs
