"""Work that grows with the program's shape, not with its run, counted at
n and 2n: clause tables built (cmod.ast.clause_table), declarations
renamed while a table is built (cmod.engine.rename, the only way the
engine renames, traced or not), frames pushed (the frames handed to
cmod.engine._push), the most tables cached on the machine at a push and
the macro definitions handed to cmod.macros.MacroEnv.define, the macro
definitions whose names are read while loading many modules, the lines
the deciding-frame lookup (cmod.engine._deciding_table) runs per call
while many modules are loaded, and the clause tables built per macro
scope a loop enters while many modules are loaded: a scope rebuilds only
the live tables that read a name it defines. A loop that loads a
top-level module inside a macro scope per iteration builds one table per
scope, its module's being kept while the module's binding is unchanged,
and runs the same lines of cmod/macros.py per iteration at any depth. A
count that grows with the depth of the recursion where it should not
fails here on any machine, unlike a timing."""

import sys

import pytest

import cmod.ast
import cmod.engine
import cmod.macros
from cmod.engine import Success, run_source

N = 300

# Each family recurses n levels; each level pushes a declaration or enters
# a macro scope, then calls into what it pushed. Every family prints n.
FAMILIES = {
    # a 40-clause module closed over the formal, one clause called
    "local": "(Rec(n) = if (n == 0) true else (({clauses}) => (c39(); Rec(n - 1))) => (s = 0; Rec({n}); print(s)))",
    # a renamed clause, called by its new name; its quantifier is a traced step below the ren
    "ren": "(Rec(n) = if (n == 0) true else ((ren(h, g) (h(j) = (s = s + j))) => (g(1); Rec(n - 1))) => (s = 0; Rec({n}); print(s)))",
    # a macro scope at every level, its macro pushed and called into
    "mscope": "(Rec(n) = if (n == 0) true else (macro /m = {{ q() = (s = s + 1) }} in (/m => (q(); Rec(n - 1)))) => (s = 0; Rec({n}); print(s)))",
    # a new macro scope at every level, and a call through a ren of a macro
    # whose clause pushes a declaration: its table is rebuilt at every level
    "refer": "macro /m = {{ h(j) = ((h(k) = true) => h(j)) }}\n"
    "(Rec(n) = if (n == 0) true else (macro /z = {{ z() = true }} in ((ren(h, g) /m) => (g(1); s = s + 1; Rec(n - 1)))) => (s = 0; Rec({n}); print(s)))",
}
CLAUSES = " and ".join(f"c{i}() = (s = s + {1 if i == 39 else 'n'})" for i in range(40))


def counts(monkeypatch, family: str, n: int, trace=None) -> dict[str, int]:
    """The counts of one run of family at size n; cached is the most
    tables the machine held at a push, defined the number of definitions
    handed to define."""
    counted = {"tables": 0, "renames": 0, "frames": 0, "defined": 0}

    def count(owner, attr, key, amount=lambda *args: 1):
        original = getattr(owner, attr)

        def counting(*args):
            counted[key] += amount(*args)
            return original(*args)

        monkeypatch.setattr(owner, attr, counting)

    def pushed(machine, frames):
        counted["cached"] = max(counted["cached"], len(machine.tables))  # before the run drops them
        return len(frames)

    def define(env, defs, *args):
        counted["defined"] += len(defs)
        return original_define(env, defs, *args)

    counted["cached"], original_define = 0, cmod.macros.MacroEnv.define
    monkeypatch.setattr(cmod.macros.MacroEnv, "define", define)
    count(cmod.ast, "clause_table", "tables")
    count(cmod.engine, "rename", "renames")
    count(cmod.engine, "_push", "frames", pushed)
    outcome, machine = run_source(FAMILIES[family].format(clauses=CLAUSES, n=n), trace=trace)
    monkeypatch.undo()
    assert isinstance(outcome, Success) and machine.output_text() == f"{n}\n"
    return counted


@pytest.mark.parametrize("family", ["local", "ren"])
def test_a_declaration_pushed_at_every_level_is_tabled_and_renamed_once(monkeypatch, family):
    small, large = counts(monkeypatch, family, N), counts(monkeypatch, family, 2 * N)
    assert (large["tables"], large["renames"]) == (small["tables"], small["renames"])
    assert small["renames"] == (family == "ren")  # the counter sees the one renaming there is
    assert large["frames"] <= 2.2 * small["frames"]


def test_a_traced_run_renames_once_as_an_untraced_one_does(monkeypatch):
    small, large = (counts(monkeypatch, "ren", n, trace=lambda event: None) for n in (N, 2 * N))
    assert small["renames"] == large["renames"] == 1


def test_a_table_rebuilt_at_every_level_caches_tables_bounded_by_the_program(monkeypatch):
    small, large = counts(monkeypatch, "refer", N), counts(monkeypatch, "refer", 2 * N)
    assert large["cached"] == small["cached"]
    assert large["renames"] == small["renames"]


def test_a_macro_scope_at_every_level_costs_the_same_at_every_level(monkeypatch):
    small, large = counts(monkeypatch, "mscope", N), counts(monkeypatch, "mscope", 2 * N)
    assert large["frames"] <= 2.2 * small["frames"]
    assert large["tables"] <= 2.2 * small["tables"]
    assert large["defined"] <= 2.2 * small["defined"]


def names_read_loading_modules(monkeypatch, k: int, m: int = 10) -> int:
    """The names of macro definitions read (cmod.ast.MacroDef.name) in one
    run of the modules family at k and m."""
    slot, read = cmod.ast.MacroDef.__dict__["name"], [0]

    def name(macro):
        read[0] += 1
        return slot.__get__(macro)

    monkeypatch.setattr(cmod.ast.MacroDef, "name", property(name, slot.__set__))
    run_modules(k, m)
    monkeypatch.undo()
    return read[0]


def run_modules(k: int, m: int, scoped: bool = False, each: bool = False) -> None:
    """Run the modules family: k top-level modules, each loaded by a nested
    /Mi =>, around a count loop of m calls; scoped, each iteration enters a
    macro scope; each, none is loaded around the loop, and each iteration
    loads /M0 and calls f0() instead."""
    modules = "\n".join(f"module M{i}. f{i}() = true end" for i in range(k))
    step = "(/M0 => f0()); s = s + 1; Loop(n - 1)" if each else "s = s + 1; Loop(n - 1)"
    if scoped:
        step = f"macro /z = {{ z() = true }} in ({step})"
    body = f"(s = 0; Loop({m}); print(s))"
    for i in reversed(range(0 if each else k)):
        body = f"(/M{i} => {body})"
    outcome, machine = run_source(f"{modules}\n(Loop(n) = if (n == 0) true else ({step}) => {body})")
    assert isinstance(outcome, Success) and machine.output_text() == f"{m}\n"


def test_loading_each_of_many_modules_reads_a_bounded_number_of_definitions(monkeypatch):
    small, large = (names_read_loading_modules(monkeypatch, k) for k in (N, 2 * N))
    assert large <= 2.2 * small


def tables_built_loading_modules(monkeypatch, k: int, m: int, each: bool = False) -> int:
    """The clause tables built (cmod.ast.clause_table) in one run of the
    modules family at k and m, a macro scope entered per iteration."""
    clause_table, built = cmod.ast.clause_table, [0]

    def counting(*args):
        built[0] += 1
        return clause_table(*args)

    monkeypatch.setattr(cmod.ast, "clause_table", counting)
    run_modules(k, m, scoped=True, each=each)
    monkeypatch.undo()
    return built[0]


def test_a_macro_scope_rebuilds_the_tables_that_read_its_names_not_every_loaded_module(monkeypatch):
    # the tables built from 10 to 110 iterations, each entering a scope, at k and 2k modules loaded
    small, large = (
        tables_built_loading_modules(monkeypatch, k, 110) - tables_built_loading_modules(monkeypatch, k, 10)
        for k in (N, 2 * N)
    )
    assert small == large


def test_a_module_loaded_inside_each_macro_scope_keeps_its_table(monkeypatch):
    # from 10 to 110 iterations, each entering a scope that loads /M0: one table
    # per scope, /z's; /M0's is kept, since its binding does not change
    def built(m):
        return tables_built_loading_modules(monkeypatch, 1, m, each=True)

    assert built(110) - built(10) == 100


def lines_loading_modules(counted, k: int, m: int, **options) -> int:
    """The line events in the code objects counted(code) accepts in one run
    of the modules family at k and m, with run_modules' options."""
    lines = [0]

    def in_counted(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return in_counted

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_counted if counted(frame.f_code) else None)
    try:
        run_modules(k, m, **options)
    finally:
        sys.settrace(previous)
    return lines[0]


def test_a_macro_lookup_costs_the_same_at_any_scope_depth():
    # the lines of cmod/macros.py run from 10 to 110 iterations and from 110 to 210,
    # each iteration entering a scope that loads /M0
    def macros_lines(m):
        return lines_loading_modules(lambda code: code.co_filename == cmod.macros.__file__, 1, m, scoped=True, each=True)

    first, second = (macros_lines(m) - macros_lines(m - 100) for m in (110, 210))
    assert first == second


def test_a_call_reads_the_frames_that_declare_its_name_not_every_loaded_module():
    # the lookup's (cmod.engine._deciding_table's) lines, from 10 to 1,010 loop calls,
    # at k and 2k modules loaded
    def lookup_lines(k, m):
        return lines_loading_modules(lambda code: code is cmod.engine._deciding_table.__code__, k, m)

    small, large = (lookup_lines(k, 1010) - lookup_lines(k, 10) for k in (N, 2 * N))
    assert small == large
