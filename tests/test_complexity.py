"""Work that grows with the program's shape, not with its run, counted at
n and 2n: clause tables built (cmod.ast.clause_table), clauses renamed
(cmod.engine.rename) and frames pushed (the frames handed to
cmod.engine._push). A count that grows with the depth of the recursion
where it should not fails here on any machine, unlike a timing."""

import pytest

import cmod.ast
import cmod.engine
from cmod.engine import Success, run_source

N = 300

# Each family recurses n levels; each level pushes a declaration or enters
# a macro scope, then calls into what it pushed. Every family prints n.
FAMILIES = {
    # a 40-clause module closed over the formal, one clause called
    "local": "(Rec(n) = if (n == 0) true else (({clauses}) => (c39(); Rec(n - 1))) => (s = 0; Rec({n}); print(s)))",
    # a renamed clause, called by its new name
    "ren": "(Rec(n) = if (n == 0) true else ((ren(h, g) (h() = (s = s + 1))) => (g(); Rec(n - 1))) => (s = 0; Rec({n}); print(s)))",
    # a macro scope at every level, its macro pushed and called into
    "mscope": "(Rec(n) = if (n == 0) true else (macro /m = {{ q() = (s = s + 1) }} in (/m => (q(); Rec(n - 1)))) => (s = 0; Rec({n}); print(s)))",
}
CLAUSES = " and ".join(f"c{i}() = (s = s + {1 if i == 39 else 'n'})" for i in range(40))


def counts(monkeypatch, family: str, n: int) -> dict[str, int]:
    """The three counts of one run of family at size n."""
    counted = {"tables": 0, "renames": 0, "frames": 0}

    def count(owner, attr, key, amount=lambda *args: 1):
        original = getattr(owner, attr)

        def counting(*args):
            counted[key] += amount(*args)
            return original(*args)

        monkeypatch.setattr(owner, attr, counting)

    count(cmod.ast, "clause_table", "tables")
    count(cmod.engine, "rename", "renames")
    count(cmod.engine, "_push", "frames", lambda machine, frames: len(frames))
    outcome, machine = run_source(FAMILIES[family].format(clauses=CLAUSES, n=n))
    monkeypatch.undo()
    assert isinstance(outcome, Success) and machine.output_text() == f"{n}\n"
    return counted


@pytest.mark.parametrize("family", ["local", "ren"])
def test_a_declaration_pushed_at_every_level_is_tabled_and_renamed_once(monkeypatch, family):
    small, large = counts(monkeypatch, family, N), counts(monkeypatch, family, 2 * N)
    assert (large["tables"], large["renames"]) == (small["tables"], small["renames"])
    assert large["frames"] <= 2.2 * small["frames"]


def test_a_macro_scope_at_every_level_costs_the_same_at_every_level(monkeypatch):
    small, large = counts(monkeypatch, "mscope", N), counts(monkeypatch, "mscope", 2 * N)
    assert large["frames"] <= 2.2 * small["frames"]
    assert large["tables"] <= 2.2 * small["tables"]
