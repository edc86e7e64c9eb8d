"""Random program generators and independent oracles for property tests."""

from __future__ import annotations

import random

from cmod import ast as A
from cmod.macros import MacroEnv, conj_expand
from cmod.parser import SourceProgram


def closed_clause(name: str, params: tuple[str, ...], body: A.Statement) -> A.Declaration:
    decl: A.Declaration = A.Clause(name, tuple(A.Var(p) for p in params), body)
    for param in reversed(params):
        decl = A.Forall(param, decl)
    return decl


def fold_seq(stmts: list[A.Statement]) -> A.Statement:
    if not stmts:
        return A.TrueStmt()
    result = stmts[-1]
    for stmt in reversed(stmts[:-1]):
        result = A.Seq(stmt, result)
    return result


# ---------------------------------------------------------------------------
# Shadowing nests (innermost declaration must win)
# ---------------------------------------------------------------------------


def shadowing_case(rng: random.Random) -> tuple[A.Statement, int]:
    """Nested implications all declaring ``probe``; returns the statement
    and the marker value the innermost body writes."""
    depth = rng.randint(2, 4)
    body: A.Statement = A.Call("probe", ())
    for level in range(depth - 1, -1, -1):
        decl: A.Declaration = A.Clause("probe", (), A.Assign("hit", A.IntLit(level)))
        if rng.random() < 0.5:
            noise = A.Clause(f"noise{level}", (), A.TrueStmt())
            decl = A.And(noise, decl) if rng.random() < 0.5 else A.And(decl, noise)
        body = A.Implication(decl, body)
    return body, depth - 1


# ---------------------------------------------------------------------------
# Balanced-scope programs (stack discipline + store persistence)
# ---------------------------------------------------------------------------


def balanced_case(rng: random.Random) -> tuple[list[A.MacroDef], A.Statement, list[str]]:
    """A random well-formed program mixing every scope construct; returns
    the macro seeds, the statement, and the store variables it assigns."""
    counter = [0]
    assigned: list[str] = []
    seeds = [
        A.MacroDef("M1", closed_clause("mproc1", (), A.Assign("m1", A.IntLit(1)))),
        A.MacroDef("M2", closed_clause("mproc2", (), A.Assign("m2", A.IntLit(2)))),
    ]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def build(budget: int) -> A.Statement:
        if budget <= 0:
            var = fresh("v")
            assigned.append(var)
            return A.Assign(var, A.IntLit(rng.randint(0, 9)))
        kind = rng.randrange(6)
        if kind == 0:
            return A.Seq(build(budget - 1), build(budget - 1))
        if kind == 1:
            var = fresh("v")
            assigned.append(var)
            proc = fresh("p")
            decl = A.Clause(proc, (), A.Assign(var, A.IntLit(rng.randint(0, 9))))
            return A.Implication(decl, A.Seq(A.Call(proc, ()), build(budget - 1)))
        if kind == 2:
            name = rng.choice(["M1", "M2"])
            proc = "mproc1" if name == "M1" else "mproc2"
            assigned.append("m1" if name == "M1" else "m2")
            return A.ModuleImplication(name, A.Seq(A.Call(proc, ()), build(budget - 1)))
        if kind == 3:
            var = fresh("v")
            assigned.append(var)
            macro = fresh("mac")
            proc = fresh("p")
            defs = (A.MacroDef(macro, closed_clause(proc, (), A.Assign(var, A.IntLit(3)))),)
            return A.MacroScope(defs, A.Seq(A.Call(proc, ()), build(budget - 1)))
        if kind == 4:
            handle = fresh("h")
            length = rng.randint(1, 4)
            inner = A.Seq(
                A.StoreIndex(A.Var(handle), A.IntLit(rng.randrange(length)), A.IntLit(7)),
                build(budget - 1),
            )
            return A.AllocScope(handle, "int", A.IntLit(length), inner)
        var = fresh("v")
        assigned.append(var)
        return A.Seq(A.Assign(var, A.IntLit(rng.randint(0, 9))), build(budget - 1))

    return seeds, build(rng.randint(2, 4)), assigned


class ScopeBalanceChecker:
    """Trace callback verifying that every scope statement leaves the
    module stack and macro environment at their pre-statement sizes.

    An ``ex`` event for a scope rule fires before the push; the next
    event at the same or a shallower depth fires after the scope (and
    everything nested in it) has exited. Of the records closed at that
    moment only the outermost one's pre-state is directly observable,
    and it subsumes the inner ones: the engine pops exact frame counts,
    so any inner imbalance would surface in the outer comparison.
    """

    def __init__(self, machine):
        self.machine = machine
        self.open: list[tuple[int, int, int]] = []
        self.checked = 0

    def __call__(self, event) -> None:
        batch = []
        while self.open and event.depth <= self.open[-1][0]:
            batch.append(self.open.pop())
        self._verify(batch)
        if event.phase == "ex" and event.rule_id in (11, 12):
            self.open.append((event.depth, len(self.machine.module_stack), len(self.machine.macro_env)))

    def finish(self) -> None:
        batch = list(reversed(self.open))
        self.open.clear()
        self._verify(batch)

    def _verify(self, batch) -> None:
        if not batch:
            return
        _, stack_len, env_len = batch[-1]  # outermost scope closed here
        assert len(self.machine.module_stack) == stack_len, "module stack not restored"
        assert len(self.machine.macro_env) == env_len, "macro environment not restored"
        self.checked += len(batch)


# ---------------------------------------------------------------------------
# Region alloc/escape programs
# ---------------------------------------------------------------------------


def region_case(rng: random.Random) -> tuple[A.Statement, bool]:
    """Nested allocation scopes with writes, reads, and escaping handles;
    returns the statement and whether it ends with a read through an
    escaped (dead) handle."""
    depth = rng.randint(1, 3)
    escaped: list[str] = []

    def build(level: int) -> A.Statement:
        if level == depth:
            return A.TrueStmt()
        handle = f"h{level}"
        length = rng.randint(1, 4)
        parts: list[A.Statement] = [
            A.StoreIndex(A.Var(handle), A.IntLit(rng.randrange(length)), A.IntLit(rng.randint(0, 9)))
        ]
        if rng.random() < 0.8:
            alias = f"q{level}"
            escaped.append(alias)
            parts.append(A.Assign(alias, A.Var(handle)))
        if level > 0 and rng.random() < 0.5:
            # the outer region stays accessible inside the inner scope
            parts.append(A.Assign(f"peek{level}", A.Index(A.Var("h0"), A.IntLit(0))))
        parts.append(build(level + 1))
        parts.append(A.Assign(f"r{level}", A.Index(A.Var(handle), A.IntLit(rng.randrange(length)))))
        return A.AllocScope(handle, "int", A.IntLit(length), fold_seq(parts))

    stmt = build(0)
    dangle = bool(escaped) and rng.random() < 0.6
    if dangle:
        alias = rng.choice(escaped)
        stmt = A.Seq(stmt, A.Assign("out", A.Index(A.Var(alias), A.IntLit(0))))
    return stmt, dangle


def record_region_events(stack) -> list[tuple[str, int]]:
    """Wrap stack's allocate and free so each successful one appends
    ("alloc" | "free", region id) to the returned list."""
    events: list[tuple[str, int]] = []
    allocate, free = stack.allocate, stack.free

    def recording_allocate(elem_type, length):
        handle = allocate(elem_type, length)
        events.append(("alloc", handle.region_id))
        return handle

    def recording_free(handle):
        free(handle)
        events.append(("free", handle.region_id))

    stack.allocate, stack.free = recording_allocate, recording_free
    return events


def assert_lifo(events: list[tuple[str, int]]) -> None:
    """Every free releases the most recently allocated live region, and
    every allocated region is freed."""
    open_regions = []
    for kind, region_id in events:
        if kind == "alloc":
            open_regions.append(region_id)
        else:
            assert open_regions.pop() == region_id
    assert open_regions == []


# ---------------------------------------------------------------------------
# Macro programs and their eager inlining
# ---------------------------------------------------------------------------


def inline_macros(program: SourceProgram) -> A.Statement:
    """The main statement with every macro construct eagerly expanded:
    module implications become direct implications of the looked-up body,
    macro scopes become nested implications of their definitions, and
    every declaration is expanded.

    Eager expansion freezes each reference at its syntactic position, so
    it matches the engine's late binding only when no macro name is
    rebound while a frame referencing it is live.
    """

    def expand_decl(decl: A.Declaration, env: MacroEnv) -> A.Declaration:
        return walk(conj_expand(env, decl), env)

    def walk(node, env: MacroEnv):
        if isinstance(node, A.Implication):
            return A.Implication(expand_decl(node.decl, env), walk(node.body, env))
        if isinstance(node, A.ModuleImplication):
            return A.Implication(expand_decl(env.lookup(node.name), env), walk(node.body, env))
        if isinstance(node, A.MacroScope):
            inner_env = env.define(node.defs)
            result = walk(node.body, inner_env)
            for macro_def in reversed(node.defs):
                result = A.Implication(expand_decl(macro_def.body, inner_env), result)
            return result
        return A.map_children(node, lambda child: walk(child, env))

    return walk(program.main, MacroEnv.seeded(program.seeds()))


def macro_equivalence_case(rng: random.Random) -> SourceProgram:
    """A random macro-using program (references, conjunction, renaming,
    scoped definitions) whose macro names are all distinct, so no live
    reference frame is ever rebound and lazy resolution must agree with
    eager inlining."""
    procs = ["pa", "pb", "pc", "pd"]
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def clause_body() -> A.Statement:
        roll = rng.random()
        if roll < 0.5:
            return A.Assign(fresh("v"), A.IntLit(rng.randint(0, 9)))
        if roll < 0.7:
            return A.Print(A.IntLit(rng.randint(0, 9)))
        if roll < 0.9:
            return A.Call(rng.choice(procs + ["ghost"]), ())
        return A.Seq(A.Assign(fresh("v"), A.IntLit(1)), A.Call(rng.choice(procs), ()))

    def macro_body(visible: list[str]) -> A.Declaration:
        leaves: list[A.Declaration] = [
            closed_clause(rng.choice(procs), (), clause_body())
            for _ in range(rng.randint(1, 2))
        ]
        if visible and rng.random() < 0.4:
            leaves.append(A.MacroRef(rng.choice(visible)))
        decl = leaves[0]
        for leaf in leaves[1:]:
            decl = A.And(decl, leaf)
        while rng.random() < 0.3:
            old, new = rng.sample(procs, 2)
            decl = A.Rename(old, new, decl)
        return decl

    top: list[A.MacroDef] = []
    for _ in range(rng.randint(1, 3)):
        top.append(A.MacroDef(fresh("m"), macro_body([d.name for d in top])))

    def stmt(budget: int, visible: list[str]) -> A.Statement:
        if budget <= 0:
            if rng.random() < 0.5:
                return A.Call(rng.choice(procs + ["ghost"]), ())
            return A.Assign(fresh("v"), A.IntLit(3))
        kind = rng.randrange(5)
        if kind == 0:
            return A.Seq(stmt(budget - 1, visible), stmt(budget - 1, visible))
        if kind == 1:
            return A.ModuleImplication(rng.choice(visible), stmt(budget - 1, visible))
        if kind == 2:
            name = fresh("m")
            scoped = A.MacroDef(name, macro_body(visible))
            return A.MacroScope((scoped,), stmt(budget - 1, visible + [name]))
        if kind == 3:
            refs = [A.MacroRef(n) for n in rng.sample(visible, min(len(visible), rng.randint(1, 2)))]
            decl: A.Declaration = refs[0]
            for ref in refs[1:]:
                decl = A.And(decl, ref)
            if rng.random() < 0.5:
                decl = A.And(decl, closed_clause(rng.choice(procs), (), clause_body()))
            if rng.random() < 0.4:
                old, new = rng.sample(procs, 2)
                decl = A.Rename(old, new, decl)
            return A.Implication(decl, stmt(budget - 1, visible))
        return stmt(budget - 1, visible)

    return SourceProgram((), tuple(top), stmt(rng.randint(2, 4), [d.name for d in top]))


# ---------------------------------------------------------------------------
# Conjunction-search frames and the branch-order oracle
# ---------------------------------------------------------------------------


def conj_frame(rng: random.Random) -> tuple[A.Declaration, dict[str, A.Statement], str]:
    """A frame of 1-4 uniquely named zero-argument clauses under a random
    conjunction tree, plus the call target (possibly undeclared)."""
    count = rng.randint(1, 4)
    names = ["pa", "pb", "pc", "pd"][:count]
    pool = names + ["missing"]
    bodies: dict[str, A.Statement] = {}
    for name in names:
        roll = rng.random()
        if roll < 0.35:
            bodies[name] = A.TrueStmt()
        elif roll < 0.75:
            bodies[name] = A.Call(rng.choice(pool), ())
        else:
            bodies[name] = A.Seq(A.Call(rng.choice(pool), ()), A.Call(rng.choice(pool), ()))
    leaves: list[A.Declaration] = [A.Clause(name, (), bodies[name]) for name in names]
    rng.shuffle(leaves)
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        pair = A.And(leaves[i], leaves[i + 1])
        leaves[i : i + 2] = [pair]
    return leaves[0], bodies, rng.choice(pool)


def branch_order_success(frame: A.Declaration, target: str, limit: int = 16) -> bool:
    """Independent oracle: does any choice of conjunction branch orders
    yield a successful derivation for the target call?

    Clause bodies in generated frames are effect-free, so trying both
    branches subsumes enumerating both orders at each conjunction.
    """

    def bc(decl: A.Declaration, name: str, depth: int) -> bool:
        if isinstance(decl, A.Clause):
            return decl.name == name and run(decl.body, depth)
        if isinstance(decl, A.And):
            return bc(decl.left, name, depth) or bc(decl.right, name, depth)
        raise TypeError(f"unexpected frame node {decl!r}")

    def run(stmt: A.Statement, depth: int) -> bool:
        if depth > limit:
            return False
        if isinstance(stmt, A.TrueStmt):
            return True
        if isinstance(stmt, A.Call):
            return bc(frame, stmt.name, depth + 1)
        if isinstance(stmt, A.Seq):
            return run(stmt.first, depth) and run(stmt.second, depth)
        raise TypeError(f"unexpected body node {stmt!r}")

    return bc(frame, target, 0)
