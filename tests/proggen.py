"""Random program generators and independent oracles for property tests."""

from __future__ import annotations

import random

from cmod import ast as A
from cmod.errors import CmodError
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
        decl: A.Declaration = A.Clause("probe", (), A.Assign("hit", A.Int(level)))
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
        A.MacroDef("M1", closed_clause("mproc1", (), A.Assign("m1", A.Int(1)))),
        A.MacroDef("M2", closed_clause("mproc2", (), A.Assign("m2", A.Int(2)))),
    ]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def build(budget: int) -> A.Statement:
        if budget <= 0:
            var = fresh("v")
            assigned.append(var)
            return A.Assign(var, A.Int(rng.randint(0, 9)))
        kind = rng.randrange(6)
        if kind == 0:
            return A.Seq(build(budget - 1), build(budget - 1))
        if kind == 1:
            var = fresh("v")
            assigned.append(var)
            proc = fresh("p")
            decl = A.Clause(proc, (), A.Assign(var, A.Int(rng.randint(0, 9))))
            return A.Implication(decl, A.Seq(A.Call(proc, ()), build(budget - 1)))
        if kind == 2:
            name = rng.choice(["M1", "M2"])
            proc = "mproc1" if name == "M1" else "mproc2"
            assigned.append("m1" if name == "M1" else "m2")
            return A.Implication(A.MacroRef(name), A.Seq(A.Call(proc, ()), build(budget - 1)))
        if kind == 3:
            var = fresh("v")
            assigned.append(var)
            macro = fresh("mac")
            proc = fresh("p")
            defs = (A.MacroDef(macro, closed_clause(proc, (), A.Assign(var, A.Int(3)))),)
            return A.MacroScope(defs, A.Seq(A.Call(proc, ()), build(budget - 1)))
        if kind == 4:
            handle = fresh("h")
            length = rng.randint(1, 4)
            inner = A.Seq(
                A.StoreIndex(A.Var(handle), A.Int(rng.randrange(length)), A.Int(7)),
                build(budget - 1),
            )
            return A.AllocScope(handle, "int", A.Int(length), inner)
        var = fresh("v")
        assigned.append(var)
        return A.Seq(A.Assign(var, A.Int(rng.randint(0, 9))), build(budget - 1))

    return seeds, build(rng.randint(2, 4)), assigned


def same_bindings(env: dict, snapshot: dict) -> bool:
    """Whether env binds the names snapshot (a dict(env) taken earlier)
    binds, each to the very same definition."""
    return env.keys() == snapshot.keys() and all(env[name] is binding for name, binding in snapshot.items())


class ScopeBalanceChecker:
    """Trace callback verifying that every scope statement leaves the
    module stack at its pre-statement size and the macro environment
    with its pre-statement bindings.

    An ``ex`` event for a scope rule fires before the push; the next
    event at the same or a shallower depth fires after the scope (and
    everything nested in it) has exited. Of the records closed at that
    moment only the outermost one's pre-state is directly observable,
    and it subsumes the inner ones: the engine pops exact frame counts,
    so any inner imbalance would surface in the outer comparison.
    """

    def __init__(self, machine):
        self.machine = machine
        self.open: list[tuple[int, int, dict]] = []
        self.checked = 0

    def __call__(self, event) -> None:
        batch = []
        while self.open and event.depth <= self.open[-1][0]:
            batch.append(self.open.pop())
        self._verify(batch)
        if event.phase == "ex" and event.rule_id in (11, 12):
            self.open.append((event.depth, len(self.machine.module_stack), dict(self.machine.macro_env)))

    def finish(self) -> None:
        batch = list(reversed(self.open))
        self.open.clear()
        self._verify(batch)

    def _verify(self, batch) -> None:
        if not batch:
            return
        _, stack_len, bindings = batch[-1]  # outermost scope closed here
        assert len(self.machine.module_stack) == stack_len, "module stack not restored"
        assert same_bindings(self.machine.macro_env, bindings), "macro environment not restored"
        self.checked += len(batch)


# ---------------------------------------------------------------------------
# Closure programs: where a call's values must reach, and where not
# ---------------------------------------------------------------------------

CLOSURE_SEEDS = [
    A.MacroDef(
        "gm",
        A.And(A.Clause("gq", (), A.Print(A.Int(0))), A.Clause("gk", (), A.Assign("gk_ran", A.Int(1)))),
    ),
    # reads the formals' names from the store, whichever activation pushes it
    A.MacroDef("gv", A.Clause("gvq", (), fold_seq([A.Print(A.Var(v)) for v in ("x", "y", "z")]))),
]


def closure_case(rng: random.Random) -> tuple[list[A.MacroDef], A.Statement]:
    """A procedure p whose body uses its formals where a call's values
    must reach or must not: a declaration pushed from the body and called
    from an outer clause, a macro defined in the body (whose clause may
    quantify a formal's name, which hides the captured value), an allocation
    handle or an inner forall of a formal's name, a formal assigned and
    then read, a switch over a formal, and a recursive call. Some bodies
    also redefine the seeded macro /gm under a frame that refers to it,
    perhaps renaming gq to gq2, which changes the names that frame
    declares: without gk, a call to gk falls to the outer frame. Others
    push the seeded /gv, or the undefined /gu, conjoined with a clause
    that reads a formal: that clause sees the call's value, /gv's body
    the store's. Under that frame a nested scope may redefine /gv, and
    does define /gu, with a clause that reads the formal; calls there see
    the frame follow the new definition. Returns the seeds (CLOSURE_SEEDS)
    and a statement that calls p, perhaps renamed."""
    formals = tuple(rng.sample(["x", "y", "z"], rng.randint(1, 2)))

    def fragment(i: int, v: str) -> A.Statement:
        kind = rng.randrange(8)
        if kind == 0:  # a pushed declaration captures v; r calls it from outside
            pushed = closed_clause("rq", ("w",), A.Print(A.BinOp("+", A.Var(v), A.Var("w"))))
            return A.Implication(pushed, A.Seq(A.Call("rq", (A.Int(i),)), A.Call("r", ())))
        if kind == 1:  # a macro defined in the body captures v, unless its clause quantifies v
            params = (v,) if rng.random() < 0.5 else ()
            defs = (A.MacroDef(f"m{i}", closed_clause(f"mq{i}", params, A.Print(A.Var(v)))),)
            call = A.Call(f"mq{i}", tuple(A.Int(20 + i) for _ in params))
            return A.MacroScope(defs, A.Implication(A.MacroRef(f"m{i}"), call))
        if kind == 2:  # the handle hides v in the body, not in the length
            body = fold_seq([
                A.StoreIndex(A.Var(v), A.Int(0), A.Int(7)),
                A.Print(A.Index(A.Var(v), A.Int(0))),
                A.Print(A.Var(v)),
            ])
            return A.AllocScope(v, "int", A.Var(v), body)
        if kind == 3:  # an inner forall of v's name hides it
            inner = A.Forall(v, A.Clause(f"fq{i}", (), A.Print(A.Var(v))))
            return A.Implication(inner, A.Call(f"fq{i}", ()))
        if kind == 4:  # the store gets the assignment, reads still see v
            return A.Seq(A.Assign(v, A.BinOp("+", A.Var(v), A.Int(10))), A.Print(A.Var(v)))
        if kind == 5:  # a switch over v
            cases = ((A.Int(1), A.Print(A.Atom("one"))), (A.Int(2), A.Assign(f"o{i}", A.Var(v))))
            return A.Switch(A.Var(v), cases, A.Print(A.Var(v)))
        if kind == 6:  # /gm redefined under a frame that refers to it
            if rng.random() < 0.5:
                new = closed_clause("gq", (), A.Print(A.Var(v)))
            else:
                new = A.Clause("gz", (), A.TrueStmt())
            frame, names = A.MacroRef("gm"), ["gq", "gk"]
            if rng.random() < 0.3:  # the frame renames what /gm holds, then and now
                frame, names = A.Rename("gq", "gq2", frame), ["gq2", "gk"]
            inner = A.MacroScope((A.MacroDef("gm", new),), A.Call(rng.choice(names), ()))
            return A.Implication(frame, A.Seq(inner, A.Call(rng.choice(names), ())))
        if kind == 7:  # /gv, or /gu, conjoined into a declaration pushed from the body
            macro = rng.choice(["gv", "gu"])
            pushed = A.And(A.MacroRef(macro), A.Clause(f"gr{i}", (), A.Print(A.Var(v))))
            body = A.Seq(A.Call("gvq", ()), A.Call(f"gr{i}", ()))
            if macro == "gu" or rng.random() < 0.3:  # (re)defined in a nested scope, under the frame
                redefined = A.MacroDef(macro, closed_clause("gvq", (), A.Print(A.BinOp("+", A.Var(v), A.Int(100)))))
                body = A.Seq(A.MacroScope((redefined,), body), A.Call(f"gr{i}", ()))
            return A.Implication(pushed, body)

    parts = [fragment(i, rng.choice(formals)) for i in range(rng.randint(1, 4))]
    if rng.random() < 0.5:  # one recursive call, so activations nest
        v = rng.choice(formals)
        args = tuple(A.BinOp("-", A.Var(f), A.Int(1)) if f == v else A.Var(f) for f in formals)
        recurse = A.If(A.BinOp(">", A.Var(v), A.Int(0)), A.Call("p", args), A.TrueStmt())
        parts.insert(rng.randint(0, len(parts)), recurse)
    body = fold_seq(parts)
    outer = A.And(
        A.Clause("r", (), A.Call("rq", (A.Int(0),))),
        A.Clause("gk", (), A.Assign("gk_outer", A.Int(1))),
    )
    frame: A.Declaration = A.And(closed_clause("p", formals, body), outer)
    name = "p"
    if rng.random() < 0.3:
        frame, name = A.Rename("p", "pp", frame), "pp"
    calls: list[A.Statement] = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            calls.append(A.Assign(rng.choice(formals), A.Int(9)))
        calls.append(A.Call(name, tuple(A.Int(rng.randint(0, 3)) for _ in formals)))
    return CLOSURE_SEEDS, A.Implication(frame, fold_seq(calls))


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
            A.StoreIndex(A.Var(handle), A.Int(rng.randrange(length)), A.Int(rng.randint(0, 9)))
        ]
        if rng.random() < 0.8:
            alias = f"q{level}"
            escaped.append(alias)
            parts.append(A.Assign(alias, A.Var(handle)))
        if level > 0 and rng.random() < 0.5:
            # the outer region stays accessible inside the inner scope
            parts.append(A.Assign(f"peek{level}", A.Index(A.Var("h0"), A.Int(0))))
        parts.append(build(level + 1))
        parts.append(A.Assign(f"r{level}", A.Index(A.Var(handle), A.Int(rng.randrange(length)))))
        return A.AllocScope(handle, "int", A.Int(length), fold_seq(parts))

    stmt = build(0)
    dangle = bool(escaped) and rng.random() < 0.6
    if dangle:
        alias = rng.choice(escaped)
        stmt = A.Seq(stmt, A.Assign("out", A.Index(A.Var(alias), A.Int(0))))
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
# Eager macro expansion: the oracle lazy resolution is checked against
# ---------------------------------------------------------------------------


class MacroNotDefined(CmodError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"macro or module '/{name}' is not defined")


def lookup(env: dict[str, A.Declaration], name: str) -> A.Declaration:
    """The body env, a plain dict from name to body, binds name to;
    MacroNotDefined when it binds none."""
    if name not in env:
        raise MacroNotDefined(name)
    return env[name]


def conj_expand(env: dict[str, A.Declaration], decl: A.Declaration) -> A.Declaration:
    """decl with every macro reference replaced by its looked-up body,
    recursively.

    A name already being expanded is left in place as a residual
    reference (cycle cut). Statement bodies are not walked; references
    inside them resolve against the environment at run time.
    """

    def expand(node, path: frozenset[str]):
        if isinstance(node, A.MacroRef) and node.name not in path:
            return expand(lookup(env, node.name), path | {node.name})
        if isinstance(node, (A.MacroRef, A.Clause)):
            return node
        return A.map_children(node, lambda child: expand(child, path))

    return expand(decl, frozenset())


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

    def expand_decl(decl: A.Declaration, env: dict[str, A.Declaration]) -> A.Declaration:
        return walk(conj_expand(env, decl), env)

    def walk(node, env: dict[str, A.Declaration]):
        if isinstance(node, A.Implication):
            return A.Implication(expand_decl(node.decl, env), walk(node.body, env))
        if isinstance(node, A.MacroScope):
            inner_env = {**env, **{macro_def.name: macro_def.body for macro_def in node.defs}}
            result = walk(node.body, inner_env)
            for macro_def in reversed(node.defs):
                result = A.Implication(expand_decl(macro_def.body, inner_env), result)
            return result
        return A.map_children(node, lambda child: walk(child, env))

    return walk(program.main, {macro_def.name: macro_def.body for macro_def in program.seeds()})


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
            return A.Assign(fresh("v"), A.Int(rng.randint(0, 9)))
        if roll < 0.7:
            return A.Print(A.Int(rng.randint(0, 9)))
        if roll < 0.9:
            return A.Call(rng.choice(procs + ["ghost"]), ())
        return A.Seq(A.Assign(fresh("v"), A.Int(1)), A.Call(rng.choice(procs), ()))

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
            return A.Assign(fresh("v"), A.Int(3))
        kind = rng.randrange(5)
        if kind == 0:
            return A.Seq(stmt(budget - 1, visible), stmt(budget - 1, visible))
        if kind == 1:
            return A.Implication(A.MacroRef(rng.choice(visible)), stmt(budget - 1, visible))
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


# ---------------------------------------------------------------------------
# Clause search: which clause of the deciding frame a call selects
# ---------------------------------------------------------------------------

SEARCH_SEEDS = [
    A.MacroDef("sm", A.And(closed_clause("p", ("x",), A.Print(A.Atom("sm"))), closed_clause("q", (), A.TrueStmt()))),
    A.MacroDef("sc", A.And(closed_clause("q", ("x",), A.Print(A.Atom("sc"))), A.MacroRef("sc"))),  # cyclic
]


def search_case(rng: random.Random) -> tuple[list[A.MacroDef], A.Statement]:
    """One or two frames of clauses named p, q or r at arities 0-3, under
    conjunctions, explicit foralls shared across conjuncts (an inner one
    may hide an outer one of its name), ren chains whose names may
    collide, and references to /sm (defined), /sc (cyclic) and /sg
    (undefined). A head parameter is a variable of an enclosing forall,
    one of the clause's own, one no forall binds, or a literal; some
    clause bodies push a declaration closed over the call's activation,
    so its head holds the call's value as a literal. The calls that
    follow have random names, arities and arguments; some run under a
    redefinition of /sm, which changes what a frame referring to it
    declares. Returns the seeds (SEARCH_SEEDS) and the statement."""
    names = ["p", "q", "r"]
    heads: list[tuple[str, int]] = []

    def clause(bound: list[str]) -> A.Declaration:
        name, tag = rng.choice(names), A.Print(A.Atom(f"c{len(heads)}"))
        if rng.random() < 0.2:  # its body pushes a declaration closed over the call
            pushed = A.Forall("y", A.Clause("s", (A.Var("w"), A.Var("y")), A.Print(A.Var("y"))))
            call = A.Call("s", (A.Int(rng.randint(0, 1)), A.Int(rng.randint(0, 1))))
            heads.append((name, 1))
            return closed_clause(name, ("w",), A.Seq(tag, A.Implication(pushed, call)))
        params: list[A.Expression] = []
        own: list[str] = []
        for i in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.2:
                params.append(A.Int(rng.randint(0, 1)))
            elif roll < 0.25:
                params.append(A.Var("z"))  # no forall binds it: the head never matches
            elif bound and roll < 0.8:
                params.append(A.Var(rng.choice(bound)))
            else:
                own.append(f"f{i}")
                params.append(A.Var(f"f{i}"))
        heads.append((name, len(params)))
        shown = [A.Print(A.Var(v)) for v in dict.fromkeys(p.name for p in params if isinstance(p, A.Var))]
        decl: A.Declaration = A.Clause(name, tuple(params), fold_seq([tag, *shown]))
        for var in reversed(own):
            decl = A.Forall(var, decl)
        return decl

    def build(budget: int, bound: list[str]) -> A.Declaration:
        roll = rng.random()
        if budget <= 0 or roll < 0.15:
            if rng.random() < 0.2:
                return A.MacroRef(rng.choice(["sm", "sm", "sc", "sg"]))
            return clause(bound)
        if roll < 0.55:
            return A.And(build(budget - 1, bound), build(budget - 1, bound))
        if roll < 0.85:
            var = rng.choice(["x", "y"])
            inner = build(budget - 1, bound + [var])
            if roll < 0.75:  # a forall shared across conjuncts, hidden in the second by one of its name
                inner = A.And(inner, A.Forall(var, build(budget - 1, bound + [var])))
            return A.Forall(var, inner)
        old, new = rng.sample(names, 2)
        return A.Rename(old, new, build(budget - 1, bound))

    def calls() -> A.Statement:
        stmts = []
        for _ in range(rng.randint(1, 3)):
            if heads and rng.random() < 0.8:
                name, arity = rng.choice(heads)
            else:
                name, arity = rng.choice(names), rng.randint(0, 3)
            stmts.append(A.Call(name, tuple(A.Int(rng.randint(0, 1)) for _ in range(arity))))
        return fold_seq(stmts)

    frames = [build(rng.randint(1, 4), []) for _ in range(rng.randint(1, 2))]
    body = calls()
    if rng.random() < 0.3:  # redefine /sm under the frames, then call again
        redefined = A.MacroScope((A.MacroDef("sm", build(1, [])),), calls())
        body = A.Seq(body, redefined) if rng.random() < 0.5 else A.Seq(redefined, body)
    for frame in frames:
        body = A.Implication(frame, body)
    return SEARCH_SEEDS, body


# ---------------------------------------------------------------------------
# Every family above, as (seeds, statement) programs
# ---------------------------------------------------------------------------


def _shadowing_program(rng: random.Random):
    return [], shadowing_case(rng)[0]


def _balanced_program(rng: random.Random):
    seeds, stmt, _ = balanced_case(rng)
    return seeds, stmt


def _region_program(rng: random.Random):
    return [], region_case(rng)[0]


def _macro_program(rng: random.Random):
    program = macro_equivalence_case(rng)
    return program.seeds(), program.main


def _conj_frame_program(rng: random.Random):
    frame, _, target = conj_frame(rng)
    return [], A.Implication(frame, A.Call(target, ()))


FAMILIES = {
    "shadowing": _shadowing_program,
    "balanced": _balanced_program,
    "region": _region_program,
    "macro_equivalence": _macro_program,
    "conj_frame": _conj_frame_program,
    "closure": closure_case,
    "search": search_case,
}


def family_programs(rounds: int, families=FAMILIES):
    """Yield (name, seeds, statement) for rounds programs of each of the
    families, every family drawn from its own random.Random(7)."""
    for family in families:
        program, rng = FAMILIES[family], random.Random(7)
        for i in range(rounds):
            seeds, stmt = program(rng)
            yield f"{family}-{i}", seeds, stmt
