"""Run the same inputs through a base commit and the working tree, and
report where they differ.

    python3 tests/sidebyside.py --base <git ref> [--rounds N]

The base's ``src/`` is exported with ``git archive`` into a temporary
directory outside the repository. The inputs are the corpus programs,
the hand-built cases of tests/test_golden.py, and ``--rounds`` programs
of every family in tests/proggen.py (``family_programs``, each family
drawn from random.Random(7)), plus ``--rounds`` x 10 source soups, also
drawn from random.Random(7). Each tree, in its own subprocess importing
its own ``cmod``, runs every program twice, untraced and traced: a run is
reduced to a hash of its outcome (reason, detail and call chain), final
store and output, plus the trace text when traced. A soup is only lexed
and parsed: its hash covers the token list or the LexError, then the
parse tree or the ParseError, and then what ``parse_source``, which
parses as it lexes, makes of it. The script prints the counts of differing
inputs by mode and by family (corpus, golden, each proggen family, soup),
with the first five names in each family.

A change may mean some inputs to differ. It lists each such (mode,
input) pair in tests/sidebyside_intended.txt, one a line as
``<mode> <input name>: <reason>``, the mode being untraced, traced or
soups; ``#`` comment lines and blank lines are skipped. A listed pair
that differs is reported as intended. The script exits 1 when a pair
that is not listed differs, or when a listed pair does not differ or
names no input, so the list is emptied by the change after the one it
was written for. It writes nothing inside the repository.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
INTENDED = TESTS / "sidebyside_intended.txt"
MODES = ("untraced", "traced", "soups")
GENERATED_MAX_DEPTH = 64  # generated programs may recurse without end

# Soups mix every lexical class, its edges and its errors, with token
# and statement fragments that sometimes join into a program.
SOUP_CHARS = [
    *"azAZ_\u00e9\u00df\u0436", *"09\u0663\u00b2\u00bd", " ", "\t", "\r", "\n", "\r\n", "% note", "%",
    '"', "\\", "\\n", "\\t", '\\"', "\\\\", "\\q", "$", "#", *"()[]{};,.=<>+-*/!:",
    "=>", "==", "!=", "<=", ">=", "&&", "||", "&", "|",
]
SOUP_FRAGMENTS = [
    "x", "y", "p", "M", "m", "12", "007", "12ab", "x\u00b2", "\u00b2x", "forall_x", '"ok"', '""', '"a\\nb"', '"a\\q"',
    "true", "false", "p(x) =", ";", "(", ")", "=>", "and", "forall y", "ren(p, q)", "/m", "module M.", "end",
    "macro /m = {", "}", "in", "if (x < 1)", "else", "switch (x) {", "case a:", "case -1:", "default:", "break;",
    "z = new int[3] =>", "!x", "-x", "x == y", "x && y || !x", "== 1", "< y", "+ 2", "* -3",
]
SOUP_STATEMENTS = [
    "x = 1", "y = x + 2 * 3", "print(x)", "p(1, y)", "(p(x) = print(x) => p(2))", "M => p()",
    "if (x < 1) y = 2 else y = 3", "z = new int[3] => (z[0] = 1; x = z[0])",
    "switch (x) { case a: y = 1; break; case -1: true; break; default: y = 2; break; }",
    "macro /m = { p() = true } in /m => p()", 'module M. p() = print("a\\tb") end',
    "(forall y p(y) = true and ren(p, q) /m) => q(1)", "x = !x || -x == y", "macro /m = { p() = true }",
]


def encode(node):
    """A syntax tree as JSON data: a node is [class name, *fields], a
    tuple is ["()", *items]; so a tree crosses between versions of cmod
    whose classes keep their names and field order."""
    if isinstance(node, tuple):
        return ["()", *map(encode, node)]
    if node is None or isinstance(node, (str, int)):
        return node
    return [type(node).__name__, *(encode(getattr(node, f)) for f in node.__match_args__)]


def decode(data):
    """The tree encode gave data for, built from this process's cmod.ast."""
    from cmod import ast

    if not isinstance(data, list):
        return data
    items = [decode(item) for item in data[1:]]
    return tuple(items) if data[0] == "()" else getattr(ast, data[0])(*items)


def observe(program, max_depth: int, traced: bool) -> tuple[str, str, str, str]:
    """(outcome, store, output, trace text) of one run from an empty
    machine, with the cmod on sys.path. program is a source text, or a
    (seeds, statement) pair of trees, executed without desugaring."""
    from cmod import ast
    from cmod.engine import Success, execute, machine_for, run_source
    from cmod.parser import SourceProgram

    lines: list[str] = []
    trace = (lambda event: lines.append(event.format())) if traced else None
    if isinstance(program, str):
        outcome, machine = run_source(program, max_depth=max_depth, trace=trace)
    else:
        seeds, main = program
        machine = machine_for(SourceProgram((), tuple(seeds), main), max_depth=max_depth, trace=trace)
        outcome = execute(machine, main)
    if isinstance(outcome, Success):
        result = "ok"
    else:
        chain = " <- ".join(site.render() for site in reversed(outcome.call_chain))
        result = f"{outcome.reason}: {outcome.detail} [{chain}]"
    store = ", ".join(f"{k}={ast.render_value(v)}" for k, v in sorted(machine.store.items()))
    return result, store, machine.output_text(), "\n".join(lines)


def inputs(rounds: int) -> list[dict]:
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    import proggen
    import test_golden

    items = [
        {"name": f"corpus/{path.name}", "source": path.read_text(encoding="utf-8"), "max_depth": 10000}
        for path in sorted((ROOT / "corpus").glob("*.cmod"))
    ]
    cases = [(f"golden/{name}", *build()) for name, build in sorted(test_golden.CASES.items())]
    for name, seeds, main in cases + list(proggen.family_programs(rounds)):
        depth = 10000 if name.startswith("golden/") else GENERATED_MAX_DEPTH
        items.append({"name": name, "seeds": [encode(s) for s in seeds], "main": encode(main), "max_depth": depth})
    items.extend({"name": name, "soup": source} for name, source in soups(rounds * 10))
    return items


def soups(count: int):
    """(name, source) pairs of count seeded source soups."""
    rng = random.Random(7)
    for i in range(count):
        pieces = rng.choice([SOUP_CHARS, SOUP_FRAGMENTS + SOUP_STATEMENTS, SOUP_CHARS + SOUP_FRAGMENTS, SOUP_STATEMENTS])
        sep = rng.choice(["", " ", "\n", "; "])
        yield f"soup/{i}", sep.join(rng.choice(pieces) for _ in range(rng.randint(0, 16)))


def soup_digest(source: str) -> str:
    """The token list or the LexError of source, then its encoded parse
    tree or its ParseError, with the cmod on sys.path."""
    from cmod.errors import LexError, ParseError
    from cmod.lexer import tokenize
    from cmod.parser import parse_program

    try:
        tokens = tokenize(source)
    except LexError as exc:
        return f"LexError {exc.char!r} {exc}"
    lexed = repr([token_fields(tok) for tok in tokens])
    try:
        return f"{lexed}\n{json.dumps(encode(parse_program(tokens)))}"
    except ParseError as exc:
        return f"{lexed}\nParseError {exc} at_eof={exc.at_eof}"


def token_fields(tok) -> tuple:
    """(kind, lexeme, line, column) of a token, whether a ``Token`` node with
    those fields or a ``(kind, lexeme, offset, source)`` tuple, whose line
    and column are those a diagnostic at its offset reports, with the cmod
    on sys.path."""
    from cmod.errors import ParseError

    if isinstance(tok, tuple):
        kind, lexeme, offset, source = tok
        error = ParseError(source, offset, "", "")
        return kind, lexeme, error.line, error.column
    return tok.kind, tok.lexeme, tok.line, tok.column


def streamed_digest(source: str) -> str:
    """The encoded parse tree of parse_source(source), the path that cmod
    run and fmt take, or its error's class, message and at_eof."""
    from cmod.errors import LexError, ParseError
    from cmod.parser import parse_source

    try:
        return json.dumps(encode(parse_source(source)))
    except (LexError, ParseError) as exc:
        return f"{type(exc).__name__} {exc} at_eof={getattr(exc, 'at_eof', None)}"


def _digest(parts) -> str:
    return hashlib.sha256("\0".join(parts).encode("utf-8")).hexdigest()


def work(path: str) -> None:
    """Worker: one line per input, [untraced hash, traced hash] for a
    program and [hash] for a soup."""
    from cmod.engine import call_with_deep_stack

    def run_all():
        for item in json.loads(Path(path).read_text(encoding="utf-8")):
            if "soup" in item:
                print(json.dumps([_digest([soup_digest(item["soup"]), streamed_digest(item["soup"])])]))
                continue
            if "source" in item:
                program = item["source"]
            else:
                program = [decode(s) for s in item["seeds"]], decode(item["main"])
            runs = [observe(program, item["max_depth"], traced) for traced in (False, True)]
            print(json.dumps([_digest(runs[0][:3]), _digest(runs[1])]))

    call_with_deep_stack(run_all)


def run_tree(src: Path, inputs_path: Path) -> list[list[str]]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, __file__, "--worker", str(inputs_path)],
        env=env, cwd=inputs_path.parent, capture_output=True, text=True,
    )
    if done.returncode:
        sys.exit(f"worker on {src} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def family(name: str) -> str:
    """The family of an input: corpus, golden, soup or a tests/proggen.py family."""
    return name.split("/")[0] if "/" in name else name.rsplit("-", 1)[0]


def read_intended(path: Path) -> dict[tuple[str, str], str]:
    """The intended differences listed in path: (mode, input name) -> reason."""
    intended = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        mode, _, rest = line.strip().partition(" ")
        name, _, reason = rest.partition(": ")
        if mode not in MODES or not name or not reason.strip():
            raise ValueError(f"{path}:{number}: expected '<mode> <input name>: <reason>', the mode one of {', '.join(MODES)}")
        intended[mode, name] = reason.strip()
    return intended


def summary(items: list[dict], base: list[list[str]], head: list[list[str]], intended=None) -> tuple[list[str], bool]:
    """The report's lines, and whether the run fails: the counts by mode,
    then each family's count of differing inputs, how many of them differ
    only as intended, and the first five of their names; then the intended
    differences, and the listed ones that do not differ. The run fails on
    a difference that is not intended and on a listed one that does not
    differ."""
    intended = intended or {}
    differ = dict.fromkeys(MODES, 0)
    totals = collections.Counter(family(item["name"]) for item in items)
    differing: dict[str, list[str]] = {name: [] for name in totals}
    as_intended = collections.Counter()
    seen, unintended = set(), 0
    for item, old, new in zip(items, base, head):
        modes = ["soups"] if "soup" in item else ["untraced", "traced"]
        changed = [(mode, item["name"]) for mode, old_hash, new_hash in zip(modes, old, new) if old_hash != new_hash]
        for mode, _ in changed:
            differ[mode] += 1
        listed = [pair for pair in changed if pair in intended]
        seen.update(listed)
        unintended += len(changed) - len(listed)
        if changed:
            differing[family(item["name"])].append(item["name"])
            as_intended[family(item["name"])] += len(listed) == len(changed)
    lines = [
        f"inputs: {len(items)} (base ran {len(base)}, working tree ran {len(head)})",
        "differ " + ", ".join(f"{mode}: {count}" for mode, count in differ.items()),
    ]
    for name, total in totals.items():
        names = differing[name]
        listed = f", {as_intended[name]} as intended" if as_intended[name] else ""
        first = f" ({', '.join(names[:5])})" if names else ""
        lines.append(f"  {name}: {len(names)} of {total} differ{listed}{first}")
    known = {item["name"] for item in items}
    for (mode, name), reason in intended.items():
        if (mode, name) in seen:
            lines.append(f"intended {mode} {name}: {reason}")
        else:
            lines.append(f"listed as intended, but {'does not differ' if name in known else 'names no input'}: {mode} {name}")
    return lines, bool(unintended or len(seen) < len(intended))


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git ref of the base commit")
    parser.add_argument("--rounds", type=int, default=400, help="programs per generator family")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        work(args.worker)
        return 0
    if not args.base:
        parser.error("--base is required")

    try:
        intended = read_intended(INTENDED)
    except ValueError as exc:
        parser.error(str(exc))
    items = inputs(args.rounds)
    with tempfile.TemporaryDirectory(prefix="cmod-sidebyside-") as tmp:
        tmp_path = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp_path / "base")
        inputs_path = tmp_path / "inputs.json"
        inputs_path.write_text(json.dumps(items), encoding="utf-8")
        base = run_tree(tmp_path / "base" / "src", inputs_path)
        head = run_tree(ROOT / "src", inputs_path)

    lines, failed = summary(items, base, head, intended)
    print("\n".join(lines))
    return 1 if failed or not len(base) == len(head) == len(items) else 0


if __name__ == "__main__":
    sys.exit(main())
