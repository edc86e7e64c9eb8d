"""Run the same inputs through a base commit and the working tree, and
report where they differ.

    python3 tests/sidebyside.py --base <git ref> [--rounds N]

The base's ``src/`` is exported with ``git archive`` into a temporary
directory outside the repository. The inputs are the corpus programs,
the hand-built cases of tests/test_golden.py, and ``--rounds`` programs
of every family in tests/proggen.py (``family_programs``, each family
drawn from random.Random(7)). Each tree runs every input twice, untraced
and traced, in its own subprocess importing its own ``cmod``. A run is
reduced to a hash of its outcome (reason, detail and call chain), final
store and output, plus the trace text when traced. The script prints the
counts and the first input that differs, and exits 1 when any input
differs. It writes nothing inside the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GENERATED_MAX_DEPTH = 64  # generated programs may recurse without end


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
    from cmod.engine import Success, execute, run_source
    from cmod.machine import Machine

    lines: list[str] = []
    trace = (lambda event: lines.append(event.format())) if traced else None
    if isinstance(program, str):
        outcome, machine = run_source(program, max_depth=max_depth, trace=trace)
    else:
        seeds, main = program
        machine = Machine.initial(seeds=seeds, max_depth=max_depth, trace=trace)
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
    return items


def _digest(parts) -> str:
    return hashlib.sha256("\0".join(parts).encode("utf-8")).hexdigest()


def work(path: str) -> None:
    """Worker: one line per input, [untraced hash, traced hash]."""
    from cmod.engine import call_with_deep_stack

    def run_all():
        for item in json.loads(Path(path).read_text(encoding="utf-8")):
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

    first = None
    differ = [0, 0]
    for item, old, new in zip(items, base, head):
        for mode in (0, 1):
            if old[mode] != new[mode]:
                differ[mode] += 1
                first = first or f"{item['name']} ({'traced' if mode else 'untraced'})"
    print(f"inputs: {len(items)} (base ran {len(base)}, working tree ran {len(head)})")
    print(f"differ untraced: {differ[0]}, traced: {differ[1]}")
    if first:
        print(f"first difference: {first}")
    return 1 if first or not len(base) == len(head) == len(items) else 0


if __name__ == "__main__":
    sys.exit(main())
