"""Command-line front end: run programs, the interactive REPL, and the
formatter.

Exit codes: 0 success, 1 no matching clause, 2 lex/parse error, a
program nested too deeply to process, or a file that cannot be read or
decoded, 3 other runtime faults (unbound variable, region fault, depth
exceeded, type mismatch, division by zero) and internal errors, 130 an
interrupt (Ctrl-C). Program output goes to stdout; diagnostics and the
derivation trace go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import ast
from .engine import call_with_deep_stack, execute, run_source
from .errors import NO_MATCHING_CLAUSE, TOO_DEEP, CmodError, EngineFailure, LexError, ParseError
from .machine import DEFAULT_MAX_DEPTH, Machine
from .parser import parse_repl_input, parse_source
from .printer import format_declaration, pretty_print

EXIT_OK = 0
EXIT_NO_CLAUSE = 1
EXIT_SYNTAX = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _diagnostic(failure: EngineFailure) -> str:
    line = f"{failure.reason.replace('-', ' ')}: {failure.detail}"
    chain = failure.render_chain()
    if chain:
        line += f" (call chain: {chain})"
    return line


def _stderr_trace(event) -> None:
    sys.stderr.write(event.format() + "\n")  # one write: an interrupt cannot split the line


def _store_lines(machine: Machine) -> list[str]:
    return [f"{name} = {ast.render_value(machine.store[name])}" for name in sorted(machine.store)]


def _dump_state(machine: Machine) -> None:
    print("-- store --")
    for line in _store_lines(machine):
        print(line)
    stack = machine.regions
    print(f"-- regions: {stack.allocated} allocated, {len(stack.regions)} live --")
    for region in stack.regions:
        print(f"{region.id} {region.elem_type} {len(region.cells)}")


def _cmd_run(args, source: str) -> int:
    trace = _stderr_trace if args.trace else None
    outcome, machine = call_with_deep_stack(
        run_source, source, max_depth=args.max_depth, trace=trace
    )
    sys.stdout.write(machine.output_text())
    if args.dump_state:
        _dump_state(machine)
    if isinstance(outcome, EngineFailure):
        print(f"cmod: {_diagnostic(outcome)}", file=sys.stderr)
        return EXIT_NO_CLAUSE if outcome.reason == NO_MATCHING_CLAUSE else EXIT_RUNTIME
    return EXIT_OK


def _cmd_fmt(source: str) -> int:
    print(call_with_deep_stack(lambda: pretty_print(parse_source(source))))
    return EXIT_OK


def _cmd_repl(args) -> int:
    trace = _stderr_trace if args.trace else None
    machine = Machine.initial(max_depth=args.max_depth, trace=trace)
    print("cmod repl; :quit to leave, :store :stack :macros :reset to inspect")
    buffer = ""
    while True:
        prompt = "....> " if buffer else "cmod> "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return EXIT_OK

        if not buffer and line.strip().startswith(":"):
            command = line.strip()
            if command in (":quit", ":q"):
                return EXIT_OK
            if command == ":reset":
                machine = Machine.initial(max_depth=args.max_depth, trace=trace)
                print("machine reset")
            elif command == ":store":
                for line in _store_lines(machine) or ["(empty)"]:
                    print(line)
            elif command == ":stack":
                if machine.module_stack:
                    for frame in reversed(machine.module_stack):
                        print(format_declaration(frame, compact=True))
                else:
                    print("(empty)")
            elif command == ":macros":
                names = machine.macro_env.names()
                print(" ".join(f"/{n}" for n in names) if names else "(empty)")
            else:
                print(f"unknown command {command}")
            continue

        buffer = f"{buffer}\n{line}" if buffer else line
        if not buffer.strip():
            buffer = ""
            continue

        try:
            call_with_deep_stack(_repl_entry, machine, buffer)
        except ParseError as exc:
            if exc.at_eof and line.strip():
                continue  # statement not finished; keep reading
            print(f"syntax error: {exc}")
        except LexError as exc:
            print(f"syntax error: {exc}")
        buffer = ""


def _repl_entry(machine: Machine, source: str) -> None:
    """Parse one REPL entry, define its modules and macros, and run its
    statement, reporting each step."""
    seeds, stmt = parse_repl_input(source)
    if seeds:
        machine.macro_env = machine.macro_env.define(seeds)
        print("defined " + ", ".join(f"/{d.name}" for d in seeds))
    if stmt is not None:
        outcome = execute(machine, stmt)
        sys.stdout.write(machine.output_text())
        machine.output.clear()  # a session keeps no line it has printed
        if isinstance(outcome, EngineFailure):
            print(_diagnostic(outcome))
        else:
            print("ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmod",
        description="Interpreter for the cmod language (statement-local modules, "
        "macros, and region-scoped allocation).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a .cmod program file")
    run_p.add_argument("file", help="program file")
    run_p.add_argument("--trace", action="store_true", help="write the derivation trace to stderr")
    run_p.add_argument("--max-depth", type=_positive_int, default=DEFAULT_MAX_DEPTH,
                       help="call-depth limit (default %(default)s)")
    run_p.add_argument("--dump-state", action="store_true",
                       help="dump the final store and region table to stdout")

    repl_p = sub.add_parser("repl", help="interactive session")
    repl_p.add_argument("--trace", action="store_true", help="write the derivation trace to stderr")
    repl_p.add_argument("--max-depth", type=_positive_int, default=DEFAULT_MAX_DEPTH)

    fmt_p = sub.add_parser("fmt", help="reprint a program in canonical form")
    fmt_p.add_argument("file", help="program file")

    args = parser.parse_args(argv)
    try:
        if args.command == "repl":
            return _cmd_repl(args)
        try:
            with open(args.file, encoding="utf-8") as file:
                source = file.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cmod: cannot read {args.file}: {exc}", file=sys.stderr)
            return EXIT_SYNTAX
        if args.command == "run":
            return _cmd_run(args, source)
        return _cmd_fmt(source)
    except (LexError, ParseError) as exc:
        print(f"cmod: syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except RecursionError:  # only formatting still runs out of Python stack here
        print(f"cmod: syntax error: {TOO_DEEP}", file=sys.stderr)
        return EXIT_SYNTAX
    except KeyboardInterrupt:
        print("cmod: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except CmodError as exc:  # pragma: no cover - safety net
        print(f"cmod: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - no input may end in a traceback
        print(f"cmod: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
