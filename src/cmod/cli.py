"""Command-line front end: run programs, the interactive REPL, and the
formatter.

Exit codes: 0 success, 1 no matching clause, 2 lex/parse error or a
file that cannot be read or decoded, 3 other runtime faults (unbound
variable, region fault, depth exceeded, type mismatch, division by zero)
and internal errors, 130 an interrupt (Ctrl-C). Program output goes to
stdout; diagnostics and the derivation trace go to stderr. Everything
runs on the calling thread: no input needs a deep Python stack.
"""

from __future__ import annotations

import sys

from . import ast
from .engine import execute, run_source
from .errors import NO_MATCHING_CLAUSE, CmodError, EngineFailure, LexError, ParseError
from .machine import DEFAULT_MAX_DEPTH, Machine
from .parser import parse_repl_input, parse_source
from .printer import pretty_print

EXIT_OK = 0
EXIT_NO_CLAUSE = 1
EXIT_SYNTAX = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130


USAGE = """usage: cmod run <file> [--trace] [--max-depth N] [--dump-state]
       cmod repl [--trace] [--max-depth N]
       cmod fmt <file>
"""
# Each command's options; run and fmt also take one file.
COMMANDS = {"run": ("--help", "--trace", "--max-depth", "--dump-state"),
            "repl": ("--help", "--trace", "--max-depth"), "fmt": ("--help",)}


def _usage_error(message: str):
    sys.stderr.write(f"{USAGE}cmod: error: {message}\n")
    raise SystemExit(EXIT_SYNTAX)


def _parse_args(argv: list[str]) -> tuple[str, str | None, dict]:
    """(command, file, options) from argv as README's grammar gives them, options
    before or after the file; options maps every option name to its value."""
    command = argv[0] if argv else ""
    names = COMMANDS.get(command, ("--help",))
    files, options = [], {"--trace": False, "--max-depth": DEFAULT_MAX_DEPTH, "--dump-state": False}
    words = iter(argv[command in COMMANDS:])
    for word in words:
        if word[:1] != "-" or word == "-":
            files.append(word)
            continue
        name, given, value = word.partition("=")
        matches = [n for n in names if n == name] or [n for n in names if n.startswith(name) and len(name) > 2]
        if name == "-h" or matches == ["--help"]:
            sys.stdout.write(USAGE)
            raise SystemExit(EXIT_OK)
        if len(matches) != 1:
            _usage_error(f"ambiguous option: {name} could match {', '.join(matches)}" if matches
                         else f"unrecognized arguments: {word}")
        name = matches[0]
        if name != "--max-depth":
            if given:
                _usage_error(f"argument {name}: ignored explicit argument {value!r}")
            options[name] = True
            continue
        value = value if given else next(words, "")
        try:
            options[name] = int(value)
        except ValueError:
            _usage_error(f"argument {name}: {f'invalid int value: {value!r}' if value else 'expected one argument'}")
        if options[name] < 1:
            _usage_error(f"argument {name}: must be at least 1")
    if command not in COMMANDS:
        _usage_error(f"argument command: invalid choice: {command!r} (choose from 'run', 'repl', 'fmt')"
                     if command else "the following arguments are required: command")
    wanted = command != "repl"  # the number of files
    if len(files) != wanted:
        _usage_error(f"unrecognized arguments: {' '.join(files[wanted:])}" if files
                     else "the following arguments are required: file")
    return command, files[0] if files else None, options


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
    for region in stack.regions.values():
        print(f"{region.id} {region.elem_type} {len(region.cells)}")


def _cmd_run(source: str, options: dict) -> int:
    trace = _stderr_trace if options["--trace"] else None
    outcome, machine = run_source(source, options["--max-depth"], trace, sys.stdout.write)
    if options["--dump-state"]:
        _dump_state(machine)
    if isinstance(outcome, EngineFailure):
        print(f"cmod: {_diagnostic(outcome)}", file=sys.stderr)
        return EXIT_NO_CLAUSE if outcome.reason == NO_MATCHING_CLAUSE else EXIT_RUNTIME
    return EXIT_OK


def _cmd_repl(options: dict) -> int:
    trace = _stderr_trace if options["--trace"] else None
    machine = Machine(max_depth=options["--max-depth"], trace=trace, write=sys.stdout.write)
    print("cmod repl; :quit to leave, :store :macros :reset to inspect")
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
                machine = Machine(max_depth=machine.max_depth, trace=trace, write=machine.write)
                print("machine reset")
            elif command == ":store":
                for line in _store_lines(machine) or ["(empty)"]:
                    print(line)
            elif command == ":macros":
                print(" ".join(f"/{n}" for n in machine.macro_env) or "(empty)")
            else:
                print(f"unknown command {command}")
            continue

        buffer = f"{buffer}\n{line}" if buffer else line
        if not buffer.strip():
            buffer = ""
            continue

        try:
            _repl_entry(machine, buffer)
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
        machine.macro_env.define(seeds)
        print("defined " + ", ".join(f"/{d.name}" for d in seeds))
    if stmt is not None:
        outcome = execute(machine, stmt)
        if isinstance(outcome, EngineFailure):
            print(_diagnostic(outcome))
        else:
            print("ok")


def main(argv=None) -> int:
    command, path, options = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if options["--trace"]:  # each printed line then keeps its place among the trace lines
        sys.stdout.reconfigure(line_buffering=True)
    try:
        if command == "repl":
            return _cmd_repl(options)
        try:
            with open(path, encoding="utf-8") as file:
                source = file.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cmod: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_SYNTAX
        if command == "run":
            return _cmd_run(source, options)
        print(pretty_print(parse_source(source)))
        return EXIT_OK
    except (LexError, ParseError) as exc:
        print(f"cmod: syntax error: {exc}", file=sys.stderr)
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
