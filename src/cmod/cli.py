"""Command-line front end: run programs, the interactive REPL, and the formatter.

Exit codes: 0 success or --help, 1 no matching clause, 2 lex/parse error, a usage
error or a file that cannot be read or decoded, 3 other runtime faults (unbound
variable, region fault, depth exceeded, type mismatch, division by zero), output
that cannot be written and internal errors, 130 an interrupt (Ctrl-C). main(argv)
returns the code once it has flushed stdout, and the process ends with os._exit.
Program output goes to stdout; diagnostics and the derivation trace go to stderr,
and a diagnostic that cannot be written changes no exit code. Everything runs on
the calling thread: no input needs a deep Python stack.
"""

from __future__ import annotations

import os
import sys

from . import ast
from .engine import execute, run_source
from .errors import NO_MATCHING_CLAUSE, EngineFailure, LexError, ParseError
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


def _report(code: int, text: str) -> int:
    """Write one diagnostic line to stderr and return code, whether or not stderr can be written."""
    try:
        sys.stderr.write(f"{text}\n")
        sys.stderr.flush()
    except (AttributeError, OSError):  # stderr closed at start (None), full, or a pipe with no reader
        pass
    return code


def _usage_error(message: str) -> int:
    return _report(EXIT_SYNTAX, f"{USAGE}cmod: error: {message}")


def _parse_args(argv: list[str]) -> tuple[str, str | None, dict] | int:
    """(command, file, options) from argv as README's grammar gives them, options before or after
    the file, each mapped to its value; or, for --help or a usage error, the exit code."""
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
            return EXIT_OK
        if len(matches) != 1:
            return _usage_error(f"ambiguous option: {name} could match {', '.join(matches)}" if matches
                                else f"unrecognized arguments: {word}")
        name = matches[0]
        if name != "--max-depth":
            if given:
                return _usage_error(f"argument {name}: ignored explicit argument {value!r}")
            options[name] = True
            continue
        value = value if given else next(words, "")
        try:
            options[name] = int(value)
        except ValueError:
            return _usage_error(f"argument {name}: {f'invalid int value: {value!r}' if value else 'expected one argument'}")
        if options[name] < 1:
            return _usage_error(f"argument {name}: must be at least 1")
    if command not in COMMANDS:
        return _usage_error(f"argument command: invalid choice: {command!r} (choose from 'run', 'repl', 'fmt')"
                            if command else "the following arguments are required: command")
    wanted = command != "repl"  # the number of files
    if len(files) != wanted:
        return _usage_error(f"unrecognized arguments: {' '.join(files[wanted:])}" if files
                            else "the following arguments are required: file")
    return command, files[0] if files else None, options


def _diagnostic(failure: EngineFailure) -> str:
    chain = failure.render_chain()
    return f"{failure.reason.replace('-', ' ')}: {failure.detail}" + (f" (call chain: {chain})" if chain else "")


def _stderr_trace(event) -> None:
    sys.stderr.write(event.format() + "\n")  # one write: an interrupt cannot split the line


def _store_lines(machine: Machine) -> list[str]:
    return [f"{name} = {ast.render_value(machine.store[name])}" for name in sorted(machine.store)]


def _dump_state(machine: Machine) -> None:
    stack = machine.regions
    print("-- store --", *_store_lines(machine), f"-- regions: {stack.allocated} allocated, {len(stack.regions)} live --",
          *(f"{serial} int {len(cells)}" for serial, cells in stack.regions.items()), sep="\n")


def _cmd_run(source: str, options: dict) -> int:
    trace = _stderr_trace if options["--trace"] else None
    outcome, machine = run_source(source, options["--max-depth"], trace, sys.stdout.write)
    if options["--dump-state"]:
        _dump_state(machine)
    if isinstance(outcome, EngineFailure):
        return _report(EXIT_NO_CLAUSE if outcome.reason == NO_MATCHING_CLAUSE else EXIT_RUNTIME,
                       f"cmod: {_diagnostic(outcome)}")
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
                print(*_store_lines(machine) or ["(empty)"], sep="\n")
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
        except (LexError, ParseError) as exc:
            if isinstance(exc, ParseError) and exc.at_eof and line.strip():
                continue  # statement not finished; keep reading
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


def _run_command(argv: list[str]) -> int:
    if sys.stdout is None:
        raise OSError("standard output is closed")
    parsed = _parse_args(argv)
    if isinstance(parsed, int):  # --help or a usage error
        return parsed
    command, path, options = parsed
    if options["--trace"]:  # each printed line then keeps its place among the trace lines
        sys.stdout.reconfigure(line_buffering=True)
    if command == "repl":
        return _cmd_repl(options)
    try:
        with open(path, encoding="utf-8") as file:
            source = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _report(EXIT_SYNTAX, f"cmod: cannot read {path}: {exc}")
    if command == "run":
        return _cmd_run(source, options)
    print(pretty_print(parse_source(source)))
    return EXIT_OK


def _guarded(step, *args) -> int | None:
    """step(*args), or the exit code of the failure it ends in, once reported."""
    try:
        return step(*args)
    except (LexError, ParseError) as exc:
        return _report(EXIT_SYNTAX, f"cmod: syntax error: {exc}")
    except KeyboardInterrupt:
        return _report(EXIT_INTERRUPTED, "cmod: interrupted")
    except OSError as exc:  # a source that cannot be read is reported above: this is a write
        sys.stdout = None  # what it still holds would only fail again
        return _report(EXIT_RUNTIME, f"cmod: cannot write output: {exc}")
    except Exception as exc:  # noqa: BLE001 - no input may end in a traceback
        return _report(EXIT_RUNTIME, f"cmod: internal error: {type(exc).__name__}: {exc}")


def main(argv=None) -> int:
    """Run one command, then flush stdout, however the command ended; the exit code."""
    code = _guarded(_run_command, sys.argv[1:] if argv is None else list(argv))
    # stdout is None once a write to it failed; a flush that fails, or a Ctrl-C in it, has its own code
    return (sys.stdout and _guarded(sys.stdout.flush)) or code


def entry() -> None:
    """The process: main(), then an exit that skips interpreter teardown (stderr is written a line at a time)."""
    os._exit(main())
