"""The traced in-process pass that gives the per-layer metrics.

Each program goes through the same stages as ``cmod run`` (tokenize,
parse, seed the machine, desugar, execute), called one by one from here
under ``call_with_deep_stack``, with a span around each stage. Inside
``execute``, the module attributes the engine calls through are swapped
for timing and counting wrappers for the length of the pass, and the
public trace hook counts rule ids. Nothing under ``src/`` is edited.

A span's self time is its duration minus the time covered by the spans
directly inside it. Stage spans are kept one per program and stage; the
calls inside ``execute`` run into the millions, so their spans are folded
as they end into per-name totals (calls, time, time of inner spans). All
of it stays in memory until ``write_spans`` at the end.

An untraced in-process pass over the same programs runs first; the ratio
of the two is ``trace_overhead``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from pathlib import Path

import cmod.ast
import cmod.engine
from cmod.engine import Failure, call_with_deep_stack, execute, machine_for
from cmod.errors import NO_MATCHING_CLAUSE, EngineFailure, LexError, ParseError
from cmod.lexer import tokenize
from cmod.macros import MacroEnv
from cmod.parser import parse_program
from cmod.regions import RegionStack

import programs

# (owner, attribute, span name) of every call the engine makes through a
# module or class attribute that is timed in the traced pass.
WRAPPED = (
    (cmod.ast, "free_procedure_names", "ast.free_names"),
    (cmod.engine, "rename", "macros.rename"),
    (cmod.engine, "substitute", "engine.substitute"),
    (cmod.engine, "region_read", "regions.access"),
    (cmod.engine, "region_write", "regions.access"),
    (cmod.engine, "format_statement", "printer.format"),
    (cmod.engine, "format_declaration", "printer.format"),
    (RegionStack, "allocate", "regions.alloc"),
    (RegionStack, "free", "regions.free"),
    (MacroEnv, "find", "macros.find"),
    (EngineFailure, "__init__", "errors.failure"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {
        "cli.process_s": "s", "cli.import_s": "s", "cli.empty_run_s": "s",
        "lexer.s": "s", "lexer.tokens": "count", "lexer.tokens_per_s": "1/s",
        "parser.s": "s", "parser.nodes": "count", "parser.nodes_per_s": "1/s",
        "ast.desugar_s": "s", "ast.free_names_calls": "count", "ast.free_names_s": "s",
        "macros.find_calls": "count", "macros.find_s": "s",
        "macros.rename_calls": "count", "macros.rename_s": "s",
        "machine.peak_module_stack": "count",
        "engine.execute_s": "s", "engine.steps": "count", "engine.calls": "count",
        "engine.clause_matches": "count", "engine.fallthroughs": "count",
        "engine.match_ratio": "ratio", "engine.substitute_calls": "count",
        "engine.substitute_s": "s", "engine.peak_depth": "count",
        "errors.failures_built": "count", "errors.chain_entries_copied": "count",
        "regions.allocs": "count", "regions.alloc_s": "s", "regions.frees": "count",
        "regions.free_s": "s", "regions.accesses": "count", "regions.access_s": "s",
        "regions.peak_live": "count", "regions.retained_cells": "count",
        "printer.format_calls": "count", "printer.format_s": "s",
        "printer.trace_bytes": "B", "printer.trace_lines": "count",
        "printer.trace_bytes_growth": "ratio",
    }
    for family in programs.FAMILIES:
        units[f"scale.{family}"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


class Spans:
    """Span recorder: a stack of inner-time accumulators, one per open span."""

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, inner seconds]
        self.stages: list[tuple[str, str, float, float]] = []  # program, stage, start, end
        self._inner = [0.0]

    def wrap(self, name: str, fn):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        inner = self._inner
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += inner.pop()
                inner[-1] += elapsed

        return traced

    def stage(self, program: str, name: str, fn, *args):
        start = time.perf_counter()
        result = self.wrap(name, fn)(*args)
        self.stages.append((program, name, start, time.perf_counter()))
        return result

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        _, total, inner = self.totals.get(name, [0, 0.0, 0.0])
        return total - inner


class Counts:
    """Counts taken from the public trace hook and from the machine it
    runs against, plus the region and failure counters."""

    def __init__(self):
        self.rules: Counter = Counter()
        self.trace_bytes = 0
        self.calls = 0
        self.peak_depth = 0
        self.peak_module_stack = 0
        self.live = 0
        self.peak_live = 0
        self.failures = 0
        self.chain_entries = 0
        self.machine = None

    def hook(self, event) -> None:
        self.rules[f"{event.phase}:{event.rule_id}"] += 1
        # the bytes `cmod run --trace` writes for this event, computed
        # rather than built: lines are O(depth) long
        self.trace_bytes += (
            2 * event.depth + len(event.phase) + len(str(event.rule_id)) + 3
            + len(event.subject.encode("utf-8"))
        )
        if event.phase == "ex" and event.rule_id == 7 and not event.subject.startswith("print("):
            self.calls += 1
        machine = self.machine
        self.peak_depth = max(self.peak_depth, len(machine.call_stack))
        self.peak_module_stack = max(self.peak_module_stack, len(machine.module_stack))


def _run_stages(source: str, spans: Spans | None, counts: Counts | None, key: str):
    """tokenize → parse → seed → desugar → execute, as run_source does.
    Returns (exit code cmod run would give, machine, tokens, program)."""

    def stage(name, fn, *args):
        return spans.stage(key, name, fn, *args) if spans else fn(*args)

    try:
        tokens = stage("lex", tokenize, source)
        program = stage("parse", parse_program, tokens)
    except (LexError, ParseError):
        return 2, None, None, None
    machine = stage("seed", lambda p: machine_for(p, trace=counts.hook if counts else None), program)
    if counts:
        counts.machine = machine
    main = stage("desugar", cmod.ast.desugar, program.main)
    outcome = stage("execute", execute, machine, main)
    if isinstance(outcome, Failure):
        return (1 if outcome.reason == NO_MATCHING_CLAUSE else 3), machine, tokens, program
    return 0, machine, tokens, program


def count_nodes(root) -> int:
    """Syntax-tree nodes (dataclass instances) reachable from root."""
    nodes, todo = 0, [root]
    while todo:
        node = todo.pop()
        if dataclasses.is_dataclass(node):
            nodes += 1
            todo.extend(getattr(node, f.name) for f in dataclasses.fields(node))
        elif isinstance(node, tuple):
            todo.extend(node)
    return nodes


class Layers:
    def __init__(self):
        self.values: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.spans = Spans()

    def check(self, prog: programs.Program, code: int, machine, events: int | None) -> None:
        self.attempted += 1
        output = machine.output_text() if machine else ""
        if code != prog.exit_code:
            self.failures.append(f"in-process {prog.key}: exit {code}, expected {prog.exit_code}")
        elif output != prog.stdout:
            self.failures.append(f"in-process {prog.key}: stdout {output[:80]!r}, expected {prog.stdout[:80]!r}")
        elif prog.trace and events is not None and events != prog.trace_lines:
            self.failures.append(f"in-process {prog.key}: {events} trace events, expected {prog.trace_lines}")

    def write_spans(self, path: Path) -> None:
        data = {
            "stages": [
                {"program": p, "stage": s, "start": a, "end": b} for p, s, a, b in self.spans.stages
            ],
            "totals": {
                name: {"calls": c, "seconds": t, "self_seconds": t - inner}
                for name, (c, t, inner) in sorted(self.spans.totals.items())
            },
        }
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")


def measure(progs: list[programs.Program]) -> Layers:
    """One untraced, then one traced in-process pass over progs."""
    layers = Layers()

    untraced = 0.0
    for prog in progs:
        start = time.perf_counter()
        code, machine, _, _ = call_with_deep_stack(_run_stages, prog.source, None, None, prog.key)
        untraced += time.perf_counter() - start
        layers.check(prog, code, machine, None)

    spans = layers.spans
    counts = Counts()
    tokens = nodes = retained = 0
    original = {(owner, attr): getattr(owner, attr) for owner, attr, _ in WRAPPED}

    def counted_init(failure, reason, detail, call_chain=()):
        counts.failures += 1
        counts.chain_entries += len(call_chain)
        original[EngineFailure, "__init__"](failure, reason, detail, call_chain)

    def allocate(stack, elem_type, length):
        counts.live += 1
        counts.peak_live = max(counts.peak_live, counts.live)
        return original[RegionStack, "allocate"](stack, elem_type, length)

    def free(stack, handle):
        counts.live -= 1
        return original[RegionStack, "free"](stack, handle)

    counting = {
        (EngineFailure, "__init__"): counted_init,
        (RegionStack, "allocate"): allocate,
        (RegionStack, "free"): free,
    }
    traced = 0.0
    try:
        for owner, attr, name in WRAPPED:
            setattr(owner, attr, spans.wrap(name, counting.get((owner, attr), original[owner, attr])))
        for prog in progs:
            steps_before = sum(counts.rules.values())
            start = time.perf_counter()
            code, machine, toks, program = call_with_deep_stack(
                _run_stages, prog.source, spans, counts, prog.key
            )
            traced += time.perf_counter() - start
            events = sum(counts.rules.values()) - steps_before
            layers.check(prog, code, machine, events)
            if machine is not None:
                tokens += len(toks)
                nodes += count_nodes(program)
                retained = max(retained, sum(len(r.cells) for r in machine.regions.regions if not r.live))
            counts.machine = None
    finally:
        for (owner, attr), fn in original.items():
            setattr(owner, attr, fn)

    lex_s, parse_s = spans.self_s("lex"), spans.self_s("parse")
    matches, fallthroughs = counts.rules["bc:1"], counts.rules["bc:4"]
    layers.values.update({
        "lexer.s": lex_s,
        "lexer.tokens": tokens,
        "lexer.tokens_per_s": tokens / lex_s if lex_s else 0.0,
        "parser.s": parse_s,
        "parser.nodes": nodes,
        "parser.nodes_per_s": nodes / parse_s if parse_s else 0.0,
        "ast.desugar_s": spans.self_s("desugar") + spans.self_s("seed"),
        "ast.free_names_calls": spans.calls("ast.free_names"),
        "ast.free_names_s": spans.self_s("ast.free_names"),
        "macros.find_calls": spans.calls("macros.find"),
        "macros.find_s": spans.self_s("macros.find"),
        "macros.rename_calls": spans.calls("macros.rename"),
        "macros.rename_s": spans.self_s("macros.rename"),
        "machine.peak_module_stack": counts.peak_module_stack,
        "engine.execute_s": spans.self_s("execute"),
        "engine.steps": sum(counts.rules.values()),
        "engine.calls": counts.calls,
        "engine.clause_matches": matches,
        "engine.fallthroughs": fallthroughs,
        "engine.match_ratio": matches / (matches + fallthroughs) if matches + fallthroughs else 0.0,
        "engine.substitute_calls": spans.calls("engine.substitute"),
        "engine.substitute_s": spans.self_s("engine.substitute"),
        "engine.peak_depth": counts.peak_depth,
        "errors.failures_built": counts.failures,
        "errors.chain_entries_copied": counts.chain_entries,
        "regions.allocs": spans.calls("regions.alloc"),
        "regions.alloc_s": spans.self_s("regions.alloc"),
        "regions.frees": spans.calls("regions.free"),
        "regions.free_s": spans.self_s("regions.free"),
        "regions.accesses": spans.calls("regions.access"),
        "regions.access_s": spans.self_s("regions.access"),
        "regions.peak_live": counts.peak_live,
        "regions.retained_cells": retained,
        "printer.format_calls": spans.calls("printer.format"),
        "printer.format_s": spans.self_s("printer.format"),
        "printer.trace_bytes": counts.trace_bytes,
        "printer.trace_lines": sum(counts.rules.values()),
        "trace_overhead": traced / untraced,
    })
    return layers
