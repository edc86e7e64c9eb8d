"""The variable store and the region stack for scoped allocation.

Regions live exactly as long as the allocation scope that created them;
they are freed strictly LIFO, and every access through a handle checks
liveness and generation so dangling use is a detected fault rather than
undefined behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .errors import (
    REGION_FAULT,
    TYPE_MISMATCH,
    UNBOUND_VARIABLE,
    EngineFailure,
)


class Store(dict):
    """Variable-value bindings, updated destructively by assignment."""

    def assign(self, name: str, value: ast.Value) -> None:
        self[name] = value

    def read(self, name: str) -> ast.Value:
        try:
            return self[name]
        except KeyError:
            raise EngineFailure(UNBOUND_VARIABLE, f"variable '{name}' is not bound") from None


@dataclass
class Region:
    id: int
    generation: int
    elem_type: str
    cells: list[ast.Value]
    live: bool = True


@dataclass
class RegionStack:
    # All regions ever allocated, in allocation order; dead ones are kept
    # for fault diagnostics. (id, generation) pairs are never reused.
    regions: list[Region] = field(default_factory=list)
    next_id: int = 0
    events: list[tuple[str, int]] = field(default_factory=list)

    def allocate(self, elem_type: str, length: int) -> ast.Handle:
        region = Region(self.next_id, 0, elem_type, [ast.Int(0)] * length)
        self.next_id += 1
        self.regions.append(region)
        self.events.append(("alloc", region.id))
        return ast.Handle(region.id, region.generation)

    def live_regions(self) -> list[Region]:
        return [r for r in self.regions if r.live]

    def live_count(self) -> int:
        return sum(1 for r in self.regions if r.live)

    def free(self, handle: ast.Handle) -> None:
        region = self._region(handle)
        live = self.live_regions()
        if not live or live[-1] is not region:
            raise RuntimeError(f"region {region.id} freed out of stack order")
        region.live = False
        region.generation += 1  # retire the handle generation
        self.events.append(("free", region.id))

    def checked(self, handle: ast.Handle) -> Region:
        region = self._region(handle)
        if not region.live or region.generation != handle.generation:
            raise EngineFailure(
                REGION_FAULT, f"dangling handle to region {region.id}"
            )
        return region

    def _region(self, handle: ast.Handle) -> Region:
        for region in self.regions:
            if region.id == handle.region_id:
                return region
        raise EngineFailure(REGION_FAULT, f"unknown region {handle.region_id}")


def region_read(machine, handle: ast.Handle, index: int) -> ast.Value:
    """The cell value at index, when the handle is live and in range."""
    try:
        region = machine.regions.checked(handle)
        if not 0 <= index < len(region.cells):
            raise EngineFailure(
                REGION_FAULT,
                f"bounds: index {index} outside region {region.id} of length {len(region.cells)}",
            )
        return region.cells[index]
    except EngineFailure as failure:
        raise _with_chain(machine, failure) from None


def region_write(machine, handle: ast.Handle, index: int, value: ast.Value) -> None:
    try:
        region = machine.regions.checked(handle)
        if not 0 <= index < len(region.cells):
            raise EngineFailure(
                REGION_FAULT,
                f"bounds: index {index} outside region {region.id} of length {len(region.cells)}",
            )
        if region.elem_type == "int" and not isinstance(value, ast.Int):
            raise EngineFailure(
                TYPE_MISMATCH,
                f"region {region.id} holds int elements, not {ast.render_value(value)}",
            )
        region.cells[index] = value
    except EngineFailure as failure:
        raise _with_chain(machine, failure) from None


def alloc_scope(machine, handle_name, elem_type, length_expr, body, depth: int = 0):
    """Run body with a fresh region bound to handle_name.

    The region is pushed before the body and popped unconditionally on
    scope exit (even when the body fails); the handle binding is removed,
    while every other store change made by the body persists. Returns the
    public execution outcome.
    """
    from .engine import as_outcome

    return as_outcome(machine, _alloc_scope, machine, handle_name, elem_type, length_expr, body, depth)


def _alloc_scope(machine, handle_name, elem_type, length_expr, body, depth: int = 0) -> None:
    from .engine import _execute, eval_expr

    length = eval_expr(machine, length_expr)
    if not isinstance(length, ast.Int):
        raise EngineFailure(
            REGION_FAULT,
            f"region length must be an integer, not {ast.render_value(length)}",
            machine.call_stack,
        )
    if length.value < 0:
        raise EngineFailure(REGION_FAULT, f"negative region length {length.value}", machine.call_stack)

    handle = machine.regions.allocate(elem_type, length.value)
    machine.store.assign(handle_name, handle)
    try:
        _execute(machine, body, depth)
    finally:
        machine.regions.free(handle)
        machine.store.pop(handle_name, None)


def _with_chain(machine, failure: EngineFailure) -> EngineFailure:
    if failure.call_chain:
        return failure
    return EngineFailure(failure.reason, failure.detail, tuple(machine.call_stack))
