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

# The longest region an allocation scope may create, in cells; a longer
# one is a region fault rather than an attempt to allocate it.
MAX_REGION_LENGTH = 2**24


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
    # All regions ever allocated, in allocation order, so a region's id is
    # its position; dead ones are kept for fault diagnostics. (id,
    # generation) pairs are never reused. live holds the live regions,
    # oldest first: only its last one may be freed.
    regions: list[Region] = field(default_factory=list)
    live: list[Region] = field(default_factory=list)
    events: list[tuple[str, int]] = field(default_factory=list)

    def allocate(self, elem_type: str, length: int) -> ast.Handle:
        region = Region(len(self.regions), 0, elem_type, [ast.Int(0)] * length)
        self.regions.append(region)
        self.live.append(region)
        self.events.append(("alloc", region.id))
        return ast.Handle(region.id, region.generation)

    def live_count(self) -> int:
        return len(self.live)

    def free(self, handle: ast.Handle) -> None:
        region = self._region(handle)
        if not self.live or self.live[-1] is not region:
            raise RuntimeError(f"region {region.id} freed out of stack order")
        self.live.pop()
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
        if 0 <= handle.region_id < len(self.regions):
            return self.regions[handle.region_id]
        raise EngineFailure(REGION_FAULT, f"unknown region {handle.region_id}")


def region_read(machine, handle: ast.Handle, index: int) -> ast.Value:
    """The cell value at index, when the handle is live and in range."""
    return _live_region(machine, handle, index).cells[index]


def region_write(machine, handle: ast.Handle, index: int, value: ast.Value) -> None:
    region = _live_region(machine, handle, index)
    if region.elem_type == "int" and not isinstance(value, ast.Int):
        raise EngineFailure(
            TYPE_MISMATCH,
            f"region {region.id} holds int elements, not {ast.render_value(value)}",
            machine.call_stack,
        )
    region.cells[index] = value


def _live_region(machine, handle: ast.Handle, index: int) -> Region:
    """handle's region, when the handle is live and index is in range."""
    try:
        region = machine.regions.checked(handle)
    except EngineFailure as failure:
        raise EngineFailure(failure.reason, failure.detail, machine.call_stack) from None
    if not 0 <= index < len(region.cells):
        raise EngineFailure(
            REGION_FAULT,
            f"bounds: index {index} outside region {region.id} of length {len(region.cells)}",
            machine.call_stack,
        )
    return region


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
    if length.value > MAX_REGION_LENGTH:
        raise EngineFailure(
            REGION_FAULT,
            f"region length {length.value} exceeds the limit of {MAX_REGION_LENGTH}",
            machine.call_stack,
        )

    handle = machine.regions.allocate(elem_type, length.value)
    machine.store.assign(handle_name, handle)
    try:
        _execute(machine, body, depth)
    finally:
        machine.regions.free(handle)
        machine.store.pop(handle_name, None)
