"""The region stack for scoped allocation.

Regions live exactly as long as the allocation scope that created them;
they are freed strictly LIFO, and every access through a handle checks
liveness and generation so dangling use is a detected fault rather than
undefined behaviour. The engine runs the scopes; this module holds only
the regions and the checked access to their cells.
"""

from __future__ import annotations

from . import ast
from .errors import REGION_FAULT, TYPE_MISMATCH, EngineFailure

# The longest region an allocation scope may create, in cells; a longer
# one is a region fault rather than an attempt to allocate it.
MAX_REGION_LENGTH = 2**24


class Region:
    def __init__(self, id: int, elem_type: str, cells: list[ast.Value]):
        self.id, self.generation, self.elem_type, self.cells, self.live = id, 0, elem_type, cells, True


class RegionStack:
    def __init__(self):
        # All regions ever allocated, in allocation order, so a region's id
        # is its position; dead ones are kept for fault diagnostics. (id,
        # generation) pairs are never reused. live holds the live regions,
        # oldest first: only its last one may be freed.
        self.regions: list[Region] = []
        self.live: list[Region] = []

    def allocate(self, elem_type: str, length: int) -> ast.Handle:
        region = Region(len(self.regions), elem_type, [ast.Int(0)] * length)
        self.regions.append(region)
        self.live.append(region)
        return ast.Handle(region.id, region.generation)

    def free(self, handle: ast.Handle) -> None:
        region = self._region(handle)
        if not self.live or self.live[-1] is not region:
            raise RuntimeError(f"region {region.id} freed out of stack order")
        self.live.pop()
        region.live = False
        region.generation += 1  # retire the handle generation

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
        )
    region.cells[index] = value


def _live_region(machine, handle: ast.Handle, index: int) -> Region:
    """handle's region, when the handle is live and index is in range."""
    region = machine.regions.checked(handle)
    if not 0 <= index < len(region.cells):
        raise EngineFailure(
            REGION_FAULT,
            f"bounds: index {ast.render_value(ast.Int(index))} outside region {region.id} of length {len(region.cells)}",
        )
    return region
