"""The region stack for scoped allocation.

Regions live exactly as long as the allocation scope that created them;
they are freed strictly LIFO and give their cells back, and every access
through a handle looks for its region among the live ones, so dangling
use is a detected fault rather than undefined behaviour. The engine runs
the scopes; this module holds only the live regions and their cells.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter

from . import ast
from .errors import REGION_FAULT, TYPE_MISMATCH, EngineFailure

# The longest region an allocation scope may create, in cells; a longer
# one is a region fault rather than an attempt to allocate it.
MAX_REGION_LENGTH = 2**24


class Region:
    def __init__(self, id: int, elem_type: str, cells: list[ast.Value]):
        self.id, self.elem_type, self.cells = id, elem_type, cells


class RegionStack:
    def __init__(self):
        # The live regions, oldest first: only the last one may be freed. A
        # region's id is its serial, the count allocated before it; serials
        # rise along the stack and are never reused, so the count tells a
        # dangling handle from an unknown one with no dead region kept.
        self.regions: list[Region] = []
        self.allocated = 0

    def allocate(self, elem_type: str, length: int) -> ast.Handle:
        region = Region(self.allocated, elem_type, [ast.Int(0)] * length)
        self.allocated += 1
        self.regions.append(region)
        return ast.Handle(region.id)

    def free(self, handle: ast.Handle) -> None:
        if not self.regions or self.regions[-1].id != handle.region_id:
            raise RuntimeError(f"region {handle.region_id} freed out of stack order")
        self.regions.pop()

    def checked(self, handle: ast.Handle) -> Region:
        regions, serial = self.regions, handle.region_id
        if regions and regions[-1].id == serial:  # the top, as a fill loop uses
            return regions[-1]
        at = bisect_left(regions, serial, key=attrgetter("id"))
        if at < len(regions) and regions[at].id == serial:
            return regions[at]
        if 0 <= serial < self.allocated:
            raise EngineFailure(REGION_FAULT, f"dangling handle to region {serial}")
        raise EngineFailure(REGION_FAULT, f"unknown region {serial}")


def region_read(machine, handle: ast.Handle, index: int) -> ast.Value:
    """The cell value at index, when the handle is live and in range."""
    return _live_region(machine, handle, index).cells[index]


def region_write(machine, handle: ast.Handle, index: int, value: ast.Value) -> None:
    region = _live_region(machine, handle, index)
    if region.elem_type == "int" and type(value) is not ast.Int:
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
