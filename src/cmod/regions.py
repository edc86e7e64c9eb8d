"""The region stack for scoped allocation.

Regions live exactly as long as the allocation scope that created them;
they are freed strictly LIFO and give their cells back, and every access
through a handle looks its serial up among the live ones, so dangling
use is a detected fault rather than undefined behaviour. The engine runs
the scopes; this module holds only the live regions and their cells.
"""

from __future__ import annotations

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
        # The live regions by serial, the count allocated before each, oldest
        # first: only the last one may be freed. Serials are never reused, so
        # the count tells a dangling handle from an unknown one with no dead
        # region kept.
        self.regions: dict[int, Region] = {}
        self.allocated = 0

    def allocate(self, elem_type: str, length: int) -> ast.Handle:
        serial = self.allocated
        self.regions[serial] = Region(serial, elem_type, [ast.Int(0)] * length)
        self.allocated += 1
        return ast.Handle(serial)

    def free(self, handle: ast.Handle) -> None:
        if next(reversed(self.regions), None) != handle.region_id:
            raise RuntimeError(f"region {handle.region_id} freed out of stack order")
        self.regions.popitem()

    def checked(self, handle: ast.Handle) -> Region:
        serial = handle.region_id
        region = self.regions.get(serial)
        if region is not None:
            return region
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
