"""The region stack for scoped allocation.

Regions live exactly as long as the allocation scope that created them;
they are freed strictly LIFO and give their cells back, and every access
through a handle looks its serial up among the live ones, so dangling
use is a detected fault rather than undefined behaviour. The engine runs
the scopes; this module holds only each live region's cells, by serial.
"""

from __future__ import annotations

from . import ast
from .errors import REGION_FAULT, TYPE_MISMATCH, EngineFailure

# The longest region an allocation scope may create, in cells; a longer
# one is a region fault rather than an attempt to allocate it.
MAX_REGION_LENGTH = 2**24


class RegionStack:
    def __init__(self):
        # The cells of each live region by serial, the count allocated before
        # each, oldest first: only the last one may be freed. Serials are never
        # reused, so the count tells a dangling handle from an unknown one with
        # no dead region kept.
        self.regions: dict[int, list[ast.Value]] = {}
        self.allocated = 0

    # elem_type is always "int"; it stays because perfbench/tracing.py's wrapper forwards it.
    def allocate(self, elem_type: str, length: int) -> ast.Handle:
        serial = self.allocated
        self.regions[serial] = [ast.Int(0)] * length
        self.allocated += 1
        return ast.Handle(serial)

    def free(self, handle: ast.Handle) -> None:
        if next(reversed(self.regions), None) != handle.region_id:
            raise RuntimeError(f"region {handle.region_id} freed out of stack order")
        self.regions.popitem()

    def checked(self, handle: ast.Handle) -> list[ast.Value]:
        """The cells of handle's region, when it is live."""
        serial = handle.region_id
        cells = self.regions.get(serial)
        if cells is not None:
            return cells
        if 0 <= serial < self.allocated:
            raise EngineFailure(REGION_FAULT, f"dangling handle to region {serial}")
        raise EngineFailure(REGION_FAULT, f"unknown region {serial}")


def region_read(machine, handle: ast.Handle, index: int) -> ast.Value:
    """The cell value at index, when the handle is live and in range."""
    return _live_cells(machine, handle, index)[index]


def region_write(machine, handle: ast.Handle, index: int, value: ast.Value) -> None:
    cells = _live_cells(machine, handle, index)
    if type(value) is not ast.Int:
        raise EngineFailure(TYPE_MISMATCH, f"region {handle.region_id} holds int elements, not {ast.render_value(value)}")
    cells[index] = value


def _live_cells(machine, handle: ast.Handle, index: int) -> list[ast.Value]:
    """The cells of handle's region, when the handle is live and index is in range."""
    cells = machine.regions.checked(handle)
    if not 0 <= index < len(cells):
        raise EngineFailure(
            REGION_FAULT,
            f"bounds: index {ast.render_value(ast.Int(index))} outside region {handle.region_id} of length {len(cells)}",
        )
    return cells
