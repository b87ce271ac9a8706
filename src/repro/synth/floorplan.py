"""Macro floorplanning.

Memory bricks enter physical synthesis "as macro blocks" (Section 3); the
floorplanner shelves the brick macros along the bottom of the die and
reserves the remaining area as the standard-cell core.  Positions are in
micrometres; the aspect ratio targets a square die, the paper's preferred
shape for compiled memory — except here the *blocks inside* are free to be
small and many, which is the whole point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import SynthesisError
from ..rtl.module import FlatNetlist
from ..tech.technology import Technology


@dataclass(frozen=True)
class Placement:
    """A placed object: lower-left corner plus size."""

    x: float
    y: float
    width: float
    height: float

    @property
    def cx(self) -> float:
        return self.x + self.width / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.height / 2.0


@dataclass
class Floorplan:
    """Die outline, macro placements and the std-cell core region."""

    die_width: float
    die_height: float
    macros: Dict[str, Placement]
    core: Placement
    rows: int
    row_height: float
    utilization_target: float

    @property
    def die_area(self) -> float:
        return self.die_width * self.die_height


def _macro_dims(cell) -> Tuple[float, float]:
    """Width/height of a brick macro.

    A single brick is wider than tall (array width beats one brick's
    height); stacking multiplies the height, so an 8-stack bank is a tall
    block — the geometry behind config D's long decoded-wordline routes
    in Fig. 4b.
    """
    area = cell.model.area
    stack = int(cell.model.attrs.get("stack", 1))
    single_aspect = 1.6  # width / height of one brick
    width = math.sqrt(area / stack * single_aspect)
    height = area / width
    return width, height


def _bottom_shelf_plan(macro_dims, core_area_needed, macro_spacing,
                       row_height):
    """Macros shelf-packed along the bottom, std-cell core above."""
    macro_area = sum(w * h for w, h in macro_dims.values())
    total = core_area_needed + macro_area * 1.1 + 1.0
    die_width = max(math.sqrt(total),
                    max((w for w, _ in macro_dims.values()),
                        default=0.0) + macro_spacing)
    macros: Dict[str, Placement] = {}
    shelf_x = 0.0
    shelf_y = 0.0
    shelf_height = 0.0
    for name in sorted(macro_dims, key=lambda n: -macro_dims[n][0]):
        width, height = macro_dims[name]
        if shelf_x + width > die_width and shelf_x > 0.0:
            shelf_y += shelf_height + macro_spacing
            shelf_x = 0.0
            shelf_height = 0.0
        macros[name] = Placement(shelf_x, shelf_y, width, height)
        shelf_x += width + macro_spacing
        shelf_height = max(shelf_height, height)
    macro_top = shelf_y + shelf_height + (macro_spacing if macros
                                          else 0.0)
    core_height = max(row_height,
                      math.ceil(core_area_needed / die_width
                                / row_height) * row_height)
    die_height = macro_top + core_height
    core = Placement(0.0, macro_top, die_width, core_height)
    return macros, core, die_width, die_height


def _side_column_plan(macro_dims, core_area_needed, macro_spacing,
                      row_height):
    """Macros stacked in a left column, std-cell core beside them.

    The better shape when the macros are tall (a deeply stacked bank):
    the core fills the die height instead of sitting on top of a tower.
    """
    macros: Dict[str, Placement] = {}
    y = 0.0
    col_width = 0.0
    for name in sorted(macro_dims, key=lambda n: -macro_dims[n][1]):
        width, height = macro_dims[name]
        macros[name] = Placement(0.0, y, width, height)
        y += height + macro_spacing
        col_width = max(col_width, width)
    col_height = max(y - macro_spacing, 0.0)
    die_height = max(col_height, math.sqrt(core_area_needed),
                     row_height)
    die_height = math.ceil(die_height / row_height) * row_height
    core_width = max(core_area_needed / die_height, row_height)
    core_x = col_width + (macro_spacing if macros else 0.0)
    die_width = core_x + core_width
    core = Placement(core_x, 0.0, core_width, die_height)
    return macros, core, die_width, die_height


def build_floorplan(netlist: FlatNetlist, tech: Technology,
                    utilization: float = 0.65,
                    macro_spacing: float = 2.0) -> Floorplan:
    """Floorplan the design: try bottom-shelf and side-column macro
    arrangements and keep the smaller die."""
    if not 0.05 < utilization <= 1.0:
        raise SynthesisError(
            f"utilization must be in (0.05, 1], got {utilization}")
    brick_cells = [c for c in netlist.cells if c.model.is_brick]
    std_cells = [c for c in netlist.cells if not c.model.is_brick]
    std_area = sum(c.model.area for c in std_cells)
    core_area_needed = std_area / utilization
    row_height = tech.row_height_um
    macro_dims = {c.name: _macro_dims(c) for c in brick_cells}

    candidates = [
        _bottom_shelf_plan(macro_dims, core_area_needed, macro_spacing,
                           row_height),
    ]
    if macro_dims:
        candidates.append(
            _side_column_plan(macro_dims, core_area_needed,
                              macro_spacing, row_height))
    macros, core, die_width, die_height = min(
        candidates, key=lambda plan: plan[2] * plan[3])
    rows = max(1, int(core.height / row_height))
    return Floorplan(
        die_width=die_width,
        die_height=die_height,
        macros=macros,
        core=core,
        rows=rows,
        row_height=row_height,
        utilization_target=utilization,
    )
