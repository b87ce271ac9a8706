"""Brick layout generation.

"Brick layout is generated by first forming a bitcell array with respect to
the user input parameters, and then by arraying the modified leaf cells
around the bitcell arrays" (Section 3).  The generator places the bitcell
array, a wordline-driver strip on the left, a sense strip below, the
control block in the corner and (for CAM bricks) search-line drivers above
with matchline sense on the right.  It emits:

* physical dimensions / area (consumed by the library model and the
  floorplanner),
* pin positions on the brick boundary (consumed by routing estimation),
* a :class:`~repro.tech.patterns.PatternGrid`, checked hotspot-free under
  the restrictive-patterning rules — the layout-level guarantee that makes
  fine-grained logic-in-memory integration legal (Fig. 1c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


from ..errors import LayoutError
from ..tech.patterns import (
    BITCELL,
    PERIPHERY,
    PatternGrid,
    PatternRuleSet,
    find_hotspots,
)
from ..tech.technology import Technology
from .compiler import CompiledBrick


@dataclass(frozen=True)
class PinShape:
    """A brick boundary pin: name, side and offset along that side (um)."""

    name: str
    side: str  # "left" | "right" | "top" | "bottom"
    offset_um: float


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle in brick-local coordinates (um)."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass
class BrickLayout:
    """Generated layout of one compiled brick."""

    brick_name: str
    width_um: float
    height_um: float
    array: Rect
    strips: Dict[str, Rect]
    pins: List[PinShape]
    pattern_grid: PatternGrid
    bitcell_area_um2: float

    @property
    def area_um2(self) -> float:
        return self.width_um * self.height_um

    @property
    def array_efficiency(self) -> float:
        """Bitcell area over total area — the figure that makes small
        compiled macros inefficient and small *bricks* efficient."""
        return self.bitcell_area_um2 / self.area_um2

    def pin(self, name: str) -> PinShape:
        for pin in self.pins:
            if pin.name == name:
                return pin
        raise LayoutError(f"layout has no pin {name!r}")


def _strip_width(area_um2: float, height_um: float,
                 min_width_um: float) -> float:
    """Width of a vertical strip of given area beside the array."""
    return max(min_width_um, area_um2 / max(height_um, 1e-9))


def generate_layout(compiled: CompiledBrick,
                    tech: Technology) -> BrickLayout:
    """Assemble the brick layout from the sized leaf cells."""
    spec = compiled.spec
    cell = compiled.bitcell
    array_w = compiled.array_width_um
    array_h = compiled.array_height_um

    # Leaf-cell strip sizing from compiled leaf areas.
    wl_area = spec.words * compiled.wl_driver.area_um2(
        tech, cell.height_um)
    wl_strip_w = _strip_width(wl_area, array_h, tech.poly_pitch_um * 2)

    sense_area = spec.bits * compiled.sense.area_um2(tech, cell.width_um)
    sense_strip_h = max(sense_area / max(array_w, 1e-9),
                        tech.m1_pitch_um * 2)

    ctrl_area = compiled.control.area_um2(tech)

    sl_strip_h = 0.0
    ml_strip_w = 0.0
    if spec.is_cam:
        assert compiled.match is not None
        # Search-line drivers above the array, one per bit.
        sl_area = spec.bits * cell.width_um * tech.m1_pitch_um * 4
        sl_strip_h = max(sl_area / max(array_w, 1e-9),
                         tech.m1_pitch_um * 2)
        # Matchline sense to the right, one per word.
        ml_area = spec.words * cell.height_um * tech.poly_pitch_um * 3
        ml_strip_w = max(ml_area / max(array_h, 1e-9),
                         tech.poly_pitch_um * 2)

    width = wl_strip_w + array_w + ml_strip_w
    height = sense_strip_h + array_h + sl_strip_h
    # Control block folds into the sense-strip row, extending it if needed.
    if ctrl_area > wl_strip_w * sense_strip_h:
        extra = (ctrl_area - wl_strip_w * sense_strip_h) / width
        sense_strip_h += extra
        height += extra

    array_rect = Rect(wl_strip_w, sense_strip_h,
                      wl_strip_w + array_w, sense_strip_h + array_h)
    strips = {
        "wl_drivers": Rect(0.0, sense_strip_h, wl_strip_w,
                           sense_strip_h + array_h),
        "sense": Rect(wl_strip_w, 0.0, wl_strip_w + array_w,
                      sense_strip_h),
        "control": Rect(0.0, 0.0, wl_strip_w, sense_strip_h),
    }
    if spec.is_cam:
        strips["sl_drivers"] = Rect(
            wl_strip_w, sense_strip_h + array_h,
            wl_strip_w + array_w, height)
        strips["ml_sense"] = Rect(
            wl_strip_w + array_w, sense_strip_h,
            width, sense_strip_h + array_h)

    # Boundary pins: decoded wordlines on the left edge (one per word),
    # write bitlines and ARBLs on the bottom, clock at the corner.
    pins: List[PinShape] = [PinShape("CLK", "bottom", 0.0)]
    for w in range(spec.words):
        pins.append(PinShape(
            f"DWL[{w}]", "left",
            sense_strip_h + (w + 0.5) * cell.height_um))
    for b in range(spec.bits):
        x = wl_strip_w + (b + 0.5) * cell.width_um
        pins.append(PinShape(f"WBL[{b}]", "bottom", x))
        pins.append(PinShape(f"ARBL[{b}]", "bottom", x))
    if spec.is_cam:
        for b in range(spec.bits):
            pins.append(PinShape(
                f"SL[{b}]", "top",
                wl_strip_w + (b + 0.5) * cell.width_um))
        for w in range(spec.words):
            pins.append(PinShape(
                f"ML[{w}]", "right",
                sense_strip_h + (w + 0.5) * cell.height_um))

    # Pattern grid at bitcell-tile granularity: one extra ring of tiles
    # for the periphery strips.
    grid_rows = spec.words + 2 + (1 if spec.is_cam else 0)
    grid_cols = spec.bits + 1 + (1 if spec.is_cam else 0)
    grid = PatternGrid(grid_rows, grid_cols)
    grid.fill(0, 0, grid_rows, grid_cols, PERIPHERY)
    grid.fill(1, 1, spec.words, spec.bits, BITCELL)
    hotspots = find_hotspots(grid, PatternRuleSet.default())
    if hotspots:
        raise LayoutError(
            f"generated layout for {spec.name} has {len(hotspots)} "
            f"lithography hotspots — leaf cells must use pattern "
            f"constructs")

    return BrickLayout(
        brick_name=spec.name,
        width_um=width,
        height_um=height,
        array=array_rect,
        strips=strips,
        pins=pins,
        pattern_grid=grid,
        bitcell_area_um2=spec.words * spec.bits * cell.area_um2,
    )
