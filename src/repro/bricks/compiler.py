"""Brick compiler: netlist generation and logical-effort periphery sizing.

"we have developed a formulized circuit design methodology based on logical
effort calculations and RC delay estimations to automatically size the
peripheral blocks within the brick" (Section 3).  Given a
:class:`~repro.bricks.spec.BrickSpec`, a technology and the intended stack
count, :func:`compile_brick` produces a :class:`CompiledBrick`: the bitcell
model, the three sized leaf cells (wordline driver, local sense, control
block), the internal wire geometry and — for CAM bricks — the match-path
periphery.  Everything downstream (layout, extraction, estimation, library
generation) consumes this object.  The sizing rules themselves live once,
in :func:`repro.bricks.batch.compile_batch`; :func:`compile_brick` is its
one-row view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..cells.bitcells import Bitcell
from ..cells.leafcells import ControlBlock, LocalSense, WordlineDriver
from ..errors import BrickError
from ..tech.technology import Technology
from .spec import BrickSpec


@dataclass(frozen=True)
class MatchPeriphery:
    """CAM-only periphery: search-line drivers and matchline sense.

    ``sl_stage_caps`` size the per-bit search-line driver chain;
    ``w_ml_pre``/``w_ml_sense`` the per-word matchline precharge and sense.
    """

    sl_stage_caps: Tuple[float, ...]
    w_ml_pre: float
    w_ml_sense_n: float
    w_ml_sense_p: float


@dataclass(frozen=True)
class CompiledBrick:
    """A fully sized brick, ready for layout/extraction/estimation."""

    spec: BrickSpec
    tech_name: str
    target_stack: int
    bitcell: Bitcell
    wl_driver: WordlineDriver
    sense: LocalSense
    control: ControlBlock
    match: Optional[MatchPeriphery] = None

    # --- geometry ---------------------------------------------------------

    @property
    def array_width_um(self) -> float:
        return self.spec.bits * self.bitcell.width_um

    @property
    def array_height_um(self) -> float:
        return self.spec.words * self.bitcell.height_um

    def wordline_length_um(self) -> float:
        return self.array_width_um

    def lbl_length_um(self) -> float:
        return self.array_height_um

    def matchline_length_um(self) -> float:
        if not self.spec.is_cam:
            raise BrickError("matchline geometry on a non-CAM brick")
        return self.array_width_um

    def searchline_length_um(self) -> float:
        if not self.spec.is_cam:
            raise BrickError("searchline geometry on a non-CAM brick")
        return self.array_height_um

    # --- electrical summaries ----------------------------------------------

    def matchline_cap(self, tech: Technology) -> float:
        if not self.spec.is_cam:
            raise BrickError("matchline cap on a non-CAM brick")
        layer = tech.layer(tech.local_layer)
        _, c_wire = layer.rc(self.matchline_length_um())
        assert self.match is not None
        return (c_wire + self.spec.bits * self.bitcell.c_ml
                + tech.c_diff * self.match.w_ml_pre
                + tech.c_gate * (self.match.w_ml_sense_n
                                 + self.match.w_ml_sense_p))

    def brick_height_estimate_um(self) -> float:
        """Array height plus the sense strip — the ARBL span per brick."""
        return self.array_height_um + 2.0 * self.bitcell.height_um


def compile_brick(spec: BrickSpec, tech: Technology,
                  target_stack: int = 1) -> CompiledBrick:
    """Size every peripheral block of the brick for ``target_stack``.

    A one-row :func:`~repro.bricks.batch.compile_batch` (the paper's
    formulized methodology, sized column-wise) read back by
    :func:`~repro.bricks.batch.compiled_row`, so a brick compiled alone
    carries the bits a sweep's batch sized for the same point.
    """
    if target_stack < 1:
        raise BrickError(f"stack count must be >= 1, got {target_stack}")
    from .batch import BrickSpecBatch, compile_batch, compiled_row
    batch = BrickSpecBatch.from_points([(spec, target_stack)])
    return compiled_row(compile_batch(batch, tech), tech, 0)
