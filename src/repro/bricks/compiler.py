"""Brick compiler: netlist generation and logical-effort periphery sizing.

"we have developed a formulized circuit design methodology based on logical
effort calculations and RC delay estimations to automatically size the
peripheral blocks within the brick" (Section 3).  Given a
:class:`~repro.bricks.spec.BrickSpec`, a technology and the intended stack
count, :func:`compile_brick` produces a :class:`CompiledBrick`: the bitcell
model, the three sized leaf cells (wordline driver, local sense, control
block), the internal wire geometry and — for CAM bricks — the match-path
periphery.  Everything downstream (layout, extraction, estimation, library
generation) consumes this object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..cells.bitcells import Bitcell, make_bitcell
from ..cells.leafcells import ControlBlock, LocalSense, WordlineDriver
from ..cells.stdcells import unit_input_cap
from ..circuit.logical_effort import buffer_chain
from ..errors import BrickError
from ..tech.technology import Technology
from .spec import BrickSpec

#: Default output load assumed on the ARBL when sizing the pull-down: the
#: input of a bank-level mux or capture flop, in unit input caps.
_ARBL_OUT_LOAD_UNITS = 4.0


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

    def n_transistors(self) -> int:
        """Total device count (netlist-size report)."""
        cells = self.spec.words * self.spec.bits * \
            self.bitcell.n_transistors
        periphery = self.spec.words * 10 + self.spec.bits * 4 + 8
        if self.spec.is_cam:
            periphery += self.spec.bits * 6 + self.spec.words * 4
        return cells + periphery


def _size_arbl_pulldown(arbl_fixed_per_brick: float, stack: int,
                        tech: Technology) -> float:
    """Closed-form sizing of the ARBL pull-down width.

    The pull-down's own diffusion loads the shared ARBL once per stacked
    brick, so the self-consistent "stage effort 4" condition is

        4 * c_gate * w = stack * (c_fixed_per_brick + c_diff * w) + c_out.

    Self-loading makes the naive fixed point diverge once
    ``stack * c_diff`` approaches ``4 * c_gate``; past that point bigger
    devices stop paying for themselves, so the effective effort target is
    raised to keep a margin of two gate-cap units, and the width is capped
    for area sanity.
    """
    c_out = _ARBL_OUT_LOAD_UNITS * unit_input_cap(tech)
    c_fixed = stack * arbl_fixed_per_brick + c_out
    denom = 4.0 * tech.c_gate - stack * tech.c_diff
    min_denom = 2.0 * tech.c_gate
    denom = max(denom, min_denom)
    w_pull = c_fixed / denom
    w_max = 16.0 * tech.w_min_um
    return min(max(tech.w_min_um, w_pull), w_max)


def compile_brick(spec: BrickSpec, tech: Technology,
                  target_stack: int = 1) -> CompiledBrick:
    """Size every peripheral block of the brick for ``target_stack``.

    Runs the paper's formulized methodology: wordline drivers sized as a
    logical-effort buffer chain against the wordline RC load, local sense
    and ARBL pull-down sized against the stack-dependent ARBL load, and
    the control block sized against the enable/precharge fan-out.
    """
    if target_stack < 1:
        raise BrickError(f"stack count must be >= 1, got {target_stack}")
    bitcell = make_bitcell(spec.memory_type, tech)
    layer = tech.layer(tech.local_layer)
    c_unit = unit_input_cap(tech)

    # --- wordline driver ----------------------------------------------------
    _, c_wl_wire = layer.rc(spec.bits * bitcell.width_um)
    wl_load = c_wl_wire + spec.bits * bitcell.c_rwl
    # Minimum-size gating NAND keeps the per-row enable load small.
    nand_cap = 1.0 * c_unit
    # The NAND drives the inverter chain; force an odd inverter count so
    # the wordline pulses high.
    caps, _ = buffer_chain(nand_cap, wl_load, tech)
    n_stages = len(caps)
    if n_stages % 2 == 0:
        caps, _ = buffer_chain(nand_cap, wl_load, tech,
                               force_stages=n_stages + 1)
    wl_driver = WordlineDriver(nand_input_cap=nand_cap,
                               stage_caps=tuple(caps))

    # --- local sense ----------------------------------------------------------
    w_sense_n = 2.0 * tech.w_min_um
    w_sense_p = w_sense_n * tech.inverter_beta()
    # ARBL fixed load per brick: wire over the brick height (array + sense
    # strip).
    brick_height = spec.words * bitcell.height_um + 2.0 * bitcell.height_um
    _, arbl_wire = tech.layer(tech.bitline_layer).rc(brick_height)
    w_pull = _size_arbl_pulldown(arbl_wire, target_stack, tech)
    # The sense inverter scales with the pull-down it drives so the sense
    # stage keeps a bounded electrical effort.
    w_sense_n = max(w_sense_n, w_pull / 6.0)
    w_sense_p = w_sense_n * tech.inverter_beta()
    # The LBL precharge has a half-cycle to restore a small local line,
    # so it stays small; the bank-level ARBL precharge (extract/estimator
    # use w_pull/2) must fight the full stacked line.
    sense = LocalSense(
        w_sense_n=w_sense_n,
        w_sense_p=w_sense_p,
        w_pull=w_pull,
        w_precharge=max(tech.w_min_um, w_pull / 6.0),
    )

    # --- control block ----------------------------------------------------------
    enable_load = spec.words * wl_driver.enable_cap()
    ctrl_caps, _ = buffer_chain(2.0 * c_unit, enable_load, tech)
    n_ctrl = len(ctrl_caps)
    if n_ctrl % 2 == 1:
        ctrl_caps, _ = buffer_chain(2.0 * c_unit, enable_load, tech,
                                    force_stages=n_ctrl + 1)
    # The precharge-bar branch drives every LBL precharge gate plus the
    # bank-level ARBL precharge gates; it branches off the first internal
    # node and must invert it (odd stage count).
    preb_load = 2.0 * spec.bits * tech.c_gate * sense.w_precharge
    preb_caps, _ = buffer_chain(ctrl_caps[0], preb_load, tech)
    if len(preb_caps) % 2 == 0:
        preb_caps, _ = buffer_chain(ctrl_caps[0], preb_load, tech,
                                    force_stages=len(preb_caps) + 1)
    control = ControlBlock(stage_caps=tuple(ctrl_caps),
                           preb_stage_caps=tuple(preb_caps))

    # --- CAM match periphery ------------------------------------------------------
    match = None
    if spec.is_cam:
        _, c_sl_wire = layer.rc(spec.words * bitcell.height_um)
        sl_load = c_sl_wire + spec.words * bitcell.c_sl
        # Search-line drivers must be non-inverting (even stage count):
        # the search line follows the gated search data.
        sl_caps, _ = buffer_chain(2.0 * c_unit, sl_load, tech)
        if len(sl_caps) % 2 == 1:
            sl_caps, _ = buffer_chain(2.0 * c_unit, sl_load, tech,
                                      force_stages=len(sl_caps) + 1)
        w_ml_sense_n = 2.0 * tech.w_min_um
        match = MatchPeriphery(
            sl_stage_caps=tuple(sl_caps),
            w_ml_pre=2.0 * tech.w_min_um,
            w_ml_sense_n=w_ml_sense_n,
            w_ml_sense_p=w_ml_sense_n * tech.inverter_beta(),
        )

    return CompiledBrick(
        spec=spec,
        tech_name=tech.name,
        target_stack=target_stack,
        bitcell=bitcell,
        wl_driver=wl_driver,
        sense=sense,
        control=control,
        match=match,
    )
