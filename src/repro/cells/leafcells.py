"""Parametric leaf cells: wordline driver, local sense, control block.

Section 3: "Compiled gate sizes are then passed to a layout generator that
modifies three main leaf cells (or pre laid-out template cells) of WL
driver, local sense, and control block. Leaf cells are pitch-matched to the
bitcells, and snap to each other when laid-out in array form."

Each leaf cell here is a small dataclass of transistor widths produced by
the brick compiler's logical-effort pass.  Every leaf cell knows how to

* report its pin capacitances, transistor width and area (for the
  estimator, leakage and layout),
* instantiate its switch-level devices into a :class:`SpiceCircuit`
  (for the transient reference simulation).

The estimator's capacitance formulas over these widths live in
:mod:`repro.bricks.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..circuit.netlist import SpiceCircuit
from ..errors import BrickError
from ..tech.technology import Technology
from ..tech.transistor import NMOS, PMOS


def inverter_widths(c_in: float, tech: Technology) -> Tuple[float, float]:
    """(w_n, w_p) of an inverter with total input capacitance ``c_in``."""
    beta_w = tech.inverter_beta()
    w_n = c_in / (tech.c_gate * (1.0 + beta_w))
    if w_n <= 0:
        raise BrickError("inverter input capacitance must be positive")
    return w_n, beta_w * w_n


def build_inverter(circuit: SpiceCircuit, prefix: str, in_node: str,
                   out_node: str, vdd_node: str, w_n: float,
                   w_p: float) -> None:
    """Stamp one static CMOS inverter into ``circuit``."""
    circuit.add_mosfet(f"{prefix}_mn", NMOS, in_node, out_node, "0", w_n)
    circuit.add_mosfet(f"{prefix}_mp", PMOS, in_node, out_node, vdd_node,
                       w_p)


@dataclass(frozen=True)
class WordlineDriver:
    """NAND-gated buffer driving one wordline.

    The decoded wordline (from the *external*, synthesized decoder — the
    paper keeps decoders out of the brick on purpose) is ANDed with the
    brick's clocked wordline-enable, then buffered onto the wordline wire.

    ``stage_caps`` are the input capacitances of the inverter chain stages
    as sized by :func:`repro.circuit.logical_effort.buffer_chain`.
    """

    nand_input_cap: float
    stage_caps: Tuple[float, ...]

    def enable_cap(self) -> float:
        """Load presented to the brick-internal wordline enable."""
        return self.nand_input_cap

    def total_width_um(self, tech: Technology) -> float:
        """Total transistor width (for area and internal energy)."""
        # NAND2: 4 devices, series NMOS doubled.
        w_nand_n, w_nand_p = inverter_widths(self.nand_input_cap, tech)
        total = 2 * (2 * w_nand_n + w_nand_p)
        for cap in self.stage_caps:
            w_n, w_p = inverter_widths(cap, tech)
            total += w_n + w_p
        return total

    def area_um2(self, tech: Technology, height_um: float) -> float:
        """Leaf area; pitch-matched to the bitcell row ``height_um``."""
        width = self.total_width_um(tech) * tech.poly_pitch_um / (
            2.0 * tech.w_min_um)
        return max(width, tech.poly_pitch_um) * height_um

    def build_spice(self, circuit: SpiceCircuit, prefix: str, dwl: str,
                    enable: str, wordline: str, vdd_node: str,
                    tech: Technology) -> None:
        """Stamp NAND2(dwl, enable) -> inverter chain -> wordline."""
        w_n, w_p = inverter_widths(self.nand_input_cap, tech)
        nand_out = f"{prefix}_n0"
        mid = f"{prefix}_nmid"
        # NAND2: series NMOS (2x width to keep drive), parallel PMOS.
        circuit.add_mosfet(f"{prefix}_nand_na", NMOS, dwl, nand_out, mid,
                           2 * w_n)
        circuit.add_mosfet(f"{prefix}_nand_nb", NMOS, enable, mid, "0",
                           2 * w_n)
        circuit.add_mosfet(f"{prefix}_nand_pa", PMOS, dwl, nand_out,
                           vdd_node, w_p)
        circuit.add_mosfet(f"{prefix}_nand_pb", PMOS, enable, nand_out,
                           vdd_node, w_p)
        node_in = nand_out
        for i, stage_cap in enumerate(self.stage_caps):
            w_sn, w_sp = inverter_widths(stage_cap, tech)
            node_out = wordline if i == len(self.stage_caps) - 1 else \
                f"{prefix}_s{i}"
            build_inverter(circuit, f"{prefix}_inv{i}", node_in, node_out,
                           vdd_node, w_sn, w_sp)
            node_in = node_out
        if len(self.stage_caps) % 2 != 1:
            raise BrickError(
                "wordline driver chain must invert the NAND output so the "
                "wordline pulses high (odd inverter count required)")


@dataclass(frozen=True)
class LocalSense:
    """Per-column local sense: LBL sense inverter + ARBL pull-down.

    The local read bitline (LBL) is precharged high; a selected cell
    storing 0 discharges it.  The sense inverter flips and turns on the
    array-read-bitline (ARBL) pull-down.  Stacked bricks share the ARBL,
    so every stacked brick adds its pull-down's drain diffusion and its
    share of wire to it — the physical origin of Table 1's
    delay-vs-stacking rows.
    """

    w_sense_n: float
    w_sense_p: float
    w_pull: float
    w_precharge: float

    def total_width_um(self) -> float:
        return (self.w_sense_n + self.w_sense_p + self.w_pull +
                self.w_precharge)

    def area_um2(self, tech: Technology, width_um: float) -> float:
        """Leaf area; pitch-matched to the bitcell column ``width_um``."""
        height = self.total_width_um() * tech.m1_pitch_um / (
            2.0 * tech.w_min_um)
        return max(height, tech.m1_pitch_um) * width_um

    def build_spice(self, circuit: SpiceCircuit, prefix: str, lbl: str,
                    arbl: str, precharge_b: str, vdd_node: str,
                    tech: Technology) -> None:
        """Stamp precharge PMOS, sense inverter and ARBL pull-down."""
        circuit.add_mosfet(f"{prefix}_pre", PMOS, precharge_b, lbl,
                           vdd_node, self.w_precharge)
        sense_out = f"{prefix}_so"
        build_inverter(circuit, f"{prefix}_sense", lbl, sense_out,
                       vdd_node, self.w_sense_n, self.w_sense_p)
        circuit.add_mosfet(f"{prefix}_pull", NMOS, sense_out, arbl, "0",
                           self.w_pull)


@dataclass(frozen=True)
class ControlBlock:
    """Clock receiver and wordline-enable / precharge generation.

    Modelled as a two-inverter clock buffer whose output is the brick's
    wordline enable, plus a complement branch for the precharge-bar.
    Wordlines and read/write operations are clocked "so that the brick
    behaves like a sequential cell in the netlist" (Section 3) — this leaf
    is what makes that true.
    """

    stage_caps: Tuple[float, ...]
    preb_stage_caps: Tuple[float, ...]

    def clock_cap(self) -> float:
        """Load the brick presents on the clock pin."""
        return self.stage_caps[0]

    def total_width_um(self, tech: Technology) -> float:
        total = 0.0
        for cap in tuple(self.stage_caps) + tuple(self.preb_stage_caps):
            w_n, w_p = inverter_widths(cap, tech)
            total += w_n + w_p
        return total

    def area_um2(self, tech: Technology) -> float:
        width = self.total_width_um(tech) * tech.poly_pitch_um / (
            2.0 * tech.w_min_um)
        row = tech.row_height_um
        return max(width, tech.poly_pitch_um) * row

    def build_spice(self, circuit: SpiceCircuit, prefix: str, clk: str,
                    enable_out: str, precharge_b_out: str, vdd_node: str,
                    tech: Technology) -> None:
        """Stamp clock buffer -> enable; first stage also feeds
        precharge-bar.

        Polarity: with the clock low the brick precharges
        (precharge_b = 0 opens the PMOS); with the clock high the wordline
        enable asserts and evaluation begins.
        """
        if len(self.stage_caps) < 2 or len(self.stage_caps) % 2 != 0:
            raise BrickError(
                "control block needs an even inverter chain so the enable "
                "follows the clock polarity")
        node_in = clk
        for i, stage_cap in enumerate(self.stage_caps):
            w_n, w_p = inverter_widths(stage_cap, tech)
            node_out = enable_out if i == len(self.stage_caps) - 1 else \
                f"{prefix}_c{i}"
            build_inverter(circuit, f"{prefix}_buf{i}", node_in, node_out,
                           vdd_node, w_n, w_p)
            node_in = node_out
        # precharge_b follows the clock (low during the precharge half):
        # an odd buffer branch off the first internal node, sized by the
        # compiler against the full precharge-gate load.  An undersized
        # branch leaves the precharge devices fighting the read — a
        # contention bug the transient reference exposes immediately.
        preb_caps = self.preb_stage_caps
        if len(preb_caps) % 2 != 1:
            raise BrickError(
                "precharge-bar branch needs an odd inverter count so the "
                "precharge-bar follows the clock polarity")
        node_in = f"{prefix}_c0"
        for i, stage_cap in enumerate(preb_caps):
            w_n, w_p = inverter_widths(stage_cap, tech)
            node_out = precharge_b_out if i == len(preb_caps) - 1 else \
                f"{prefix}_pb{i}"
            build_inverter(circuit, f"{prefix}_preb{i}", node_in, node_out,
                           vdd_node, w_n, w_p)
            node_in = node_out
