"""Chip-level energy/power models for the two SpGEMM accelerators.

Section 5 anchors: "the LiM chip consumes 72mW per clock while the
non-LiM based chip consumes 96mW per clock" at their maximum frequencies
of 475 MHz and 725 MHz.  Per-event energies come from the brick models
(CAM match, SRAM read/write) plus a logic estimate for the multiply-add;
the per-cycle *background* term (chip-wide clocking, control, the shared
A/B source SRAMs both chips carry) is calibrated so a typical run lands
at the measured per-clock power.  Because energy = power x time, the
paper's energy ratios then follow from the cycle counts — which is
exactly how the paper back-annotated its own measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..bricks.compiler import compile_brick
from ..bricks.estimator import estimate_brick
from ..bricks.spec import cam_brick, sram_brick
from ..errors import AcceleratorError
from ..tech.technology import Technology
from ..units import MHZ, PJ

#: Silicon anchor points (Section 5).
LIM_FREQ_HZ = 475 * MHZ
HEAP_FREQ_HZ = 725 * MHZ
LIM_POWER_W = 72e-3
HEAP_POWER_W = 96e-3


@dataclass(frozen=True)
class ChipEnergyModel:
    """Per-event and per-cycle energies of one accelerator chip."""

    name: str
    freq_hz: float
    event_energy: Dict[str, float]
    background_per_cycle: float

    def energy(self, events: Dict[str, int], cycles: int) -> float:
        """Total energy of a run (joules)."""
        if cycles < 0:
            raise AcceleratorError("negative cycle count")
        total = cycles * self.background_per_cycle
        for event, count in events.items():
            total += count * self.event_energy.get(event, 0.0)
        return total


def lim_energy_model(tech: Optional[Technology] = None,
                     freq_hz: float = LIM_FREQ_HZ) -> ChipEnergyModel:
    """Energy model of the CAM-based LiM chip.

    Event energies derive from the compiled 16x10 bit CAM and SRAM
    bricks; the background term absorbs the rest of the measured
    72 mW-per-clock budget (chip clock tree, control, A/B SRAM banks).
    """
    if tech is None:
        from ..tech.presets import cmos65
        tech = cmos65()
    cam = estimate_brick(compile_brick(cam_brick(16, 10), tech), tech)
    sram = estimate_brick(compile_brick(sram_brick(16, 10), tech), tech)
    event_energy = {
        "hcam_match": cam.match_energy,
        "hcam_insert": cam.write_energy,
        "vcam_match": cam.match_energy * 0.5,  # narrower key, 32 entries
        "sram_read": sram.read_energy,
        "sram_write": sram.write_energy,
        "mac": 0.9 * PJ,          # 10-bit multiply-add in std cells
        "a_read": sram.read_energy,
        "b_read": sram.read_energy,
        "flush": sram.write_energy,
    }
    # Calibrate background so a typical all-events-every-cycle profile
    # meets the measured per-clock power.
    per_cycle_events = (event_energy["hcam_match"]
                        + event_energy["vcam_match"]
                        + event_energy["sram_read"]
                        + event_energy["sram_write"]
                        + event_energy["mac"]
                        + event_energy["a_read"])
    target = LIM_POWER_W / freq_hz
    background = max(target - per_cycle_events, 0.0)
    return ChipEnergyModel("lim_cam", freq_hz, event_energy, background)


def heap_energy_model(tech: Optional[Technology] = None,
                      freq_hz: float = HEAP_FREQ_HZ) -> ChipEnergyModel:
    """Energy model of the heap/FIFO baseline chip.

    Every FIFO re-arrangement step is an SRAM read plus write; the
    background term absorbs the rest of the 96 mW-per-clock budget.
    """
    if tech is None:
        from ..tech.presets import cmos65
        tech = cmos65()
    sram = estimate_brick(compile_brick(sram_brick(16, 10), tech), tech)
    event_energy = {
        "fifo_read": sram.read_energy,
        "fifo_write": sram.write_energy,
        "sram_read": sram.read_energy,
        "sram_write": sram.write_energy,
        "mac": 0.9 * PJ,
        "a_read": sram.read_energy,
        "b_read": sram.read_energy,
    }
    # Typical cycle: one FIFO read + one FIFO write (the shift loop).
    per_cycle_events = (event_energy["fifo_read"]
                        + event_energy["fifo_write"])
    target = HEAP_POWER_W / freq_hz
    background = max(target - per_cycle_events, 0.0)
    return ChipEnergyModel("heap_fifo", freq_hz, event_energy,
                           background)


def estimated_frequencies(tech: Optional[Technology] = None
                          ) -> Dict[str, float]:
    """Frequencies predicted by our own brick models (cross-check
    against the silicon's 475/725 MHz and its 35 % gap).

    The LiM core's cycle is bounded by the CAM match path plus the
    write-back; the baseline's by the SRAM read path.
    """
    if tech is None:
        from ..tech.presets import cmos65
        tech = cmos65()
    cam = estimate_brick(compile_brick(cam_brick(16, 10), tech), tech)
    sram = estimate_brick(compile_brick(sram_brick(16, 10), tech), tech)
    margin = 1.35  # sequencer + write-back margin of the custom periphery
    lim = 1.0 / ((cam.match_delay + cam.setup) * margin)
    heap = 1.0 / ((sram.read_delay + sram.setup) * 1.05)
    return {"lim_hz": lim, "heap_hz": heap, "ratio": lim / heap}
