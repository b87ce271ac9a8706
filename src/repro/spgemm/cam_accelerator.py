"""Cycle-level simulator of the LiM CAM-SpGEMM chip (Fig. 5).

Micro-architecture (Section 4 + [12]):

* B is processed in sub-blocks of ``N = 32`` columns; each in-flight
  column binds one horizontal CAM through the vertical CAM.
* For every nonzero ``B[k, j]`` the engine streams A's column ``k``; each
  element ``(i, A[i,k])`` costs **one cycle**: vertical-CAM match selects
  the HCAM, the HCAM matches row ``i`` single-cycle, and the matched
  entry multiplies-and-accumulates (or a new entry is inserted) via the
  mismatch-detect priority decode and write-back path.
* A full HCAM flushes its 16 entries to a partial buffer (16 cycles) and
  keeps going; drained columns write back sorted (one cycle per entry,
  plus a merge pass over spilled entries).

The simulator produces the *actual* result matrix and verifies it against
the golden Gustavson reference, so every cycle count reported by the
benchmarks comes from a run that computed the right answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import AcceleratorError
from .blocking import column_blocks, stream_block, writeback_column
from .cam_arch import CAMGeometry, HorizontalCAM, VerticalCAM
from .dram import DRAMChannel
from .energy import ChipEnergyModel, lim_energy_model
from .reference import spgemm_gustavson
from .sparse import CSCMatrix


@dataclass
class AcceleratorRun:
    """Result of one accelerator simulation."""

    name: str
    cycles: int
    events: Dict[str, int]
    result: CSCMatrix
    freq_hz: float
    energy_j: float
    dram_stats: Optional[Dict[str, float]] = None

    @property
    def completion_time_s(self) -> float:
        return self.cycles / self.freq_hz

    @property
    def average_power_w(self) -> float:
        time = self.completion_time_s
        return self.energy_j / time if time else 0.0


class CAMSpGEMMAccelerator:
    """The LiM chip: 32 horizontal CAMs + 1 vertical CAM."""

    def __init__(self, geometry: Optional[CAMGeometry] = None,
                 energy_model: Optional[ChipEnergyModel] = None):
        self.geometry = geometry or CAMGeometry()
        self.energy_model = energy_model or lim_energy_model()

    def simulate(self, a: CSCMatrix, b: CSCMatrix,
                 with_dram: bool = False,
                 verify: bool = True) -> AcceleratorRun:
        """Run C = A x B and return cycles/events/energy."""
        if a.n_cols != b.n_rows:
            raise AcceleratorError(
                f"dimension mismatch: {a.shape} x {b.shape}")
        if a.n_rows > self.geometry.max_row_index + 1:
            raise AcceleratorError(
                f"{a.n_rows} rows exceed the {self.geometry.index_bits}-"
                f"bit index CAM (at most "
                f"{self.geometry.max_row_index + 1} rows)")
        geometry = self.geometry
        events: Dict[str, int] = {
            "hcam_match": 0, "hcam_insert": 0, "hcam_update": 0,
            "hcam_flush": 0, "vcam_match": 0, "sram_read": 0,
            "sram_write": 0, "mac": 0, "a_read": 0, "b_read": 0,
        }
        cycles = 0
        dram = DRAMChannel() if with_dram else None

        out_indptr = [0]
        out_indices: List[int] = []
        out_data: List[float] = []

        vcam = VerticalCAM(geometry)
        for block in column_blocks(b, geometry.n_hcams):
            if dram is not None:
                cycles += stream_block(dram, block)
            # Bind one HCAM per in-flight column of this sub-block.
            hcams: Dict[int, HorizontalCAM] = {}
            for slot, j in enumerate(range(block.start, block.stop)):
                hcam = HorizontalCAM(geometry)
                hcam.bind(j)
                vcam.bind(slot, j)
                hcams[j] = hcam
                cycles += 1  # vertical CAM entry write

            for j in range(block.start, block.stop):
                hcam = hcams[j]
                b_rows, b_values = b.column(j)
                for k, b_kj in zip(b_rows, b_values):
                    events["b_read"] += 1
                    a_rows, a_values = a.column(int(k))
                    for i, a_ik in zip(a_rows, a_values):
                        # One cycle per streamed element: VCAM match +
                        # HCAM match + MAC/insert write-back.
                        slot = vcam.match(j)
                        if slot is None:
                            raise AcceleratorError(
                                f"column {j} lost its vertical CAM slot")
                        events["vcam_match"] += 1
                        events["a_read"] += 1
                        events["hcam_match"] += 1
                        outcome = hcam.accumulate(
                            int(i), float(a_ik) * float(b_kj))
                        events["mac"] += 1
                        if outcome == "update":
                            events["hcam_update"] += 1
                            events["sram_read"] += 1
                            events["sram_write"] += 1
                            cycles += 1
                        elif outcome == "insert":
                            events["hcam_insert"] += 1
                            events["sram_write"] += 1
                            cycles += 1
                        else:  # spill: flushed 16 entries, then insert
                            events["hcam_flush"] += 1
                            events["sram_read"] += geometry.entries
                            events["sram_write"] += geometry.entries + 1
                            cycles += geometry.entries + 1

                # Column complete: drain sorted entries to the output.
                entries = hcam.drain()
                slot = vcam.match(j)
                if slot is not None:
                    vcam.release(slot)
                events["sram_read"] += len(entries)
                cycles += len(entries)
                for row, value in entries:
                    if value != 0.0:
                        out_indices.append(row)
                        out_data.append(value)
                out_indptr.append(len(out_indices))
                if dram is not None:
                    cycles += writeback_column(
                        dram, 1 << 24, len(entries))

        result = CSCMatrix(a.n_rows, b.n_cols,
                           np.array(out_indptr),
                           np.array(out_indices, dtype=np.int64),
                           np.array(out_data))
        if verify:
            golden = spgemm_gustavson(a, b)
            if not result.allclose(golden):
                raise AcceleratorError(
                    "CAM accelerator produced a wrong product")
        energy = self.energy_model.energy(events, cycles)
        if dram is not None:
            energy += dram.energy
        return AcceleratorRun(
            name="lim_cam",
            cycles=cycles,
            events=events,
            result=result,
            freq_hz=self.energy_model.freq_hz,
            energy_j=energy,
            dram_stats=dram.stats() if dram is not None else None,
        )
