"""Dynamic brick library generation.

"Once the corresponding netlist has been generated, a parameterized library
model for the brick is created that includes the critical path, energy,
area, and setup & hold times that are needed for use in the subsequent
synthesis flow. ... The dynamically generated brick library covers all
memory brick sizes, types, and aspect ratios." (Section 3)

:func:`brick_cell_model` turns a compiled brick plus stack count into a
:class:`~repro.liberty.models.CellModel` whose delay/energy LUTs are
characterized by pricing the estimator over output load (one batch row
per load; input slew is an additive term), and
:func:`generate_brick_library` batches that for a set of specs — the
operation the paper times at "within 2 seconds of wall clock" for nine
bricks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cells.stdcells import unit_input_cap
from ..errors import LibraryError
from ..liberty.lut import LUT2D, default_load_axis, default_slew_axis
from ..liberty.models import (
    CLOCK,
    INPUT,
    OUTPUT,
    CellModel,
    LibraryModel,
    PinModel,
    TimingArc,
)
from ..tech.technology import Technology
from .batch import brick_rows, estimate_batch
from .compiler import CompiledBrick
from .spec import BrickSpec


def bank_cell_name(spec: BrickSpec, stack: int) -> str:
    """Library cell name of a brick stacked ``stack`` times."""
    return f"{spec.name}_s{stack}"


def brick_cell_model(compiled: CompiledBrick, tech: Technology,
                     stack: Optional[int] = None) -> CellModel:
    """Characterize one stacked brick bank as a library macro cell.

    The model exposes representative pins (``CLK``, ``DWL``, ``WBL``,
    ``WE`` and output ``ARBL``; plus ``SL``/``ML`` for CAM bricks) with
    per-bit capacitances, a clock-to-output arc whose LUT is swept over
    input slew and ARBL load, per-operation energy LUTs, setup/hold
    constraints and the stacked layout area.
    """
    spec = compiled.spec
    stack = compiled.target_stack if stack is None else stack
    c_unit = unit_input_cap(tech)
    slews = default_slew_axis(tech.tau)
    loads = default_load_axis(4.0 * c_unit)

    # The estimate depends on the output load but not on the input slew
    # (slew enters the LUTs as an additive first-order penalty), so one
    # batch row per load column characterizes the whole slew x load
    # grid.  The default output load is exactly ``loads[1]``, so that
    # row is also the base estimate.
    ests = estimate_batch(brick_rows(compiled, stack, loads), tech)
    base = ests[1]
    read_delays = np.asarray([e.read_delay for e in ests])
    read_energies = np.asarray([e.read_energy for e in ests])
    slew_arr = np.asarray(slews)
    # Input (clock) slew adds the standard first-order penalty.
    delay_grid = np.add.outer(slew_arr / 6.0, read_delays)
    out_slew_grid = np.add.outer(
        slew_arr / 10.0,
        2.0 * ((read_delays - base.read_delay)
               + 0.3 * base.read_delay))
    read_energy_grid = np.tile(read_energies, (len(slews), 1))

    delay_lut = LUT2D.from_grid(slews, loads, delay_grid)
    slew_lut = LUT2D.from_grid(slews, loads, out_slew_grid)
    energy: Dict[str, LUT2D] = {
        "read": LUT2D.from_grid(slews, loads, read_energy_grid),
        "write": LUT2D.constant(base.write_energy),
        "clock": LUT2D.constant(
            0.5 * base.clock_cap * tech.vdd ** 2 * 2.0),
    }

    # 1R1W interface (Fig. 3): decoded read and write wordlines come from
    # external synthesized decoders; WBL/ARBL are per-bit data pins.
    pins: Dict[str, PinModel] = {
        "CLK": PinModel("CLK", CLOCK, cap=base.clock_cap),
        "RWL": PinModel("RWL", INPUT, cap=base.dwl_cap),
        "WWL": PinModel("WWL", INPUT, cap=base.dwl_cap),
        "WBL": PinModel("WBL", INPUT, cap=base.wbl_cap),
        "WE": PinModel("WE", INPUT, cap=2.0 * c_unit),
        "ARBL": PinModel("ARBL", OUTPUT),
    }
    arcs: List[TimingArc] = [
        TimingArc("CLK", "ARBL", delay_lut, slew_lut)]

    if spec.is_cam:
        assert base.match_delay is not None
        match_delay_lut = LUT2D.constant(base.match_delay)
        match_slew_lut = LUT2D.constant(0.6 * base.match_delay)
        pins["SL"] = PinModel("SL", INPUT, cap=2.0 * c_unit)
        pins["ML"] = PinModel("ML", OUTPUT)
        arcs.append(TimingArc("CLK", "ML", match_delay_lut,
                              match_slew_lut))
        energy["match"] = LUT2D.constant(base.match_energy)

    # Precharged operation: the read evaluates in the clock-high half
    # and precharges in the low half, so the period must cover twice
    # the slower of the read (and, for CAM, match) paths.
    slowest = base.read_delay
    if base.match_delay is not None:
        slowest = max(slowest, base.match_delay)
    return CellModel(
        name=bank_cell_name(spec, stack),
        area=base.area_um2,
        pins=pins,
        arcs=arcs,
        energy=energy,
        leakage=base.leakage_w,
        sequential=True,
        setup=base.setup,
        hold=base.hold,
        clock_pin="CLK",
        min_period=2.0 * slowest,
        attrs={
            "memory_type": spec.memory_type,
            "words": spec.words,
            "bits": spec.bits,
            "stack": stack,
            "capacity_bits": spec.capacity_bits * stack,
            "read_delay": base.read_delay,
            "read_energy": base.read_energy,
            "write_energy": base.write_energy,
            "match_delay": base.match_delay,
            "match_energy": base.match_energy,
        },
    )


def generate_brick_library(
        requests: Sequence[Tuple[BrickSpec, int]],
        session,
        name: str = "bricks") -> Tuple[LibraryModel, float]:
    """Compile and characterize a batch of (spec, stack) requests.

    Returns ``(library, wall_clock_seconds)`` — the elapsed time backs the
    paper's "compiling the netlists and generating the library estimations
    were finalized within 2 seconds" claim (Fig 4c).

    Characterization routes through :mod:`repro.perf` under ``session``
    (a :class:`~repro.session.Session`): repeated requests (and requests
    already characterized earlier in the process, or in a previous run
    when a disk cache is configured) are computed exactly once, and cold
    points fan out over the session's ``jobs`` worker processes with
    results identical to the serial order.
    """
    if not requests:
        raise LibraryError("empty brick library request")
    from ..obs.trace import maybe_span
    from ..perf.characterize import characterize_cells
    from ..perf.timer import Stopwatch
    watch = Stopwatch()
    library = LibraryModel(name=f"{name}_{session.tech.name}",
                           tech_name=session.tech.name)
    with maybe_span(session.tracer, f"brick_library:{name}",
                    kind="library", n_requests=len(requests)):
        for cell in characterize_cells(requests, session):
            library.add(cell)
    return library, watch.elapsed()
