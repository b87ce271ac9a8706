"""Standard-cell library generation.

The paper's flow maps "custom periphery and computation logic ... to
standard cells" that are lithography-compatible with the memory bricks.
This module characterizes a standard-cell library over the gate catalog of
:mod:`repro.circuit.gates`: for every archetype and drive strength it
derives NLDM delay/slew/energy tables from the logical-effort model of the
technology, producing :class:`~repro.liberty.models.CellModel` objects that
the mapper, STA and power engines consume — exactly the role of the vendor
standard-cell ``.lib``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from ..circuit.gates import CATALOG, GateType
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

DEFAULT_DRIVES = (1, 2, 4, 8)

#: Layout density: cell area per unit of transistor width, in units of
#: (poly pitch x m1 pitch).  Calibrated so INV_X1 lands near ~1 um^2 at
#: 65 nm, a typical 9-track figure.
_AREA_FACTOR = 7.0


def unit_input_cap(tech: Technology) -> float:
    """Input capacitance of a minimum (drive X1) inverter."""
    beta_w = tech.inverter_beta()
    return tech.c_gate * tech.w_min_um * (1.0 + beta_w)


def cell_name(gate: GateType, drive: int) -> str:
    return f"{gate.name}_X{drive}"


def _cell_area(gate: GateType, drive: int, tech: Technology) -> float:
    width_um = gate.width_units * drive * tech.w_min_um
    return width_um * _AREA_FACTOR * tech.poly_pitch_um * tech.m1_pitch_um \
        / tech.w_min_um * (tech.w_min_um / 0.12) * 0.12


def make_stdcell(gate: GateType, drive: int,
                 tech: Technology) -> CellModel:
    """Characterize one standard cell at one drive strength."""
    if drive < 1:
        raise LibraryError("drive strength must be >= 1")
    c_unit = unit_input_cap(tech)
    beta_w = tech.inverter_beta()
    # Effective output drive resistance of a drive-k cell: cells are
    # sized so their output drive equals a k-wide inverter's; the NLDM
    # table represents the rise/fall average.  The 50 %-crossing factor
    # matches the brick estimator's fitted constant so both halves of
    # the library sit in the same delay convention.
    k50 = 0.735
    w_n = drive * tech.w_min_um
    w_p = w_n * beta_w
    r_eff = 0.5 * (tech.r_on_n / w_n + tech.r_on_p / w_p)
    # Output parasitic: the cell's own diffusion, growing with its
    # logical-effort parasitic p (stacks add drain junctions).
    c_self = gate.p * tech.c_diff * w_n * (1.0 + beta_w)

    pins: Dict[str, PinModel] = {}
    for pin in gate.pins:
        direction = CLOCK if (gate.sequential and pin == gate.pins[-1]) \
            else INPUT
        pins[pin] = PinModel(pin, direction,
                             cap=gate.g[pin] * drive * c_unit)
    pins["Y"] = PinModel("Y", OUTPUT)

    slews = default_slew_axis(tech.tau)
    loads = default_load_axis(c_unit * drive)

    def delay_fn(slew: float, load: float) -> float:
        return k50 * r_eff * (load + c_self) + slew / 6.0

    def slew_fn(slew: float, load: float) -> float:
        return 2.0 * k50 * r_eff * (load + c_self) + slew / 10.0

    def energy_fn(slew: float, load: float) -> float:
        # Average supply energy per output transition plus a small
        # short-circuit term that grows with input slew (referenced to
        # the cell's own intrinsic transition time).
        dynamic = 0.5 * (load + c_self) * tech.vdd ** 2
        t_intrinsic = k50 * r_eff * c_self
        short_circuit = 0.05 * slew / (t_intrinsic + slew) * dynamic
        return dynamic + short_circuit

    delay_lut = LUT2D.from_function(delay_fn, slews, loads)
    slew_lut = LUT2D.from_function(slew_fn, slews, loads)
    energy_lut = LUT2D.from_function(energy_fn, slews, loads)

    arcs = []
    setup = hold = 0.0
    clock_pin: Optional[str] = None
    energy: Dict[str, LUT2D] = {"switch": energy_lut}
    if gate.sequential:
        clock_pin = gate.pins[-1]
        # Clock-to-Q is the delay arc; D (and EN) pins get constraints.
        arcs.append(TimingArc(clock_pin, "Y", delay_lut, slew_lut))
        fo4 = tech.fo4_delay()
        setup = 2.0 * fo4
        hold = 0.3 * fo4
        # Internal clock-tree energy per clock edge even with no output
        # toggle.
        energy["clock"] = LUT2D.constant(
            0.5 * gate.g[clock_pin] * drive * c_unit * tech.vdd ** 2 * 3.0)
    else:
        for pin in gate.pins:
            arcs.append(TimingArc(pin, "Y", delay_lut, slew_lut))

    leakage = (tech.i_leak_n * gate.width_units * drive * tech.w_min_um
               * 0.5 * tech.vdd)
    return CellModel(
        name=cell_name(gate, drive),
        area=_cell_area(gate, drive, tech),
        pins=pins,
        arcs=arcs,
        energy=energy,
        leakage=leakage,
        gate_name=gate.name,
        sequential=gate.sequential,
        setup=setup,
        hold=hold,
        clock_pin=clock_pin,
        attrs={"drive": drive},
    )


def make_stdcell_library(tech: Technology,
                         drives: Sequence[int] = DEFAULT_DRIVES,
                         gates: Optional[Iterable[str]] = None
                         ) -> LibraryModel:
    """Characterize the full standard-cell library for ``tech``.

    ``gates`` restricts the archetypes (default: the whole catalog).
    """
    library = LibraryModel(name=f"stdcells_{tech.name}",
                           tech_name=tech.name)
    names = sorted(gates) if gates is not None else sorted(CATALOG)
    for name in names:
        gate = CATALOG[name]
        for drive in drives:
            library.add(make_stdcell(gate, drive, tech))
    return library
