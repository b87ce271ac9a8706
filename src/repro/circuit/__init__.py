"""Circuit substrate: logical effort, gate catalog, transient reference sim."""

from .gates import CATALOG, GateType, gate_type
from .logical_effort import (
    SizedPath,
    buffer_chain,
    gate_delay,
    le_tau,
    optimal_stage_count,
    parasitic_inv,
    path_effort,
    size_path,
)
from .netlist import GND, Capacitor, Mosfet, Resistor, SpiceCircuit, VSource
from .spice import TransientResult, TransientSimulator
from .waveform import Waveform, pulse, ramp

__all__ = [
    "CATALOG", "GateType", "gate_type",
    "SizedPath", "buffer_chain", "gate_delay", "le_tau",
    "optimal_stage_count", "parasitic_inv", "path_effort", "size_path",
    "GND", "Capacitor", "Mosfet", "Resistor", "SpiceCircuit", "VSource",
    "TransientResult", "TransientSimulator",
    "Waveform", "pulse", "ramp",
]
