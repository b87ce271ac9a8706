"""Circuit substrate: logical effort, gate catalog, transient reference sim."""

from .gates import CATALOG, GateType, gate_type
from .logical_effort import parasitic_inv
from .netlist import GND, Capacitor, Mosfet, Resistor, SpiceCircuit, VSource
from .spice import TransientResult, TransientSimulator
from .waveform import Waveform, ramp

__all__ = [
    "CATALOG", "GateType", "gate_type",
    "parasitic_inv",
    "GND", "Capacitor", "Mosfet", "Resistor", "SpiceCircuit", "VSource",
    "TransientResult", "TransientSimulator",
    "Waveform", "ramp",
]
