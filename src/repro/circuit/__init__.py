"""Circuit substrate: logical effort, gate catalog, transient reference sim."""

from .gates import CATALOG, GateType, gate_type
from .logical_effort import le_tau, parasitic_inv
from .netlist import GND, Capacitor, Mosfet, Resistor, SpiceCircuit, VSource
from .spice import TransientResult, TransientSimulator
from .waveform import Waveform, pulse, ramp

__all__ = [
    "CATALOG", "GateType", "gate_type",
    "le_tau", "parasitic_inv",
    "GND", "Capacitor", "Mosfet", "Resistor", "SpiceCircuit", "VSource",
    "TransientResult", "TransientSimulator",
    "Waveform", "pulse", "ramp",
]
