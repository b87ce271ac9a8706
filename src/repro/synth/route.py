"""Global routing estimation and parasitic generation.

Plays the role of the router plus the .spef file in the paper's flow:
every net gets a routed length estimate (HPWL with a Steiner correction
for high-fanout nets) on the technology's routing layer, and the
resulting RC feeds static timing and power analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import math

from ..tech.technology import Technology
from .place import PlacedDesign


@dataclass(frozen=True)
class NetParasitics:
    """Lumped RC of one routed net."""

    length_um: float
    resistance: float
    capacitance: float


@dataclass
class Parasitics:
    """Per-net parasitics for a placed design (the .spef role)."""

    nets: Dict[int, NetParasitics] = field(default_factory=dict)

    def of(self, net: int) -> NetParasitics:
        return self.nets.get(net, NetParasitics(0.0, 0.0, 0.0))

    @property
    def total_wirelength_um(self) -> float:
        return sum(p.length_um for p in self.nets.values())


def _steiner_factor(n_pins: int) -> float:
    """HPWL underestimates multi-pin nets; the standard correction grows
    slowly with pin count (Chu's RSMT/HPWL ratios)."""
    if n_pins <= 3:
        return 1.0
    return 1.0 + 0.3 * math.log2(n_pins / 2.0)


def _macro_pin_position(cell, pin: str, placement) -> Tuple[float, float]:
    """Physical position of a brick macro pin.

    Wordline pins (RWL/WWL, and CAM matchlines) distribute along the
    macro's left/right edge over its full height; bit pins (WBL/ARBL/SL)
    distribute along the bottom edge.  This is what makes a tall 8-brick
    stack pay for its global signal routing (the Fig. 4b config-D
    penalty) while short stacks do not.
    """
    base, _, index_text = pin.partition("[")
    index = int(index_text[:-1]) if index_text else 0
    words = int(cell.model.attrs.get("words", 1)) * \
        int(cell.model.attrs.get("stack", 1))
    bits = int(cell.model.attrs.get("bits", 1))
    if base in ("RWL", "WWL"):
        frac = (index + 0.5) / max(words, 1)
        return placement.x, placement.y + frac * placement.height
    if base == "ML":
        frac = (index + 0.5) / max(words, 1)
        return placement.x + placement.width, \
            placement.y + frac * placement.height
    if base in ("WBL", "ARBL", "SL"):
        frac = (index + 0.5) / max(bits, 1)
        return placement.x + frac * placement.width, placement.y
    return placement.x, placement.y  # CLK, WE at the corner


def route(design: PlacedDesign, tech: Technology) -> Parasitics:
    """Estimate routed length and RC for every net of the design."""
    layer = tech.layer(tech.routing_layer)
    netlist = design.netlist
    pins_per_net: Dict[int, List[Tuple[float, float]]] = {}
    for cell in netlist.cells:
        if cell.model.is_brick:
            placement = design.positions[cell.name]
            for pin, net in cell.pins.items():
                pins_per_net.setdefault(net, []).append(
                    _macro_pin_position(cell, pin, placement))
            continue
        x, y = design.pin_position(cell.name)
        for net in set(cell.pins.values()):
            pins_per_net.setdefault(net, []).append((x, y))
    # Primary ports pin at the die boundary (bottom-left corner default).
    for nets in list(netlist.inputs.values()) + \
            list(netlist.outputs.values()):
        for net in nets:
            pins_per_net.setdefault(net, []).append((0.0, 0.0))

    result = Parasitics()
    for net, points in pins_per_net.items():
        if len(points) < 2:
            continue
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        length = hpwl * _steiner_factor(len(points))
        r_wire, c_wire = layer.rc(length)
        result.nets[net] = NetParasitics(length, r_wire, c_wire)
    return result
