"""Clock-tree synthesis estimate.

The flow's sequential cells (flops and brick macros) all receive the
clock; a real physical synthesis run builds a buffered tree for it.  This
module estimates that tree for a placed design: an H-tree-style recursive
bisection over the clock sinks, buffer levels sized by logical effort,
yielding wirelength, insertion delay, a skew bound and the per-cycle tree
energy that :mod:`repro.synth.power` would otherwise miss.

The estimate is deliberately conservative and closed-form — the same
philosophy as the routing estimate: good enough that energy and timing
trends across configurations are faithful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..cells.stdcells import unit_input_cap
from ..errors import SynthesisError
from ..tech.technology import Technology
from .place import PlacedDesign


@dataclass(frozen=True)
class ClockTree:
    """Estimated clock distribution network of a placed design."""

    n_sinks: int
    sink_cap: float          # total clock pin capacitance (F)
    levels: int              # buffer levels
    wirelength_um: float     # total tree wire
    wire_cap: float          # total tree wire capacitance (F)
    buffer_cap: float        # total buffer input capacitance (F)
    insertion_delay: float   # root-to-sink latency estimate (s)
    skew_bound: float        # max sink-to-sink arrival spread bound (s)
    energy_per_cycle: float  # CV^2 of the whole network per cycle (J)


def _clock_sinks(design: PlacedDesign
                 ) -> Tuple[List[Tuple[float, float]], float]:
    """Positions and total pin cap of every clock sink."""
    sinks: List[Tuple[float, float]] = []
    total_cap = 0.0
    for cell in design.netlist.cells:
        model = cell.model
        if not model.sequential or model.clock_pin is None:
            continue
        sinks.append(design.pin_position(cell.name))
        total_cap += model.pin_cap(model.clock_pin)
    return sinks, total_cap


def build_clock_tree(design: PlacedDesign,
                     tech: Technology) -> ClockTree:
    """Estimate the clock tree of a placed design.

    H-tree recursion: each level halves the spanned region; the number
    of levels follows the sink count (one buffer drives ~4 child
    branches, the classic fanout); wirelength per level is the region
    half-perimeter times the branch count.
    """
    sinks, sink_cap = _clock_sinks(design)
    if not sinks:
        raise SynthesisError(
            "design has no clock sinks (no sequential cells)")
    xs = [p[0] for p in sinks]
    ys = [p[1] for p in sinks]
    span_x = max(xs) - min(xs)
    span_y = max(ys) - min(ys)
    n_sinks = len(sinks)
    levels = max(1, math.ceil(math.log(max(n_sinks, 2), 4)))

    layer = tech.layer(tech.routing_layer)
    wirelength = 0.0
    for level in range(levels):
        branches = 4 ** level
        # Each branch spans half the previous region's half-perimeter.
        segment = (span_x + span_y) / (2.0 ** (level + 1))
        wirelength += branches * segment
    # Leaf stubs to every sink.
    leaf_pitch = math.sqrt(max(span_x * span_y, 1e-9) / n_sinks)
    wirelength += n_sinks * leaf_pitch / 2.0

    r_wire, c_wire = layer.rc(wirelength)
    c_unit = unit_input_cap(tech)
    # One buffer per branch point, sized 8x (clock buffers are big).
    n_buffers = sum(4 ** level for level in range(levels))
    buffer_cap = n_buffers * 8.0 * c_unit

    # Insertion delay: levels x (buffer delay at fanout ~4 + segment
    # wire Elmore).
    beta_w = tech.inverter_beta()
    w_n = 8.0 * tech.w_min_um
    r_buf = 0.5 * (tech.r_on_n / w_n + tech.r_on_p / (w_n * beta_w))
    per_level_wire = wirelength / max(levels, 1)
    r_seg, c_seg = layer.rc(per_level_wire / max(1, n_buffers // 2))
    load_per_buffer = (c_wire + sink_cap + buffer_cap) / n_buffers
    stage = 0.735 * (r_buf * load_per_buffer
                     + r_seg * load_per_buffer / 2.0)
    insertion = levels * stage
    # Skew bound: one stage of imbalance (balanced H-tree assumption).
    skew = 0.25 * stage

    total_cap = sink_cap + c_wire + buffer_cap
    energy = total_cap * tech.vdd ** 2  # full swing once per cycle
    return ClockTree(
        n_sinks=n_sinks,
        sink_cap=sink_cap,
        levels=levels,
        wirelength_um=wirelength,
        wire_cap=c_wire,
        buffer_cap=buffer_cap,
        insertion_delay=insertion,
        skew_bound=skew,
        energy_per_cycle=energy,
    )
