"""Technology mapping helpers.

The Design-Compiler role the generators don't already cover:
:func:`resize_for_load`, post-route drive selection.  Every cell is
re-sized to the smallest drive that keeps its stage effort bounded at
its routed load, the paper's "synthesis tools do not have the ability
to improve [bricks]" contrast — standard cells *are* resized freely.
"""

from __future__ import annotations

from typing import Dict, List

from ..cells.stdcells import unit_input_cap
from ..liberty.models import LibraryModel
from ..rtl.module import FlatNetlist
from ..tech.technology import Technology
from .route import Parasitics


def resize_for_load(netlist: FlatNetlist, library: LibraryModel,
                    parasitics: Parasitics, tech: Technology,
                    max_effort: float = 4.0) -> int:
    """Swap each std cell to the smallest drive meeting the effort bound.

    Mutates the flat netlist's cell models in place and returns the
    number of cells whose drive changed.  Bricks are macros and are never
    touched (the explicit Section 6 limitation — see
    ``explore.sweep.optimize_brick_selection`` for the future-work
    counterpart).
    """
    c_unit = unit_input_cap(tech)
    # Per-net loads (pins + wire).
    loads: Dict[int, float] = {}
    for cell in netlist.cells:
        for pin, net in cell.pins.items():
            base = cell.base_pin(pin)
            if cell.model.pins[base].direction != "output":
                loads[net] = loads.get(net, 0.0) + \
                    cell.model.pin_cap(base)
    for net, para in parasitics.nets.items():
        loads[net] = loads.get(net, 0.0) + para.capacitance

    # Group library variants by gate archetype.
    variants: Dict[str, List] = {}
    for cell_model in library:
        if cell_model.gate_name is None or cell_model.is_brick:
            continue
        variants.setdefault(cell_model.gate_name, []).append(cell_model)
    for models in variants.values():
        models.sort(key=lambda c: c.attrs.get("drive", 1))

    changed = 0
    for cell in netlist.cells:
        model = cell.model
        if model.is_brick or model.gate_name is None:
            continue
        out_pin = model.output_pins()[0]
        net = cell.pins.get(out_pin)
        if net is None:
            continue
        load = loads.get(net, 0.0)
        for candidate in variants.get(model.gate_name, []):
            drive = candidate.attrs.get("drive", 1)
            if load <= max_effort * drive * c_unit:
                if candidate.name != model.name:
                    cell.model = candidate
                    changed += 1
                break
        else:
            best = variants.get(model.gate_name, [model])[-1]
            if best.name != model.name:
                cell.model = best
                changed += 1
    return changed
