"""Structural Verilog emission.

The paper integrates bricks "by Verilog modules at the RTL"; this emitter
writes a module in synthesizable structural Verilog so a generated
design can be inspected in the exchange format (Fig. 3 shows exactly such
a listing).  Output is gate-level: library cells appear as module
instantiations with named port connections.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set

from .module import IN, Module
from .signals import Bus, Net, as_bus

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _vname(name: str) -> str:
    """Sanitize a net/instance name into a Verilog identifier."""
    clean = name.replace("[", "_").replace("]", "").replace(".", "_")
    if _ID_RE.match(clean):
        return clean
    return "\\" + name + " "


def _bus_names(module: Module) -> Dict[str, str]:
    """Map every net name to its Verilog expression.

    Port buses keep Verilog vector indexing (``raddr[3]``); internal nets
    are flattened to scalar identifiers.
    """
    result: Dict[str, str] = {}
    port_nets: Set[str] = set()
    for port in module.ports.values():
        bus = as_bus(port.signal)
        if isinstance(port.signal, Net):
            result[port.signal.name] = _vname(port.name)
            port_nets.add(port.signal.name)
        else:
            for i, net in enumerate(bus):
                result[net.name] = f"{_vname(port.name)}[{i}]"
                port_nets.add(net.name)
    return result


def emit_module(module: Module) -> str:
    """Render one module as Verilog text."""
    names = _bus_names(module)
    lines: List[str] = []
    port_decls = []
    for port in module.ports.values():
        direction = "input" if port.direction == IN else "output"
        if port.width == 1:
            port_decls.append(f"  {direction} {_vname(port.name)}")
        else:
            port_decls.append(
                f"  {direction} [{port.width - 1}:0] "
                f"{_vname(port.name)}")
    lines.append(f"module {_vname(module.name)} (")
    lines.append(",\n".join(port_decls))
    lines.append(");")

    def expr(net: Net) -> str:
        if net.name in names:
            return names[net.name]
        wire_name = _vname(net.name)
        names[net.name] = wire_name
        declared.append(wire_name)
        return wire_name

    declared: List[str] = []
    body: List[str] = []
    for net, value in module.constants.items():
        body.append(f"  assign {expr(net)} = 1'b{int(value)};")
    for net_a, net_b in module.aliases:
        body.append(f"  assign {expr(net_a)} = {expr(net_b)};")
    for ref in module.cells:
        conns = []
        for pin, signal in sorted(ref.conns.items()):
            if isinstance(signal, Bus):
                bits = ", ".join(expr(net)
                                 for net in reversed(signal.bits()))
                conns.append(f".{_vname(pin)}({{{bits}}})")
            else:
                conns.append(f".{_vname(pin)}({expr(signal)})")
        body.append(f"  {_vname(ref.cell_type)} {_vname(ref.name)} "
                    f"({', '.join(conns)});")

    if declared:
        lines.append("  wire " + ",\n       ".join(declared) + ";")
    lines.extend(body)
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
