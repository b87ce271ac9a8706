"""Structural modules, instances and elaboration to a flat netlist.

A :class:`Module` holds ports, nets and standard-cell/brick instances;
:func:`elaborate` binds it to a :class:`~repro.liberty.models.LibraryModel`
as a :class:`FlatNetlist`, the common input of the logic simulator,
placer, router, STA and power engines — the way a gate-level Verilog
netlist plus .lib files feed the paper's flow.

Constants: ``module.constant(value, width)`` creates nets tied to 0/1;
tie cells are materialized at elaboration as pseudo-drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..errors import RTLError
from ..liberty.models import CellModel, LibraryModel
from .signals import Bus, Net, Signal, as_bus, int_to_bits

IN = "in"
OUT = "out"

#: Brick macro pins that accept buses: representative library pin -> True.
_BRICK_BUS_PINS = {"RWL", "WWL", "WBL", "ARBL", "SL", "ML"}


@dataclass
class Port:
    name: str
    direction: str
    signal: Signal

    @property
    def width(self) -> int:
        return 1 if isinstance(self.signal, Net) else self.signal.width


@dataclass
class CellRef:
    """An instance of a library cell inside a module.

    ``conns`` maps pin names to nets.  Brick macros may map a bus pin
    name (e.g. ``"RWL"``) to a :class:`Bus`; elaboration expands it to
    ``RWL[0] .. RWL[n-1]``.
    """

    name: str
    cell_type: str
    conns: Dict[str, Signal]


class Module:
    """A structural netlist module."""

    def __init__(self, name: str):
        if not name:
            raise RTLError("module name must be non-empty")
        self.name = name
        self.ports: Dict[str, Port] = {}
        self.cells: List[CellRef] = []
        self._net_names: Set[str] = set()
        self._cell_names: Set[str] = set()
        self._uid = 0
        #: nets tied to constants: net -> bool value
        self.constants: Dict[Net, bool] = {}
        #: net alias pairs (a, b) connected together
        self.aliases: List[Tuple[Net, Net]] = []

    # --- net and port creation ------------------------------------------------

    def _new_net(self, name: str) -> Net:
        if name in self._net_names:
            raise RTLError(f"duplicate net {name!r} in {self.name}")
        self._net_names.add(name)
        return Net(name, self.name)

    def wire(self, name: str, width: int = 1) -> Signal:
        """Create an internal net (width 1) or bus."""
        if width < 1:
            raise RTLError("width must be >= 1")
        if width == 1:
            return self._new_net(name)
        return Bus([self._new_net(f"{name}[{i}]") for i in range(width)])

    def uniq(self, prefix: str) -> str:
        """A unique instance/net name with the given prefix."""
        self._uid += 1
        return f"{prefix}_{self._uid}"

    def _port(self, name: str, direction: str, width: int) -> Signal:
        if name in self.ports:
            raise RTLError(f"duplicate port {name!r} in {self.name}")
        signal = self.wire(name, width)
        self.ports[name] = Port(name, direction, signal)
        return signal

    def input(self, name: str, width: int = 1) -> Signal:
        return self._port(name, IN, width)

    def output(self, name: str, width: int = 1) -> Signal:
        return self._port(name, OUT, width)

    def constant(self, value: int, width: int = 1) -> Signal:
        """Nets tied to a constant value."""
        signal = self.wire(self.uniq(f"const{value}"), width)
        bits = int_to_bits(value, width)
        for net, bit in zip(as_bus(signal), bits):
            self.constants[net] = bit
        return signal

    def alias(self, a: Signal, b: Signal) -> None:
        """Connect two equal-width signals (Verilog ``assign a = b``)."""
        bus_a, bus_b = as_bus(a), as_bus(b)
        if bus_a.width != bus_b.width:
            raise RTLError(
                f"alias width mismatch: {bus_a.width} vs {bus_b.width}")
        for net_a, net_b in zip(bus_a, bus_b):
            self.aliases.append((net_a, net_b))

    # --- instantiation ------------------------------------------------------------

    def cell(self, name: str, cell_type: str,
             conns: Dict[str, Signal]) -> CellRef:
        """Instantiate a library cell (standard cell or brick macro)."""
        if name in self._cell_names:
            raise RTLError(f"duplicate instance {name!r} in {self.name}")
        self._cell_names.add(name)
        ref = CellRef(name, cell_type, dict(conns))
        self.cells.append(ref)
        return ref


# --- flat netlist --------------------------------------------------------------


@dataclass
class FlatCell:
    """A flattened cell instance with pin-to-net-id connections."""

    name: str
    model: CellModel
    pins: Dict[str, int]  # expanded pin name ("RWL[3]", "A") -> net id

    def base_pin(self, pin: str) -> str:
        """Strip a bus index: ``"RWL[3]"`` -> ``"RWL"``."""
        return pin.split("[", 1)[0]


@dataclass
class FlatNetlist:
    """The elaborated design: globally numbered nets and flat cells."""

    name: str
    net_names: List[str]
    cells: List[FlatCell]
    inputs: Dict[str, List[int]]   # top port -> net ids (LSB first)
    outputs: Dict[str, List[int]]
    constants: Dict[int, bool]

    @property
    def n_nets(self) -> int:
        return len(self.net_names)

    def drivers(self) -> Dict[int, Tuple[str, str]]:
        """Map net id -> (cell name, output pin) of its driver."""
        result: Dict[int, Tuple[str, str]] = {}
        for cell in self.cells:
            for pin, net in cell.pins.items():
                if cell.model.pins[cell.base_pin(pin)].direction == "output":
                    if net in result:
                        raise RTLError(
                            f"net {self.net_names[net]} driven by both "
                            f"{result[net][0]} and {cell.name}")
                    result[net] = (cell.name, pin)
        return result

    def loads(self) -> Dict[int, List[Tuple[str, str]]]:
        """Map net id -> [(cell name, input pin)] of its sinks."""
        result: Dict[int, List[Tuple[str, str]]] = {}
        for cell in self.cells:
            for pin, net in cell.pins.items():
                direction = cell.model.pins[cell.base_pin(pin)].direction
                if direction != "output":
                    result.setdefault(net, []).append((cell.name, pin))
        return result

    def validate(self) -> None:
        """Single-driver check plus undriven-net detection."""
        driven = set(self.drivers())
        driven.update(self.constants)
        for port_nets in self.inputs.values():
            driven.update(port_nets)
        loads = self.loads()
        undriven = [self.net_names[n] for n in loads if n not in driven]
        if undriven:
            raise RTLError(
                f"nets with loads but no driver: {undriven[:8]}"
                + ("..." if len(undriven) > 8 else ""))

    def stats(self) -> Dict[str, int]:
        bricks = sum(1 for c in self.cells if c.model.is_brick)
        seq = sum(1 for c in self.cells
                  if c.model.sequential and not c.model.is_brick)
        return {
            "nets": self.n_nets,
            "cells": len(self.cells),
            "bricks": bricks,
            "flops": seq,
            "combinational": len(self.cells) - bricks - seq,
        }


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _expand_cell_conns(ref: CellRef, model: CellModel
                       ) -> Dict[str, Net]:
    """Expand bus connections on brick macros to indexed pin names."""
    expanded: Dict[str, Net] = {}
    for pin, signal in ref.conns.items():
        base = pin.split("[", 1)[0]
        if base not in model.pins:
            raise RTLError(
                f"cell {ref.name} ({model.name}) has no pin {base!r}")
        if isinstance(signal, Bus):
            if base not in _BRICK_BUS_PINS or not model.is_brick:
                if signal.width == 1:
                    expanded[pin] = signal[0]
                    continue
                raise RTLError(
                    f"pin {pin!r} of {model.name} is 1-bit; got a "
                    f"{signal.width}-bit bus")
            for i, net in enumerate(signal):
                expanded[f"{base}[{i}]"] = net
        else:
            expanded[pin] = signal
    return expanded


def elaborate(top: Module, library: LibraryModel) -> FlatNetlist:
    """Bind a module's cells to ``library`` as a :class:`FlatNetlist`.

    Aliases are resolved with a union-find so each electrical net gets
    exactly one id.
    """
    net_ids: Dict[str, int] = {}
    net_names: List[str] = []
    uf = _UnionFind()
    constants: Dict[int, bool] = {}
    cells: List[FlatCell] = []

    def net_id(net: Net) -> int:
        if net.name not in net_ids:
            net_ids[net.name] = len(net_names)
            net_names.append(net.name)
        return net_ids[net.name]

    for net, value in top.constants.items():
        constants[uf.find(net_id(net))] = value
    for net_a, net_b in top.aliases:
        uf.union(net_id(net_a), net_id(net_b))
    for ref in top.cells:
        model = library.cell(ref.cell_type)
        expanded = _expand_cell_conns(ref, model)
        pins = {pin: net_id(net) for pin, net in expanded.items()}
        cells.append(FlatCell(ref.name, model, pins))

    inputs: Dict[str, List[int]] = {}
    outputs: Dict[str, List[int]] = {}
    for port in top.ports.values():
        # net_id creates ids on demand: ports nothing references (e.g.
        # an unused clock on a purely combinational block) still exist.
        ids = [net_id(net) for net in as_bus(port.signal)]
        if port.direction == IN:
            inputs[port.name] = ids
        else:
            outputs[port.name] = ids

    # Resolve union-find: compact net ids.
    remap: Dict[int, int] = {}
    final_names: List[str] = []

    def resolve(nid: int) -> int:
        root = uf.find(nid)
        if root not in remap:
            remap[root] = len(final_names)
            final_names.append(net_names[root])
        return remap[root]

    flat_cells = [
        FlatCell(c.name, c.model,
                 {pin: resolve(nid) for pin, nid in c.pins.items()})
        for c in cells
    ]
    flat = FlatNetlist(
        name=top.name,
        net_names=final_names,
        cells=flat_cells,
        inputs={k: [resolve(n) for n in v] for k, v in inputs.items()},
        outputs={k: [resolve(n) for n in v] for k, v in outputs.items()},
        constants={resolve(n): v for n, v in constants.items()},
    )
    flat.validate()
    return flat
