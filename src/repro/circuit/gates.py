"""Gate catalog: topologies, logical-effort parameters, logic functions.

The standard-cell library (:mod:`repro.cells.stdcells`), the technology
mapper and the event-driven logic simulator all share this catalog.  Each
:class:`GateType` carries

* classic logical-effort parameters (``g`` per input, parasitic ``p`` in
  units of the inverter parasitic),
* the total transistor width per unit of drive strength (for area, input
  capacitance and switching-energy models), and
* the Boolean function (for logic simulation and equivalence tests).

Values of ``g`` and ``p`` are the textbook ones (Sutherland/Sproull/Harris,
*Logical Effort*, 1999 — reference [9] of the paper) for a PMOS/NMOS
strength ratio of 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from ..errors import NetlistError

BoolFunc = Callable[..., bool]


@dataclass(frozen=True)
class GateType:
    """A combinational (or sequential) cell archetype.

    Parameters
    ----------
    name:
        Catalog name (``"NAND2"``...).
    pins:
        Ordered input pin names.  Sequential cells list the data pin first
        and the clock pin last.
    g:
        Logical effort per input pin.
    p:
        Parasitic delay in units of the inverter parasitic.
    width_units:
        Total transistor width, in multiples of the minimum width, of a
        unit-drive instance.  Input cap, area and self-energy scale with
        drive strength times this number.
    func:
        Boolean function over the input pins, in pin order.  For sequential
        cells this is the next-state function (D for a DFF).
    inverting:
        True when the cell's function is the complement of a monotone
        function of its inputs (used by slew-polarity bookkeeping).
    sequential:
        True for flip-flops and latches.
    """

    name: str
    pins: Tuple[str, ...]
    g: Dict[str, float]
    p: float
    width_units: float
    func: BoolFunc
    inverting: bool = True
    sequential: bool = False

    def __post_init__(self) -> None:
        missing = [pin for pin in self.pins if pin not in self.g]
        if missing:
            raise NetlistError(
                f"gate {self.name!r} missing logical effort for {missing}")

    def evaluate(self, values: Sequence[bool]) -> bool:
        """Evaluate the Boolean function on input values in pin order."""
        if len(values) != len(self.pins):
            raise NetlistError(
                f"gate {self.name!r} expects {len(self.pins)} inputs, "
                f"got {len(values)}")
        return bool(self.func(*values))


def _gate(name, pins, g, p, width_units, func, inverting=True,
          sequential=False) -> GateType:
    return GateType(name=name, pins=tuple(pins), g=dict(g), p=p,
                    width_units=width_units, func=func,
                    inverting=inverting, sequential=sequential)


def _nand_g(k: int) -> float:
    return (k + 2) / 3.0


def _nor_g(k: int) -> float:
    return (2 * k + 1) / 3.0


#: The complete catalog, keyed by name.
CATALOG: Dict[str, GateType] = {}


def _register(gate: GateType) -> GateType:
    if gate.name in CATALOG:
        raise NetlistError(f"duplicate gate type {gate.name!r}")
    CATALOG[gate.name] = gate
    return gate


INV = _register(_gate(
    "INV", ["A"], {"A": 1.0}, p=1.0, width_units=3.0,
    func=lambda a: not a))

# A buffer is two inverters; modelled as a single two-stage cell with the
# effective logical effort of the pair seen as one stage of a long path.
BUF = _register(_gate(
    "BUF", ["A"], {"A": 1.0}, p=2.0, width_units=6.0,
    func=lambda a: a, inverting=False))

NAND2 = _register(_gate(
    "NAND2", ["A", "B"], {"A": _nand_g(2), "B": _nand_g(2)}, p=2.0,
    width_units=8.0, func=lambda a, b: not (a and b)))
NAND3 = _register(_gate(
    "NAND3", ["A", "B", "C"],
    {"A": _nand_g(3), "B": _nand_g(3), "C": _nand_g(3)}, p=3.0,
    width_units=15.0, func=lambda a, b, c: not (a and b and c)))
NAND4 = _register(_gate(
    "NAND4", ["A", "B", "C", "D"],
    {pin: _nand_g(4) for pin in "ABCD"}, p=4.0,
    width_units=24.0, func=lambda a, b, c, d: not (a and b and c and d)))

NOR2 = _register(_gate(
    "NOR2", ["A", "B"], {"A": _nor_g(2), "B": _nor_g(2)}, p=2.0,
    width_units=10.0, func=lambda a, b: not (a or b)))
NOR3 = _register(_gate(
    "NOR3", ["A", "B", "C"],
    {pin: _nor_g(3) for pin in "ABC"}, p=3.0,
    width_units=21.0, func=lambda a, b, c: not (a or b or c)))

# Composite (two-stage) non-inverting cells.  Their logical effort is the
# product of the stages' efforts and their parasitic the sum, which is the
# correct way to treat a compound cell as one path stage.
AND2 = _register(_gate(
    "AND2", ["A", "B"], {pin: _nand_g(2) for pin in "AB"}, p=3.0,
    width_units=11.0, func=lambda a, b: a and b, inverting=False))
AND3 = _register(_gate(
    "AND3", ["A", "B", "C"], {pin: _nand_g(3) for pin in "ABC"}, p=4.0,
    width_units=18.0, func=lambda a, b, c: a and b and c, inverting=False))
AND4 = _register(_gate(
    "AND4", ["A", "B", "C", "D"], {pin: _nand_g(4) for pin in "ABCD"},
    p=5.0, width_units=27.0,
    func=lambda a, b, c, d: a and b and c and d, inverting=False))
OR2 = _register(_gate(
    "OR2", ["A", "B"], {pin: _nor_g(2) for pin in "AB"}, p=3.0,
    width_units=13.0, func=lambda a, b: a or b, inverting=False))
OR3 = _register(_gate(
    "OR3", ["A", "B", "C"], {pin: _nor_g(3) for pin in "ABC"}, p=4.0,
    width_units=24.0, func=lambda a, b, c: a or b or c, inverting=False))

AOI21 = _register(_gate(
    "AOI21", ["A", "B", "C"],
    {"A": 2.0, "B": 2.0, "C": 5.0 / 3.0}, p=7.0 / 3.0,
    width_units=12.0, func=lambda a, b, c: not ((a and b) or c)))
OAI21 = _register(_gate(
    "OAI21", ["A", "B", "C"],
    {"A": 2.0, "B": 2.0, "C": 5.0 / 3.0}, p=7.0 / 3.0,
    width_units=12.0, func=lambda a, b, c: not ((a or b) and c)))

# XOR/XNOR/MUX built from pass-transistor-free static CMOS; efforts are the
# standard symmetric-static values.
XOR2 = _register(_gate(
    "XOR2", ["A", "B"], {"A": 4.0, "B": 4.0}, p=4.0,
    width_units=22.0, func=lambda a, b: a != b, inverting=False))
XNOR2 = _register(_gate(
    "XNOR2", ["A", "B"], {"A": 4.0, "B": 4.0}, p=4.0,
    width_units=22.0, func=lambda a, b: a == b, inverting=False))
MUX2 = _register(_gate(
    "MUX2", ["A", "B", "S"], {"A": 2.0, "B": 2.0, "S": 4.0}, p=4.0,
    width_units=20.0, func=lambda a, b, s: b if s else a,
    inverting=False))

# Sequential cells.  The "function" is the next-state function of the data
# pin(s); the clock pin is last by convention.
DFF = _register(_gate(
    "DFF", ["D", "CK"], {"D": 1.5, "CK": 1.0}, p=6.0,
    width_units=28.0, func=lambda d, ck: d, inverting=False,
    sequential=True))
DFFE = _register(_gate(
    "DFFE", ["D", "EN", "CK"], {"D": 1.5, "EN": 1.5, "CK": 1.0}, p=7.0,
    width_units=36.0, func=lambda d, en, ck: d, inverting=False,
    sequential=True))


def gate_type(name: str) -> GateType:
    """Look a gate archetype up by name."""
    try:
        return CATALOG[name]
    except KeyError as exc:
        raise NetlistError(
            f"unknown gate type {name!r}; known: {sorted(CATALOG)}"
        ) from exc
