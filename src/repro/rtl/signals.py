"""Nets and buses for the structural RTL layer.

The paper describes smart memories "in RTL" and synthesizes them with
commercial tools; our RTL is a Python-embedded structural netlist — the
same role the "Chip Generator" object-oriented tools of reference [13]
play.  A :class:`Net` is a single-bit wire; a :class:`Bus` is an ordered
list of nets with Verilog-style indexing (bit 0 is the LSB).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Union

from ..errors import RTLError


class Net:
    """A single-bit net inside one module."""

    __slots__ = ("name", "module_name")

    def __init__(self, name: str, module_name: str):
        if not name:
            raise RTLError("net name must be non-empty")
        self.name = name
        self.module_name = module_name

    def __repr__(self) -> str:
        return f"Net({self.module_name}.{self.name})"


class Bus:
    """An ordered collection of nets (LSB first)."""

    def __init__(self, nets: Sequence[Net]):
        if not nets:
            raise RTLError("bus must contain at least one net")
        self._nets: List[Net] = list(nets)

    @property
    def width(self) -> int:
        return len(self._nets)

    def __len__(self) -> int:
        return len(self._nets)

    def __iter__(self) -> Iterator[Net]:
        return iter(self._nets)

    def __getitem__(self, index) -> Union[Net, "Bus"]:
        if isinstance(index, slice):
            return Bus(self._nets[index])
        return self._nets[index]

    def bits(self) -> List[Net]:
        return list(self._nets)

    def __repr__(self) -> str:
        return f"Bus({self._nets[0].name}..{self._nets[-1].name})"


#: Anything connectable to a 1-bit pin.
Bit = Net
#: Anything connectable to a port: a net or a bus.
Signal = Union[Net, Bus]


def as_bus(signal: Signal) -> Bus:
    """Coerce a signal to a bus (a net becomes a 1-bit bus)."""
    if isinstance(signal, Bus):
        return signal
    if isinstance(signal, Net):
        return Bus([signal])
    raise RTLError(f"not a signal: {signal!r}")


def int_to_bits(value: int, width: int) -> List[bool]:
    """Little-endian bit expansion of a non-negative integer."""
    if value < 0:
        raise RTLError("only non-negative constants supported")
    if value >= (1 << width):
        raise RTLError(f"constant {value} does not fit in {width} bits")
    return [(value >> i) & 1 == 1 for i in range(width)]


def bits_to_int(bits: Sequence[bool]) -> int:
    """Little-endian bits to integer."""
    value = 0
    for i, bit in enumerate(bits):
        if bit:
            value |= 1 << i
    return value
