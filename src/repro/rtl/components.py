"""Gate-level component generators.

The paper's smart-memory periphery — decoders, output muxes, enable
logic, the CAM architecture's multiply-add — is synthesized from RTL
into standard cells.  These generators play that role: each builds a
mapped gate-level structure inside a
:class:`~repro.rtl.module.Module` and returns the output signal(s).

All generators emit drive-X1 cells; the physical-synthesis flow resizes
drives against routed loads afterwards (:mod:`repro.synth.mapper`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import RTLError
from .module import Module
from .signals import Bus, Net, Signal, as_bus

_DRIVE = "_X1"


def _cell(m: Module, gate: str, prefix: str, conns) -> None:
    m.cell(m.uniq(prefix), gate + _DRIVE, conns)


def inv(m: Module, a: Net, prefix: str = "inv") -> Net:
    y = m.wire(m.uniq(prefix + "_y"))
    _cell(m, "INV", prefix, {"A": a, "Y": y})
    return y


def buf(m: Module, a: Net, prefix: str = "buf") -> Net:
    y = m.wire(m.uniq(prefix + "_y"))
    _cell(m, "BUF", prefix, {"A": a, "Y": y})
    return y


def _gate2(m: Module, gate: str, a: Net, b: Net, prefix: str) -> Net:
    y = m.wire(m.uniq(prefix + "_y"))
    _cell(m, gate, prefix, {"A": a, "B": b, "Y": y})
    return y


def and2(m: Module, a: Net, b: Net, prefix: str = "and") -> Net:
    return _gate2(m, "AND2", a, b, prefix)


def or2(m: Module, a: Net, b: Net, prefix: str = "or") -> Net:
    return _gate2(m, "OR2", a, b, prefix)


def nand2(m: Module, a: Net, b: Net, prefix: str = "nand") -> Net:
    return _gate2(m, "NAND2", a, b, prefix)


def xor2(m: Module, a: Net, b: Net, prefix: str = "xor") -> Net:
    return _gate2(m, "XOR2", a, b, prefix)


def mux2(m: Module, a: Net, b: Net, sel: Net,
         prefix: str = "mux") -> Net:
    """2:1 mux: returns ``b`` when ``sel`` else ``a``."""
    y = m.wire(m.uniq(prefix + "_y"))
    _cell(m, "MUX2", prefix, {"A": a, "B": b, "S": sel, "Y": y})
    return y


def and_tree(m: Module, nets: Sequence[Net], prefix: str = "andt") -> Net:
    """Balanced AND reduction using AND2/AND3/AND4 cells."""
    nets = list(nets)
    if not nets:
        raise RTLError("and_tree needs at least one input")
    while len(nets) > 1:
        next_level: List[Net] = []
        i = 0
        while i < len(nets):
            group = nets[i:i + 4]
            i += 4
            if len(group) == 1:
                next_level.append(group[0])
            else:
                y = m.wire(m.uniq(prefix + "_y"))
                gate = {2: "AND2", 3: "AND3", 4: "AND4"}[len(group)]
                conns = dict(zip("ABCD", group))
                conns["Y"] = y
                _cell(m, gate, prefix, conns)
                next_level.append(y)
        nets = next_level
    return nets[0]


def or_tree(m: Module, nets: Sequence[Net], prefix: str = "ort") -> Net:
    """Balanced OR reduction using OR2/OR3 cells."""
    nets = list(nets)
    if not nets:
        raise RTLError("or_tree needs at least one input")
    while len(nets) > 1:
        next_level: List[Net] = []
        i = 0
        while i < len(nets):
            group = nets[i:i + 3]
            i += 3
            if len(group) == 1:
                next_level.append(group[0])
            else:
                y = m.wire(m.uniq(prefix + "_y"))
                gate = {2: "OR2", 3: "OR3"}[len(group)]
                conns = dict(zip("ABC", group))
                conns["Y"] = y
                _cell(m, gate, prefix, conns)
                next_level.append(y)
        nets = next_level
    return nets[0]


def xor_tree(m: Module, nets: Sequence[Net], prefix: str = "xort") -> Net:
    """Balanced XOR (parity) reduction using XOR2 cells."""
    nets = list(nets)
    if not nets:
        raise RTLError("xor_tree needs at least one input")
    while len(nets) > 1:
        next_level: List[Net] = []
        i = 0
        while i < len(nets):
            group = nets[i:i + 2]
            i += 2
            if len(group) == 1:
                next_level.append(group[0])
            else:
                next_level.append(
                    xor2(m, group[0], group[1], prefix + "_x"))
        nets = next_level
    return nets[0]


def decoder(m: Module, addr: Bus, en: Optional[Net] = None,
            prefix: str = "dec") -> Bus:
    """N-to-2^N one-hot decoder (the ``decoder_5to32`` of Fig. 3).

    Each output is the AND of the address literals (optionally gated by
    ``en``).  Complemented literals are shared across outputs.
    """
    n = addr.width
    if n < 1:
        raise RTLError("decoder needs at least one address bit")
    addr_b = [inv(m, bit, prefix + "_nb") for bit in addr]
    outputs: List[Net] = []
    for code in range(1 << n):
        literals = [addr[i] if (code >> i) & 1 else addr_b[i]
                    for i in range(n)]
        if en is not None:
            literals.append(en)
        outputs.append(and_tree(m, literals, prefix + f"_o{code}"))
    return Bus(outputs)


def onehot_mux(m: Module, options: Sequence[Bus], onehot: Bus,
               prefix: str = "ohm") -> Bus:
    """Word-wide mux selected by a one-hot control (bank output mux).

    Mapped as two inverting stages (NAND per term, NAND collect) — the
    classic fast AND-OR-INVERT mux structure — so the post-access mux of
    a partitioned memory (config E of Fig. 4) costs two gate delays, not
    an AND/OR tree.
    """
    if len(options) != onehot.width:
        raise RTLError("one option bus per select bit required")
    width = options[0].width
    if any(option.width != width for option in options):
        raise RTLError("all mux options must have equal width")
    out_bits: List[Net] = []
    for b in range(width):
        terms = [nand2(m, option[b], onehot[i], prefix + f"_a{b}")
                 for i, option in enumerate(options)]
        # Collect with NAND trees (NAND of NANDs = OR of ANDs for the
        # one-hot case); for >4 terms fall back to OR of AND pairs.
        if len(terms) == 1:
            out_bits.append(inv(m, terms[0], prefix + f"_o{b}"))
            continue
        if len(terms) <= 4:
            y = m.wire(m.uniq(prefix + f"_o{b}"))
            gate = {2: "NAND2", 3: "NAND3", 4: "NAND4"}[len(terms)]
            conns = dict(zip("ABCD", terms))
            conns["Y"] = y
            _cell(m, gate, prefix, conns)
            out_bits.append(y)
        else:
            inverted = [inv(m, t, prefix + f"_i{b}") for t in terms]
            out_bits.append(or_tree(m, inverted, prefix + f"_o{b}"))
    return Bus(out_bits)


def register(m: Module, d: Signal, clk: Net, en: Optional[Net] = None,
             prefix: str = "reg") -> Signal:
    """DFF (or DFFE) register bank over a signal."""
    d_bus = as_bus(d)
    q_bits: List[Net] = []
    for i, bit in enumerate(d_bus):
        q = m.wire(m.uniq(prefix + f"_q{i}"))
        if en is None:
            _cell(m, "DFF", prefix, {"D": bit, "CK": clk, "Y": q})
        else:
            _cell(m, "DFFE", prefix,
                  {"D": bit, "EN": en, "CK": clk, "Y": q})
        q_bits.append(q)
    if isinstance(d, Net):
        return q_bits[0]
    return Bus(q_bits)


def full_adder(m: Module, a: Net, b: Net, cin: Net,
               prefix: str = "fa") -> Tuple[Net, Net]:
    """Returns (sum, carry)."""
    axb = xor2(m, a, b, prefix + "_x1")
    s = xor2(m, axb, cin, prefix + "_x2")
    c1 = and2(m, a, b, prefix + "_a1")
    c2 = and2(m, axb, cin, prefix + "_a2")
    cout = or2(m, c1, c2, prefix + "_o")
    return s, cout


def ripple_adder(m: Module, a: Bus, b: Bus, cin: Optional[Net] = None,
                 prefix: str = "add") -> Tuple[Bus, Net]:
    """Ripple-carry adder; returns (sum bus, carry-out)."""
    if a.width != b.width:
        raise RTLError("adder widths must match")
    carry = cin if cin is not None else as_bus(m.constant(0))[0]
    sums: List[Net] = []
    for i in range(a.width):
        s, carry = full_adder(m, a[i], b[i], carry, prefix + f"_b{i}")
        sums.append(s)
    return Bus(sums), carry


def multiplier(m: Module, a: Bus, b: Bus,
               prefix: str = "mul") -> Bus:
    """Unsigned array multiplier: returns an (a.width + b.width) product.

    Partial products are ANDed then accumulated with ripple adders —
    the "multiply and add block" of the paper's SpGEMM write-back path
    uses this generator.
    """
    n, k = a.width, b.width
    # Partial product rows, each shifted by its row index.
    acc: List[Net] = [and2(m, a[i], b[0], prefix + "_pp0")
                      for i in range(n)]
    acc_width = n
    zero = as_bus(m.constant(0))[0]
    for j in range(1, k):
        row = [and2(m, a[i], b[j], prefix + f"_pp{j}") for i in range(n)]
        # Align: accumulator bits [j:] add with row.
        low_bits = acc[:j]
        hi = acc[j:] + [zero] * (j + n - acc_width)
        sum_bus, cout = ripple_adder(
            m, Bus(hi), Bus(row + [zero] * (len(hi) - n)),
            prefix=prefix + f"_r{j}")
        acc = low_bits + sum_bus.bits() + [cout]
        acc_width = len(acc)
    want = n + k
    if len(acc) < want:
        acc = acc + [zero] * (want - len(acc))
    return Bus(acc[:want])
