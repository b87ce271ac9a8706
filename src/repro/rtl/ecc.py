"""SEC-DED (Hamming + overall parity) error correction for stored words.

The yield/repair layer (:mod:`repro.faults`) can extend every stored
word with check bits so a single stuck bitcell per word no longer kills
the brick.  This module provides that extension end to end: the check-
bit arithmetic (:func:`secded_parity_bits`), bit-accurate reference
encode/decode (:func:`secded_encode` / :func:`secded_decode`), and
structural encoder/decoder generators mapped to standard cells so the
area/energy/delay overhead of ECC flows through the normal library and
synthesis models rather than being hand-waved.

The code is the classic (n, k) Hamming layout: check bit *j* guards the
codeword positions whose 1-based index has bit *j* set, and one overall
parity bit over the whole codeword upgrades single-error correction to
double-error detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import RTLError
from .components import and2, and_tree, inv, or_tree, xor2, xor_tree
from .module import Module
from .signals import Net, as_bus

# --- check-bit arithmetic -------------------------------------------------


def hamming_parity_bits(data_bits: int) -> int:
    """Hamming check bits r such that ``2**r >= data_bits + r + 1``."""
    if data_bits < 1:
        raise RTLError("data width must be >= 1")
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


def secded_parity_bits(data_bits: int) -> int:
    """Total SEC-DED check bits: Hamming bits plus one overall parity."""
    return hamming_parity_bits(data_bits) + 1


def _data_positions(data_bits: int) -> List[int]:
    """1-based Hamming codeword position of each data bit, in order.

    Powers of two are reserved for check bits; data bits fill the gaps.
    """
    positions: List[int] = []
    pos = 1
    for _ in range(data_bits):
        while pos & (pos - 1) == 0:
            pos += 1
        positions.append(pos)
        pos += 1
    return positions


def _coverage(data_bits: int) -> List[List[int]]:
    """For each Hamming check bit, the data-bit indices it guards."""
    r = hamming_parity_bits(data_bits)
    positions = _data_positions(data_bits)
    return [[i for i, pos in enumerate(positions) if (pos >> j) & 1]
            for j in range(r)]


# --- bit-accurate reference model -----------------------------------------

#: Decode outcomes, in increasing order of distress.
OK = "ok"
CORRECTED_DATA = "corrected_data"
CORRECTED_CHECK = "corrected_check"
DETECTED_DOUBLE = "detected_double"


@dataclass(frozen=True)
class DecodeResult:
    """Corrected data plus what the decoder had to do to get it."""

    data: Tuple[int, ...]
    status: str

    @property
    def corrected(self) -> bool:
        return self.status in (CORRECTED_DATA, CORRECTED_CHECK)

    @property
    def uncorrectable(self) -> bool:
        return self.status == DETECTED_DOUBLE


def secded_encode(data: Sequence[int]) -> Tuple[int, ...]:
    """Check bits for a data word: r Hamming bits then overall parity."""
    bits = [int(b) & 1 for b in data]
    checks = []
    for covered in _coverage(len(bits)):
        p = 0
        for i in covered:
            p ^= bits[i]
        checks.append(p)
    overall = 0
    for b in bits + checks:
        overall ^= b
    return tuple(checks + [overall])


def secded_decode(data: Sequence[int],
                  checks: Sequence[int]) -> DecodeResult:
    """Correct a stored word given its stored check bits.

    Single flipped bit (data or check) is corrected; two flips are
    detected as :data:`DETECTED_DOUBLE` with the data passed through
    unmodified (the caller must treat it as lost).
    """
    bits = [int(b) & 1 for b in data]
    stored = [int(c) & 1 for c in checks]
    r = hamming_parity_bits(len(bits))
    if len(stored) != r + 1:
        raise RTLError(
            f"expected {r + 1} check bits for {len(bits)} data bits, "
            f"got {len(stored)}")
    fresh = secded_encode(bits)
    syndrome = 0
    for j in range(r):
        if fresh[j] != stored[j]:
            syndrome |= 1 << j
    overall = stored[r]
    for b in bits + stored[:r]:
        overall ^= b
    # overall == 1 means the stored overall parity disagrees with the
    # word as read, i.e. an odd number of bits flipped.
    if syndrome == 0 and overall == 0:
        return DecodeResult(tuple(bits), OK)
    if syndrome == 0:
        return DecodeResult(tuple(bits), CORRECTED_CHECK)
    if overall == 0:
        return DecodeResult(tuple(bits), DETECTED_DOUBLE)
    positions = _data_positions(len(bits))
    if syndrome in positions:
        i = positions.index(syndrome)
        bits[i] ^= 1
        return DecodeResult(tuple(bits), CORRECTED_DATA)
    # The flipped bit was a Hamming check bit: data is intact.
    return DecodeResult(tuple(bits), CORRECTED_CHECK)


# --- structural generators ------------------------------------------------


def build_secded_encoder(data_bits: int) -> Module:
    """XOR-tree encoder: ``d[data_bits]`` in, ``c[r+1]`` check bits out."""
    r = hamming_parity_bits(data_bits)
    m = Module(f"secded_enc_{data_bits}")
    d = as_bus(m.input("d", data_bits))
    c = as_bus(m.output("c", r + 1))
    check_nets: List[Net] = []
    for j, covered in enumerate(_coverage(data_bits)):
        net = xor_tree(m, [d[i] for i in covered], f"chk{j}")
        check_nets.append(net)
        m.alias(c[j], net)
    overall = xor_tree(m, list(d) + check_nets, "ovp")
    m.alias(c[r], overall)
    return m


def build_secded_decoder(data_bits: int) -> Module:
    """Corrector: ``d``/``c`` in, corrected ``q`` plus ``err``/``ded`` out.

    ``err`` pulses for any detected error (corrected or not); ``ded``
    flags an uncorrectable double error.
    """
    r = hamming_parity_bits(data_bits)
    m = Module(f"secded_dec_{data_bits}")
    d = as_bus(m.input("d", data_bits))
    c = as_bus(m.input("c", r + 1))
    q = as_bus(m.output("q", data_bits))
    err = m.output("err")
    ded = m.output("ded")

    syndrome: List[Net] = []
    for j, covered in enumerate(_coverage(data_bits)):
        fresh = xor_tree(m, [d[i] for i in covered], f"rchk{j}")
        syndrome.append(xor2(m, fresh, c[j], f"syn{j}"))
    syndrome_n = [inv(m, s, f"synb{j}") for j, s in enumerate(syndrome)]
    overall = xor_tree(m, list(d) + list(c), "ovchk")
    overall_n = inv(m, overall, "ovb")

    any_syndrome = or_tree(m, syndrome, "anysyn")
    m.alias(err, or_tree(m, [any_syndrome, overall], "anyerr"))
    m.alias(ded, and2(m, any_syndrome, overall_n, "dedg"))

    positions = _data_positions(data_bits)
    for i in range(data_bits):
        terms = [syndrome[j] if (positions[i] >> j) & 1 else syndrome_n[j]
                 for j in range(r)]
        terms.append(overall)
        flip = and_tree(m, terms, f"hit{i}")
        m.alias(q[i], xor2(m, d[i], flip, f"fix{i}"))
    return m
