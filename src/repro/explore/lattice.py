"""The sweep parameter lattice: lazy, sliceable, array-shaped.

A million-point design-space sweep cannot afford to materialize its
point list up front — the lattice here stays *implicit*: a
:class:`SweepSpace` declares the axis options (total words, bits, brick
words, memory types), a :class:`Lattice` lays them out as contiguous
*blocks* (one per ``(memory_type, bits, brick_words)`` combination,
holding the total-words values that pass the divisibility filter), and
shards address points by global index range.  A shard materializes only
its own slice — as :class:`LatticePoint` tuples for bookkeeping, or
directly as numpy columns feeding
:func:`repro.bricks.batch.estimate_metric_columns` without ever
constructing per-point Python objects.

For a single memory type the enumeration order is bits -> brick_words
-> total_words, the Fig. 4c table's row order; the engine's cached
mode prices the lattice point by point in exactly that order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..bricks.spec import MAX_BITS, MAX_WORDS
from ..cells.bitcells import MEMORY_TYPES
from ..errors import ExplorationError


@dataclass(frozen=True)
class SweepSpace:
    """The declarative axes of one design-space sweep.

    Hashable and picklable: workers rebuild their :class:`Lattice` from
    the space (cheap — block layout is ``O(axes)``, not ``O(points)``),
    and the plan fingerprint covers it.
    """

    total_words_options: Tuple[int, ...] = (128,)
    bits_options: Tuple[int, ...] = (8, 16, 32)
    brick_words_options: Tuple[int, ...] = (16, 32, 64)
    memory_types: Tuple[str, ...] = ("8T",)

    def __post_init__(self) -> None:
        for name in ("total_words_options", "bits_options",
                     "brick_words_options", "memory_types"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if not getattr(self, name):
                raise ExplorationError(f"sweep space needs at least one "
                                       f"value for {name}")
        for mt in self.memory_types:
            if mt not in MEMORY_TYPES:
                raise ExplorationError(
                    f"unknown memory type {mt!r}; "
                    f"known: {MEMORY_TYPES}")
        for name in ("total_words_options", "bits_options",
                     "brick_words_options"):
            for value in getattr(self, name):
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 1:
                    raise ExplorationError(
                        f"{name} must be positive integers, "
                        f"got {value!r}")
        # Lattice columns reach the batch kernel without BrickSpec's
        # range checks, so the spec domain is enforced here, once, for
        # both sweep modes.
        for name, limit in (("bits_options", MAX_BITS),
                            ("brick_words_options", MAX_WORDS)):
            over = [value for value in getattr(self, name)
                    if value > limit]
            if over:
                raise ExplorationError(
                    f"{name} must be <= {limit}, got {over}")

    @classmethod
    def from_options(cls, total_words_options: Sequence[int] = (128,),
                     bits_options: Sequence[int] = (8, 16, 32),
                     brick_words_options: Sequence[int] = (16, 32, 64),
                     memory_type: str = "8T",
                     memory_types: Sequence[str] = ()) -> "SweepSpace":
        """Build a space from per-axis keywords (the shape of
        :class:`~repro.explore.engine.SweepEngine` and the session
        sweep methods).

        ``memory_types`` (plural) wins over the scalar ``memory_type``
        when given — the multi-type lattice the scaled engine explores.
        """
        types = tuple(memory_types) if memory_types else (memory_type,)
        return cls(total_words_options=tuple(total_words_options),
                   bits_options=tuple(bits_options),
                   brick_words_options=tuple(brick_words_options),
                   memory_types=types)


class LatticePoint(NamedTuple):
    """One addressed point of the lattice (global ``index`` included)."""

    index: int
    memory_type: str
    total_words: int
    bits: int
    brick_words: int
    stack: int

    @property
    def label(self) -> str:
        return (f"{self.total_words}x{self.bits}b from "
                f"{self.brick_words}x{self.bits}b bricks "
                f"({self.stack}x)")


@dataclass(frozen=True)
class _Block:
    """One contiguous run of points sharing (type, bits, brick_words)."""

    start: int
    memory_type: str
    bits: int
    brick_words: int
    total_words: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.total_words)


class Lattice:
    """Indexed view over a :class:`SweepSpace`'s valid points.

    Points are ordered memory_type -> bits -> brick_words ->
    total_words, with combinations failing the paper's divisibility
    constraint (``total_words % brick_words == 0``) skipped.  Blocks
    make global indexing O(log blocks) and slicing O(slice).
    """

    def __init__(self, space: SweepSpace) -> None:
        self.space = space
        # total_words surviving the divisibility filter, per brick size.
        valid_tw: Dict[int, Tuple[int, ...]] = {}
        for bw in space.brick_words_options:
            valid_tw[bw] = tuple(tw for tw in space.total_words_options
                                 if tw % bw == 0)
        blocks: List[_Block] = []
        start = 0
        for memory_type in space.memory_types:
            for bits in space.bits_options:
                for bw in space.brick_words_options:
                    tws = valid_tw[bw]
                    if not tws:
                        continue
                    blocks.append(_Block(start, memory_type, bits, bw,
                                         tws))
                    start += len(tws)
        self._blocks = blocks
        self._starts = [block.start for block in blocks]
        self._n = start

    def __len__(self) -> int:
        return self._n

    def _locate(self, index: int) -> Tuple[_Block, int]:
        if not 0 <= index < self._n:
            raise ExplorationError(
                f"lattice index {index} out of range [0, {self._n})")
        pos = bisect_right(self._starts, index) - 1
        block = self._blocks[pos]
        return block, index - block.start

    def point(self, index: int) -> LatticePoint:
        """Materialize one point by global index."""
        block, offset = self._locate(index)
        tw = block.total_words[offset]
        return LatticePoint(index=index, memory_type=block.memory_type,
                            total_words=tw, bits=block.bits,
                            brick_words=block.brick_words,
                            stack=tw // block.brick_words)

    def _block_runs(self, start: int,
                    stop: int) -> Iterator[Tuple[_Block, int, int]]:
        """Yield ``(block, lo, hi)`` runs covering ``[start, stop)``."""
        if start < 0 or stop > self._n or start > stop:
            raise ExplorationError(
                f"lattice slice [{start}, {stop}) out of range "
                f"[0, {self._n})")
        index = start
        while index < stop:
            block, offset = self._locate(index)
            take = min(stop - index, len(block) - offset)
            yield block, offset, offset + take
            index += take

    def points(self, start: int, stop: int) -> List[LatticePoint]:
        """Materialize the points of ``[start, stop)``, in order."""
        out: List[LatticePoint] = []
        for block, lo, hi in self._block_runs(start, stop):
            bw = block.brick_words
            for offset in range(lo, hi):
                tw = block.total_words[offset]
                out.append(LatticePoint(
                    index=block.start + offset,
                    memory_type=block.memory_type,
                    total_words=tw, bits=block.bits, brick_words=bw,
                    stack=tw // bw))
        return out

    def columns(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        """The slice as struct-of-arrays columns (no Python objects).

        Returns ``memory_code`` (index into
        :data:`repro.cells.bitcells.MEMORY_TYPES`), ``words`` (brick
        words), ``bits``, ``total_words`` and ``stack`` — the exact
        shape :class:`repro.bricks.batch.BrickSpecBatch` consumes.
        """
        codes: List[np.ndarray] = []
        words: List[np.ndarray] = []
        bits: List[np.ndarray] = []
        totals: List[np.ndarray] = []
        for block, lo, hi in self._block_runs(start, stop):
            n = hi - lo
            tw = np.asarray(block.total_words[lo:hi], dtype=np.int64)
            codes.append(np.full(
                n, MEMORY_TYPES.index(block.memory_type),
                dtype=np.int8))
            words.append(np.full(n, block.brick_words, dtype=np.int64))
            bits.append(np.full(n, block.bits, dtype=np.int64))
            totals.append(tw)
        if not codes:
            empty = np.zeros(0, dtype=np.int64)
            return {"memory_code": np.zeros(0, dtype=np.int8),
                    "words": empty, "bits": empty,
                    "total_words": empty, "stack": empty}
        memory_code = np.concatenate(codes)
        words_col = np.concatenate(words)
        totals_col = np.concatenate(totals)
        return {"memory_code": memory_code,
                "words": words_col,
                "bits": np.concatenate(bits),
                "total_words": totals_col,
                "stack": totals_col // words_col}

    def contains(self, memory_type: str, total_words: int, bits: int,
                 brick_words: int) -> bool:
        """Whether a combination is already on the lattice (used by the
        refinement pass to offer only genuinely new candidates)."""
        space = self.space
        return (memory_type in space.memory_types
                and bits in space.bits_options
                and brick_words in space.brick_words_options
                and total_words in space.total_words_options
                and total_words % brick_words == 0)
