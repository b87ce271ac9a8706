"""The sweep parameter lattice: lazy, sliceable, array-shaped.

A million-point design-space sweep cannot afford to materialize its
point list up front — the lattice here stays *implicit*: a
:class:`SweepSpace` declares the axis options (total words, bits, brick
words, memory types), and a :class:`Lattice` lays them out as a few
numpy arrays: the total-words values that pass the divisibility filter,
and one entry per *block* (a run of points sharing memory type, bits
and brick words).  Shards address points by global index range, and a
shard materializes only its own slice — as :class:`LatticePoint` tuples
for bookkeeping, or directly as numpy columns feeding
:func:`repro.bricks.batch.estimate_metric_columns` — through one
run-length gather over those arrays, without per-point or per-block
Python objects.

For a single memory type the enumeration order is bits -> brick_words
-> total_words, the Fig. 4c table's row order; the engine's cached
mode prices the lattice point by point in exactly that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..bricks.spec import MAX_BITS, MAX_WORDS
from ..cells.bitcells import MEMORY_TYPES
from ..errors import ExplorationError


@dataclass(frozen=True)
class SweepSpace:
    """The declarative axes of one design-space sweep.

    Hashable and picklable: workers rebuild their :class:`Lattice` from
    the space (a few array operations over the axes, never over the
    points), and the plan fingerprint covers it.  Each axis keeps the
    first occurrence of a repeated value, so no point is priced twice.
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
        for name in ("total_words_options", "bits_options",
                     "brick_words_options", "memory_types"):
            value = getattr(self, name)
            if len(set(value)) < len(value):
                object.__setattr__(self, name, tuple(dict.fromkeys(value)))

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


class Lattice:
    """Indexed view over a :class:`SweepSpace`'s valid points.

    Points are ordered memory_type -> bits -> brick_words ->
    total_words, with combinations failing the paper's divisibility
    constraint (``total_words % brick_words == 0``) skipped.  The layout
    is a handful of arrays: the total-words values that pass the filter,
    concatenated per brick-words option, and one entry per *block* (a
    run of points sharing type, bits and brick words) for its edges,
    type code, bits, brick words and offset into those values.  Every
    read is a gather over them.
    """

    def __init__(self, space: SweepSpace) -> None:
        self.space = space
        totals = np.array(space.total_words_options, dtype=np.int64)
        brick_words = np.array(space.brick_words_options, dtype=np.int64)
        # One row per brick-words option; row-major nonzero keeps each
        # option's passing totals together and in axis order.
        fits = totals % brick_words[:, None] == 0
        per_option = fits.sum(axis=1)
        self._totals = totals[fits.nonzero()[1]]
        self._segments = _edges(per_option)
        # One block per (type, bits, brick words with any passing
        # total), in that nesting order.
        used = per_option.nonzero()[0]
        shape = (len(space.memory_types), len(space.bits_options),
                 used.shape[0])
        type_pos, bits_pos, used_pos = np.unravel_index(
            np.arange(shape[0] * shape[1] * shape[2]), shape)
        option = used[used_pos]
        self._codes = np.array(
            [MEMORY_TYPES.index(mt) for mt in space.memory_types],
            dtype=np.int8)[type_pos]
        self._bits = np.array(space.bits_options, dtype=np.int64)[bits_pos]
        self._words = brick_words[option]
        self._edges = _edges(per_option[option])
        # Global index + shift = the point's position in ``_totals``.
        self._shift = self._segments[option] - self._edges[:-1]
        self._n = int(self._edges[-1])

    def __len__(self) -> int:
        return self._n

    def point(self, index: int) -> LatticePoint:
        """Materialize one point by global index."""
        if not 0 <= index < self._n:
            raise ExplorationError(
                f"lattice index {index} out of range [0, {self._n})")
        block = int(self._edges.searchsorted(index, "right")) - 1
        tw = int(self._totals[index + self._shift[block]])
        bw = int(self._words[block])
        return LatticePoint(index=index,
                            memory_type=MEMORY_TYPES[self._codes[block]],
                            total_words=tw, bits=int(self._bits[block]),
                            brick_words=bw, stack=tw // bw)

    def points(self, start: int, stop: int) -> List[LatticePoint]:
        """Materialize the points of ``[start, stop)``, in order."""
        cols = self._gather(start, stop)
        return [LatticePoint(index=index, memory_type=MEMORY_TYPES[code],
                             total_words=tw, bits=bits, brick_words=bw,
                             stack=stack)
                for index, code, tw, bits, bw, stack in zip(
                    range(start, stop), cols["memory_code"].tolist(),
                    cols["total_words"].tolist(), cols["bits"].tolist(),
                    cols["words"].tolist(), cols["stack"].tolist())]

    def columns(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        """The slice as struct-of-arrays columns (no Python objects).

        Returns ``memory_code`` (int8 index into
        :data:`repro.cells.bitcells.MEMORY_TYPES`), ``words`` (brick
        words), ``bits``, ``total_words`` and ``stack`` (int64) — the
        exact shape :class:`repro.bricks.batch.BrickSpecBatch` consumes.
        One run-length gather: each block the slice touches repeats its
        fields over the points it contributes.
        """
        return self._gather(start, stop)

    def _gather(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        """The gather behind :meth:`columns` and :meth:`points`.

        :meth:`points` calls it directly, so a traced run attributes
        only the shards' column reads to the ``Lattice.columns`` layer.
        """
        if start < 0 or stop > self._n or start > stop:
            raise ExplorationError(
                f"lattice slice [{start}, {stop}) out of range "
                f"[0, {self._n})")
        # Blocks first..last-1 overlap the slice; their edges, clipped
        # to it, bound each block's run (an empty slice has no runs).
        first = int(self._edges.searchsorted(start, "right")) - 1
        last = int(self._edges.searchsorted(stop, "left"))
        bounds = self._edges[first:last + 1].copy()
        bounds[0], bounds[-1] = start, stop
        runs = bounds[1:] - bounds[:-1]
        totals = self._totals[np.arange(start, stop)
                              + self._shift[first:last].repeat(runs)]
        words = self._words[first:last].repeat(runs)
        return {"memory_code": self._codes[first:last].repeat(runs),
                "words": words,
                "bits": self._bits[first:last].repeat(runs),
                "total_words": totals,
                "stack": totals // words}

    def contains(self, memory_type: str, total_words: int, bits: int,
                 brick_words: int) -> bool:
        """Whether a combination is already on the lattice (used by the
        refinement pass to offer only genuinely new candidates)."""
        space = self.space
        if (memory_type not in space.memory_types
                or bits not in space.bits_options
                or brick_words not in space.brick_words_options):
            return False
        option = space.brick_words_options.index(brick_words)
        lo, hi = self._segments[option], self._segments[option + 1]
        return bool((self._totals[lo:hi] == total_words).any())


def _edges(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: the edges of consecutive runs of
    ``counts`` items."""
    edges = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.add.accumulate(counts, out=edges[1:])
    return edges
