"""Sharded, streaming, resumable design-space exploration.

ROADMAP's million-point open item: the Fig. 4c sweep materializes every
priced point, which caps exploration around 10^4 candidates.  This
module prices a 10^5–10^6-point :class:`~repro.explore.lattice.Lattice`
in fixed-size *shards* instead:

* a shard worker (:func:`price_shard`) slices the lattice as numpy
  columns, rides :func:`repro.bricks.batch.estimate_metric_columns`
  (no per-point Python objects), reduces the slice to its local Pareto
  front with one :func:`~repro.explore.pareto.pareto_mask` call plus a
  deterministic top-K, and returns only those survivors.  The batch
  kernel is the only pricing path: a kernel error fails the whole
  shard through the executor, and a point prices identically whatever
  shard it lands in, so results do not depend on ``shard_size`` or
  ``jobs``;
* the engine (:mod:`repro.explore.engine`) fans shards over
  ``perf.parallel``, merges shard fronts into one online
  :class:`~repro.explore.pareto.ParetoAccumulator`, and checkpoints
  each completed shard in ``perf.cache`` under the plan fingerprint so
  a killed sweep resumes warm and reproduces an identical frontier.

Memory is bounded by ``frontier + top_k`` per shard and overall — the
full population is never held.  Every survivor carries its global
lattice ``index``, which keys all accumulator ordering, making the
result independent of shard completion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bricks.batch import (
    BrickSpecBatch,
    compile_batch,
    estimate_metric_columns,
)
from ..errors import ExplorationError
from ..perf.timer import Stopwatch
from ..tech.technology import Technology
from .lattice import Lattice, LatticePoint, SweepSpace
from .pareto import ParetoAccumulator, TopKAccumulator, pareto_mask

#: Metric columns a sweep may minimize over (as produced by
#: :func:`repro.bricks.batch.estimate_metric_columns`).
OBJECTIVE_COLUMNS = ("read_delay", "read_energy", "write_energy",
                     "area_um2", "leakage_w")

#: The default frontier objectives — the paper's Fig. 4c axes.
DEFAULT_OBJECTIVES = ("read_delay", "read_energy", "area_um2")


@dataclass(frozen=True)
class ScalePoint:
    """One priced lattice point (geometry + metrics + global index).

    The one point type of both sweep arms: a cached sweep returns every
    point as one, a sharded sweep its survivors, and shard checkpoints
    pickle them.
    """

    index: int
    memory_type: str
    total_words: int
    bits: int
    brick_words: int
    stack: int
    read_delay: float
    read_energy: float
    write_energy: float
    area_um2: float
    leakage_w: float

    @property
    def label(self) -> str:
        return (f"{self.total_words}x{self.bits}b from "
                f"{self.brick_words}x{self.bits}b bricks "
                f"({self.stack}x)")

    def metric(self, name: str) -> float:
        if name not in OBJECTIVE_COLUMNS:
            raise ExplorationError(
                f"unknown objective {name!r}; "
                f"known: {OBJECTIVE_COLUMNS}")
        return float(getattr(self, name))

    def vector(self, objectives: Sequence[str]) -> Tuple[float, ...]:
        return tuple(self.metric(name) for name in objectives)

    def normalized(self, ref: "ScalePoint") -> Dict[str, float]:
        """Metrics normalized to a reference point (Fig. 4c's y-axes)."""
        return {
            "delay": self.read_delay / ref.read_delay,
            "energy": self.read_energy / ref.read_energy,
            "area": self.area_um2 / ref.area_um2,
        }


@dataclass(frozen=True)
class ScaleFailure:
    """One point a cached-mode sweep skipped under ``keep_going``
    (:func:`repro.explore.sweep.price_lattice`); a sharded sweep prices
    whole shards, so a kernel error fails its shard instead."""

    index: int
    memory_type: str
    total_words: int
    bits: int
    brick_words: int
    stack: int
    error: str

    @property
    def label(self) -> str:
        return (f"{self.total_words}x{self.bits}b from "
                f"{self.brick_words}x{self.bits}b bricks")


@dataclass
class ShardResult:
    """Everything one shard contributes: survivors, never the bulk.

    ``frontier`` holds the shard-local Pareto entries as ``(key, point,
    vector)`` triples (key = global lattice index), ``top`` the shard's
    ``(score, key, point)`` best-by-score list.  This is also the
    checkpoint payload — picklable, and small (front + top-K, not
    ``stop - start`` points).
    """

    shard: int
    start: int
    stop: int
    n_priced: int
    frontier: List[Tuple[int, ScalePoint, Tuple[float, ...]]]
    top: List[Tuple[float, int, ScalePoint]]
    wall_clock_s: float = 0.0

    @property
    def n_points(self) -> int:
        return self.stop - self.start


def price_shard(space: SweepSpace, shard: int, start: int, stop: int,
                tech: Technology,
                objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                top_k: int = 16) -> ShardResult:
    """Price one lattice slice and reduce it to its survivors.

    Columns in, columns out: the slice is priced by the batch kernel
    and reduced with one :func:`~repro.explore.pareto.pareto_mask`
    call.  Only the local front and top-K materialize as
    :class:`ScalePoint` objects.  A kernel error propagates and fails
    the whole shard.
    """
    watch = Stopwatch()
    lattice = Lattice(space)
    cols = lattice.columns(start, stop)
    batch = BrickSpecBatch(memory_code=cols["memory_code"],
                           words=cols["words"], bits=cols["bits"],
                           stack=cols["stack"])
    columns = estimate_metric_columns(compile_batch(batch, tech), tech)
    indices = np.arange(start, stop, dtype=np.int64)
    frontier, top = _reduce(columns, indices, lattice.point,
                            objectives, top_k)
    return ShardResult(shard=shard, start=start, stop=stop,
                       n_priced=int(indices.shape[0]),
                       frontier=frontier.entries(),
                       top=top.entries(),
                       wall_clock_s=watch.elapsed())


def _reduce(columns: Dict[str, np.ndarray], indices: np.ndarray,
            point_of, objectives: Sequence[str], top_k: int
            ) -> Tuple[ParetoAccumulator, TopKAccumulator]:
    """Pareto + top-K reduction of priced columns.

    ``point_of(global_index)`` supplies the geometry of one point
    (a :class:`~repro.explore.lattice.LatticePoint`); only surviving
    rows are materialized as :class:`ScalePoint` objects.
    """
    n = int(indices.shape[0])
    frontier = ParetoAccumulator()
    top = TopKAccumulator(top_k)
    if not n:
        return frontier, top
    objective_columns = [columns[name] for name in objectives]
    # Product of the objective columns, multiplied in objective order:
    # a scale-free scalar aggregate (energy-delay-area product for the
    # defaults) that is computable shard-locally, so top-K needs no
    # global pass.
    score = objective_columns[0]
    for column in objective_columns[1:]:
        score = score * column
    keep = np.flatnonzero(pareto_mask(objective_columns))
    if top.k:
        k = min(top.k, n)
        best = np.argpartition(score, k - 1)[:k]
        wanted = np.union1d(keep, best)
    else:
        best = np.zeros(0, dtype=np.int64)
        wanted = keep
    survivors = {int(row): _materialize(point_of, columns, indices,
                                        int(row))
                 for row in wanted}
    for row in keep:
        point = survivors[int(row)]
        frontier.add(point.index, point,
                     [column[row] for column in objective_columns])
    for row in best:
        point = survivors[int(row)]
        top.add(point.index, point, float(score[int(row)]))
    return frontier, top


def _materialize(point_of, columns: Dict[str, np.ndarray],
                 indices: np.ndarray, row: int) -> ScalePoint:
    """Build the full :class:`ScalePoint` for one surviving row."""
    point = point_of(int(indices[row]))
    return ScalePoint(
        index=point.index, memory_type=point.memory_type,
        total_words=point.total_words, bits=point.bits,
        brick_words=point.brick_words, stack=point.stack,
        read_delay=float(columns["read_delay"][row]),
        read_energy=float(columns["read_energy"][row]),
        write_energy=float(columns["write_energy"][row]),
        area_um2=float(columns["area_um2"][row]),
        leakage_w=float(columns["leakage_w"][row]))


def price_combos(combos: Sequence[Tuple[str, int, int, int]],
                 tech: Technology,
                 objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                 top_k: int = 16,
                 start_index: int = 0,
                 shard: int = -1) -> ShardResult:
    """Price an explicit ``(memory_type, total_words, bits,
    brick_words)`` candidate list — the refinement pass's off-lattice
    midpoints.  Indices continue from ``start_index`` so refined points
    never collide with lattice keys.
    """
    points = [LatticePoint(index=start_index + i, memory_type=mt,
                           total_words=tw, bits=bits, brick_words=bw,
                           stack=tw // bw)
              for i, (mt, tw, bits, bw) in enumerate(combos)]
    by_index = {p.index: p for p in points}
    batch = BrickSpecBatch.from_arrays(
        [p.memory_type for p in points],
        [p.brick_words for p in points],
        [p.bits for p in points],
        [p.stack for p in points])
    columns = estimate_metric_columns(compile_batch(batch, tech), tech)
    indices = np.asarray([p.index for p in points], dtype=np.int64)
    frontier, top = _reduce(columns, indices, by_index.__getitem__,
                            objectives, top_k)
    return ShardResult(shard=shard, start=start_index,
                       stop=start_index + len(points),
                       n_priced=int(indices.shape[0]),
                       frontier=frontier.entries(),
                       top=top.entries())


def _shard_worker(task: Tuple) -> ShardResult:
    """Top-level picklable entry point for ``perf.parallel`` workers."""
    space, shard, start, stop, tech, objectives, top_k = task
    return price_shard(space, shard, start, stop, tech,
                       objectives=objectives, top_k=top_k)


def shard_bounds(n_points: int,
                 shard_size: int) -> List[Tuple[int, int]]:
    """Split ``[0, n_points)`` into ``shard_size``-point slices."""
    if shard_size < 1:
        raise ExplorationError(
            f"shard size must be >= 1, got {shard_size}")
    return [(start, min(start + shard_size, n_points))
            for start in range(0, n_points, shard_size)]


def refine_candidates(space: SweepSpace,
                      frontier: Sequence[ScalePoint],
                      lattice: Optional[Lattice] = None,
                      exclude: Optional[set] = None
                      ) -> List[Tuple[str, int, int, int]]:
    """Successive-halving zoom: midpoint candidates around the frontier.

    For every frontier point and every numeric axis, offer the
    midpoints between the point's value and its nearest lattice
    neighbours (rounded down), keeping only combinations that satisfy
    the divisibility constraint and are not already on the lattice (or
    in ``exclude`` — combos priced by earlier refinement rounds).
    Returns deduplicated ``(memory_type, total_words, bits,
    brick_words)`` rows in deterministic order.
    """
    lattice = lattice if lattice is not None else Lattice(space)
    axes = {
        "total_words": sorted(set(space.total_words_options)),
        "bits": sorted(set(space.bits_options)),
        "brick_words": sorted(set(space.brick_words_options)),
    }
    seen = set(exclude) if exclude else set()
    out: List[Tuple[str, int, int, int]] = []
    for point in frontier:
        base = {"total_words": point.total_words, "bits": point.bits,
                "brick_words": point.brick_words}
        for axis, options in axes.items():
            for neighbour in _neighbours(options, base[axis]):
                mid = (base[axis] + neighbour) // 2
                if mid == base[axis] or mid < 1:
                    continue
                trial = dict(base)
                trial[axis] = mid
                combo = (point.memory_type, trial["total_words"],
                         trial["bits"], trial["brick_words"])
                if combo in seen:
                    continue
                seen.add(combo)
                if trial["total_words"] % trial["brick_words"] != 0:
                    continue
                if lattice.contains(point.memory_type,
                                    trial["total_words"],
                                    trial["bits"],
                                    trial["brick_words"]):
                    continue
                out.append(combo)
    return out


def _neighbours(options: Sequence[int], value: int) -> List[int]:
    """The lattice values flanking ``value`` on one axis."""
    below = [v for v in options if v < value]
    above = [v for v in options if v > value]
    out: List[int] = []
    if below:
        out.append(below[-1])
    if above:
        out.append(above[0])
    return out
