"""The exploration facade: one engine for sweeps of any size.

:class:`SweepEngine` runs every sweep under one
:class:`~repro.session.Session` behind a single ``plan() -> run() ->
frontier()`` shape:

* **cached mode** (small sweeps, the Fig. 4c path): prices the lattice
  point by point through :func:`~repro.explore.sweep.price_lattice`,
  so every point is a per-point ``estimate`` cache entry with its own
  ``sweep_point`` span — and all priced points are retained.
* **sharded mode** (10^5–10^6-point lattices): fans fixed-size shards
  over :func:`repro.perf.parallel.resumable_imap`, folds each completed
  shard's local Pareto front and top-K into online accumulators, and
  checkpoints every shard in ``perf.cache`` under the plan fingerprint
  — memory stays bounded by ``frontier + top_k`` and a killed sweep
  resumes warm, reproducing a byte-identical frontier.

Both modes yield :class:`~repro.explore.scale.ScalePoint` records.
``mode="auto"`` (the default) picks cached below
:data:`AUTO_SHARD_THRESHOLD` points and sharded above it, so callers
never choose; :meth:`SweepEngine.refine` adds successive-halving zoom
rounds around the frontier after either mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ExplorationError
from ..obs.trace import maybe_span
from ..perf.fingerprint import cache_key
from ..perf.parallel import (
    ProgressCallback,
    checkpoint_key,
    resumable_imap,
)
from ..perf.timer import Stopwatch
from ..session import Session
from .lattice import Lattice, SweepSpace
from .pareto import ParetoAccumulator, TopKAccumulator
from .scale import (
    DEFAULT_OBJECTIVES,
    OBJECTIVE_COLUMNS,
    ScaleFailure,
    ScalePoint,
    ShardResult,
    _shard_worker,
    price_combos,
    refine_candidates,
    shard_bounds,
)
from .sweep import SweepResult, price_lattice

#: Lattices up to this many points run in cached mode under
#: ``mode="auto"``; larger ones go sharded.
AUTO_SHARD_THRESHOLD = 512

@dataclass(frozen=True)
class ScalePlan:
    """The pure planning half of an engine run.

    Cheap to build (no pricing, no cache traffic): the serve layer
    calls it per request just to learn the coalescing ``fingerprint``.
    ``shards`` is the ``(start, stop)`` slicing of the lattice; cached
    mode plans exactly one shard spanning everything.
    """

    space: SweepSpace
    objectives: Tuple[str, ...]
    top_k: int
    shard_size: int
    mode: str
    n_points: int
    shards: Tuple[Tuple[int, int], ...]
    fingerprint: str

    @property
    def n_shards(self) -> int:
        return len(self.shards)


@dataclass
class ScaleResult:
    """What a run keeps: survivors, never the population.

    ``frontier`` is the Pareto archive over ``objectives`` sorted by
    global lattice index; ``top`` the ``(score, point)`` best-K by the
    objective-product score.  ``points`` is only populated in cached
    mode (which prices every point one by one anyway) — in sharded
    mode it stays ``None`` so memory is bounded.  ``failures`` holds
    the points a cached run skipped under ``keep_going``.
    """

    mode: str
    objectives: Tuple[str, ...]
    n_points: int
    n_priced: int
    shards_total: int
    shards_done: int
    resumed_shards: int
    frontier: List[ScalePoint]
    top: List[Tuple[float, ScalePoint]]
    failures: List[ScaleFailure] = field(default_factory=list)
    wall_clock_s: float = 0.0
    points: Optional[List[ScalePoint]] = None
    refined_rounds: int = 0
    n_refined: int = 0

    def to_sweep_result(self) -> SweepResult:
        """The :class:`SweepResult` the sweep table renders.

        Cached mode carries every priced point, so the table is
        complete; sharded mode only has the survivors (frontier order).
        """
        kept = self.points if self.points is not None else self.frontier
        return SweepResult(points=list(kept),
                           wall_clock_s=self.wall_clock_s,
                           failures=list(self.failures))

    def frontier_json(self) -> str:
        """Canonical JSON of the frontier (byte-comparable).

        Two runs over the same plan — including one killed and resumed
        — must produce the exact same string.
        """
        payload = {
            "objectives": list(self.objectives),
            "n_points": self.n_points,
            "frontier": [
                {"index": p.index, "memory_type": p.memory_type,
                 "total_words": p.total_words, "bits": p.bits,
                 "brick_words": p.brick_words, "stack": p.stack,
                 "read_delay": p.read_delay,
                 "read_energy": p.read_energy,
                 "write_energy": p.write_energy,
                 "area_um2": p.area_um2, "leakage_w": p.leakage_w}
                for p in self.frontier],
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))


class SweepEngine:
    """Plan, run and stream one design-space sweep of any size.

    Construction takes the :class:`~repro.session.Session` the sweep
    runs under; the exploration space comes either from a
    :class:`~repro.explore.lattice.SweepSpace` or the familiar
    per-axis keywords.  Typical use::

        engine = SweepEngine(session, bits_options=range(2, 34),
                             total_words_options=[64 * k
                                                  for k in range(1, 9)])
        result = engine.run()          # resumable, bounded memory
        for point in result.frontier:  # Pareto survivors by index
            ...
    """

    def __init__(self, session: Session, *,
                 space: Optional[SweepSpace] = None,
                 total_words_options: Sequence[int] = (128,),
                 bits_options: Sequence[int] = (8, 16, 32),
                 brick_words_options: Sequence[int] = (16, 32, 64),
                 memory_type: str = "8T",
                 memory_types: Sequence[str] = (),
                 objectives: Sequence[str] = DEFAULT_OBJECTIVES,
                 top_k: int = 16,
                 shard_size: int = 8192,
                 mode: str = "auto") -> None:
        self.session = session
        if space is None:
            space = SweepSpace.from_options(
                total_words_options=total_words_options,
                bits_options=bits_options,
                brick_words_options=brick_words_options,
                memory_type=memory_type, memory_types=memory_types)
        self.space = space
        self.objectives = tuple(objectives)
        if not self.objectives:
            raise ExplorationError("need at least one objective")
        for name in self.objectives:
            if name not in OBJECTIVE_COLUMNS:
                raise ExplorationError(
                    f"unknown objective {name!r}; "
                    f"known: {OBJECTIVE_COLUMNS}")
        if top_k < 0:
            raise ExplorationError(f"top_k must be >= 0, got {top_k}")
        if shard_size < 1:
            raise ExplorationError(
                f"shard_size must be >= 1, got {shard_size}")
        if mode not in ("auto", "cached", "sharded"):
            raise ExplorationError(
                f"mode must be auto/cached/sharded, got {mode!r}")
        self.top_k = top_k
        self.shard_size = shard_size
        self.mode = mode
        self._plan: Optional[ScalePlan] = None
        self._lattice: Optional[Lattice] = None
        self._result: Optional[ScaleResult] = None
        self._refine_offset = 0
        self._refined_combos: set = set()

    # -- planning ----------------------------------------------------

    def plan(self) -> ScalePlan:
        """Lay out and fingerprint the sweep (pure, cached)."""
        if self._plan is not None:
            return self._plan
        self._lattice = Lattice(self.space)
        n = len(self._lattice)
        if n == 0:
            raise ExplorationError("sweep produced no points")
        mode = self.mode
        if mode == "auto":
            mode = ("cached"
                    if (n <= AUTO_SHARD_THRESHOLD
                        and len(self.space.memory_types) == 1)
                    else "sharded")
        if mode == "cached" and len(self.space.memory_types) != 1:
            raise ExplorationError(
                "cached mode sweeps a single memory type; "
                "use sharded mode for multi-type lattices")
        if mode == "cached":
            shards: Tuple[Tuple[int, int], ...] = ((0, n),)
        else:
            shards = tuple(shard_bounds(n, self.shard_size))
        space = self.space
        # The resolved mode shapes the result (a sharded run keeps only
        # the frontier and top-K), so it is part of the fingerprint; an
        # explicit mode equal to what auto picks shares its key.
        fp = cache_key("explore-plan", space.memory_types,
                       space.total_words_options, space.bits_options,
                       space.brick_words_options,
                       list(self.objectives), self.top_k,
                       self.shard_size, mode, self.session.tech)
        self._plan = ScalePlan(space=space,
                               objectives=self.objectives,
                               top_k=self.top_k,
                               shard_size=self.shard_size, mode=mode,
                               n_points=n, shards=shards,
                               fingerprint=fp)
        return self._plan

    # -- execution ---------------------------------------------------

    def run(self, keep_going: bool = False, resume: bool = True,
            progress: Optional[ProgressCallback] = None
            ) -> ScaleResult:
        """Execute the whole sweep; returns the reduced result.

        ``resume=True`` (default) reuses per-shard checkpoints from the
        session cache — a previously killed run only re-prices shards
        that never completed.  ``progress`` observes each shard as it
        lands (including resumed ones).
        """
        plan = self.plan()
        if plan.mode == "cached":
            result = self._run_cached(plan, keep_going, progress)
        else:
            result = self._run_sharded(plan, keep_going, resume,
                                       progress)
        self._result = result
        self._refine_offset = plan.n_points
        self._refined_combos = set()
        return result

    def frontier(self) -> List[ScalePoint]:
        """The Pareto survivors (runs the sweep on first call)."""
        if self._result is None:
            self.run()
        return list(self._result.frontier)

    # -- refinement --------------------------------------------------

    def refine(self, rounds: int = 1,
               keep_going: bool = False) -> ScaleResult:
        """Successive-halving zoom around the current frontier.

        Each round prices the midpoint candidates between frontier
        points and their lattice neighbours, folds the survivors into
        the frontier/top-K, and repeats on the (possibly moved)
        frontier.  Stops early when a round yields no new candidates.
        Refined points get indices past the lattice (``n_points +
        k``), so provenance stays unambiguous.
        """
        if rounds < 0:
            raise ExplorationError(
                f"rounds must be >= 0, got {rounds}")
        if self._result is None:
            self.run(keep_going=keep_going)
        result = self._result
        session = self.session
        frontier_acc, top_acc = self._rebuild_accumulators(result)
        for _ in range(rounds):
            combos = refine_candidates(self.space,
                                       frontier_acc.front(),
                                       exclude=self._refined_combos)
            if not combos:
                break
            shard = price_combos(combos, session.tech,
                                 objectives=self.objectives,
                                 top_k=self.top_k,
                                 start_index=self._refine_offset)
            self._refine_offset += len(combos)
            self._refined_combos.update(combos)
            for key, item, vec in shard.frontier:
                frontier_acc.add(key, item, vec)
            for score, key, item in shard.top:
                top_acc.add(key, item, score)
            result.n_priced += shard.n_priced
            result.n_refined += len(combos)
            result.refined_rounds += 1
            if session.metrics is not None:
                session.metrics.counter(
                    "explore.scale.refined_points").inc(len(combos))
        result.frontier = frontier_acc.front()
        result.top = [(score, item)
                      for score, _, item in top_acc.entries()]
        return result

    # -- internals ---------------------------------------------------

    def _rebuild_accumulators(
            self, result: ScaleResult
    ) -> Tuple[ParetoAccumulator, TopKAccumulator]:
        frontier_acc = ParetoAccumulator()
        for point in result.frontier:
            frontier_acc.add(point.index, point,
                             point.vector(self.objectives))
        top_acc = TopKAccumulator(self.top_k)
        for score, point in result.top:
            top_acc.add(point.index, point, score)
        return frontier_acc, top_acc

    def _run_cached(self, plan: ScalePlan, keep_going: bool,
                    progress: Optional[ProgressCallback]
                    ) -> ScaleResult:
        """Price every lattice point and keep them all."""
        swept = price_lattice(self._lattice, self.session,
                              keep_going=keep_going)
        frontier_acc = ParetoAccumulator()
        top_acc = TopKAccumulator(self.top_k)
        for point in swept.points:
            vec = point.vector(self.objectives)
            frontier_acc.add(point.index, point, vec)
            top_acc.add(point.index, point, math.prod(vec))
        result = ScaleResult(
            mode="cached", objectives=self.objectives,
            n_points=plan.n_points, n_priced=len(swept.points),
            shards_total=1, shards_done=1, resumed_shards=0,
            frontier=frontier_acc.front(),
            top=[(score, item)
                 for score, _, item in top_acc.entries()],
            failures=swept.failures, wall_clock_s=swept.wall_clock_s,
            points=swept.points)
        if progress is not None:
            progress(1, 1, ShardResult(
                shard=0, start=0, stop=plan.n_points,
                n_priced=len(swept.points),
                frontier=frontier_acc.entries(),
                top=top_acc.entries(),
                wall_clock_s=swept.wall_clock_s))
        return result

    def _run_sharded(self, plan: ScalePlan, keep_going: bool,
                     resume: bool,
                     progress: Optional[ProgressCallback]
                     ) -> ScaleResult:
        """Price every shard (checkpointed first, then computed)."""
        watch = Stopwatch()
        collected: Dict[int, ShardResult] = {}
        session = self.session
        done = resumed_shards = 0
        with maybe_span(session.tracer, "sweep_scale", kind="sweep",
                        n_points=plan.n_points,
                        shards=plan.n_shards,
                        mode="sharded") as span:
            tasks = [(plan.space, index, start, stop, session.tech,
                      self.objectives, self.top_k)
                     for index, (start, stop) in enumerate(plan.shards)]
            keys = [checkpoint_key("explore-shard", plan.fingerprint,
                                   keep_going, index)
                    for index in range(plan.n_shards)]
            for index, shard, resumed in resumable_imap(
                    session, _shard_worker, tasks, keys, ShardResult,
                    resume, span):
                done += 1
                resumed_shards += resumed
                self._note_shard(shard, resumed=resumed)
                if progress is not None:
                    progress(done, plan.n_shards, shard)
                collected[index] = shard
            if span is not None:
                span.attrs.update(resumed_shards=resumed_shards,
                                  shards_done=done)
        return self._merge(plan, collected, resumed_shards,
                           watch.elapsed())

    def _note_shard(self, shard: ShardResult, resumed: bool) -> None:
        """Per-shard observability: span + counters."""
        session = self.session
        if session.tracer is not None:
            pspan = session.tracer.open(
                f"shard[{shard.start}:{shard.stop}]",
                kind="sweep_shard", shard=shard.shard,
                n_points=shard.n_points, n_priced=shard.n_priced,
                frontier=len(shard.frontier), resumed=resumed)
            session.tracer.close(pspan, ok=True)
        if session.metrics is not None:
            session.metrics.counter(
                "explore.scale.shards_done").inc()
            if resumed:
                session.metrics.counter(
                    "explore.scale.shards_resumed").inc()
            session.metrics.counter(
                "explore.sweep.points_evaluated").inc(shard.n_priced)
            # A shard prices or fails as a whole, so it skips no point;
            # the counter is created for the --metrics listing.
            session.metrics.counter("explore.sweep.points_skipped")

    def _merge(self, plan: ScalePlan,
               collected: Dict[int, ShardResult], resumed_shards: int,
               wall_clock_s: float) -> ScaleResult:
        """Fold shard survivors into the global frontier/top-K."""
        frontier_acc = ParetoAccumulator()
        top_acc = TopKAccumulator(self.top_k)
        n_priced = 0
        for shard_index in sorted(collected):
            shard = collected[shard_index]
            n_priced += shard.n_priced
            for key, item, vec in shard.frontier:
                frontier_acc.add(key, item, vec)
            for score, key, item in shard.top:
                top_acc.add(key, item, score)
        return ScaleResult(
            mode="sharded", objectives=self.objectives,
            n_points=plan.n_points, n_priced=n_priced,
            shards_total=plan.n_shards, shards_done=len(collected),
            resumed_shards=resumed_shards,
            frontier=frontier_acc.front(),
            top=[(score, item)
                 for score, _, item in top_acc.entries()],
            wall_clock_s=wall_clock_s)
