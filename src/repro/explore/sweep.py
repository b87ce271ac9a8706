"""Design-space exploration sweeps.

"Enabled by the automated brick generation, we performed rapid
design-space exploration to compare various system-level tradeoffs"
(Section 3, Fig. 4c).  :meth:`Session.sweep_partitions
<repro.session.Session.sweep_partitions>` reproduces that study: for
every (memory size, brick size) combination it compiles the brick,
generates its library model and records performance/energy/area — in
milliseconds per point, which is the paper's headline usability claim.

:meth:`Session.optimize_brick_selection
<repro.session.Session.optimize_brick_selection>` implements the
paper's *future work* (Section 6): let the flow pick the brick size
like a standard-cell drive selection instead of taking it as an input.

The supported sweep entry point is the
:class:`~repro.explore.engine.SweepEngine` facade (one ``plan() ->
run() -> frontier()`` shape up to 10^6 points).  This module holds the
grid path its ``cached`` mode runs on: ``_plan_grid`` (pure lattice)
and ``_execute_grid`` (blocking characterization), plus
the private implementations the :class:`~repro.session.Session`
methods delegate to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bricks.spec import BrickSpec
from ..errors import ExplorationError
from ..obs.trace import maybe_span
from ..perf.characterize import estimate_points
from ..perf.parallel import TaskFailure
from ..perf.timer import Stopwatch
from ..session import FaultEvent, Session


@dataclass(frozen=True)
class SweepPoint:
    """One explored memory organization."""

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

    def normalized(self, ref: "SweepPoint") -> Dict[str, float]:
        """Metrics normalized to a reference point (Fig. 4c's y-axes)."""
        return {
            "delay": self.read_delay / ref.read_delay,
            "energy": self.read_energy / ref.read_energy,
            "area": self.area_um2 / ref.area_um2,
        }


@dataclass(frozen=True)
class FailedPoint:
    """One design point the sweep skipped under ``keep_going``.

    ``index`` is the point's position in the sweep's deterministic
    enumeration (grid order for the Fig. 4c path, global lattice index
    for sharded sweeps); ``SweepResult.failures`` is sorted by it, so
    the failure list is identical regardless of executor completion
    order.  ``-1`` marks legacy records built before the field existed.
    """

    total_words: int
    bits: int
    brick_words: int
    stack: int
    error: str
    index: int = -1

    @property
    def label(self) -> str:
        return (f"{self.total_words}x{self.bits}b from "
                f"{self.brick_words}x{self.bits}b bricks")


@dataclass
class SweepResult:
    points: List[SweepPoint]
    wall_clock_s: float
    failures: List[FailedPoint] = field(default_factory=list)

    def filter(self, total_words: Optional[int] = None,
               bits: Optional[int] = None,
               brick_words: Optional[int] = None) -> List[SweepPoint]:
        selected = self.points
        if total_words is not None:
            selected = [p for p in selected
                        if p.total_words == total_words]
        if bits is not None:
            selected = [p for p in selected if p.bits == bits]
        if brick_words is not None:
            selected = [p for p in selected
                        if p.brick_words == brick_words]
        return selected

    def point(self, total_words: int, bits: int,
              brick_words: int) -> SweepPoint:
        matches = self.filter(total_words, bits, brick_words)
        if not matches:
            raise ExplorationError(
                f"no sweep point for {total_words}x{bits} from "
                f"{brick_words}-word bricks")
        return matches[0]


@dataclass(frozen=True)
class SweepPlan:
    """The pure planning half of a partition sweep.

    Built by ``_plan_grid`` without touching the cache or the
    executor: the lattice ``grid`` (``(bits, brick_words, total_words,
    stack)`` rows) and the characterization ``tasks`` in grid order.
    """

    grid: Tuple[Tuple[int, int, int, int], ...]
    tasks: Tuple[Tuple[BrickSpec, int], ...]
    memory_type: str

    @property
    def n_points(self) -> int:
        return len(self.grid)


def _plan_grid(total_words_options: Sequence[int] = (128,),
               bits_options: Sequence[int] = (8, 16, 32),
               brick_words_options: Sequence[int] = (16, 32, 64),
               memory_type: str = "8T") -> SweepPlan:
    """Lay out the sweep lattice (no computation)."""
    grid: List[Tuple[int, int, int, int]] = []
    for bits in bits_options:
        for brick_words in brick_words_options:
            for total_words in total_words_options:
                if total_words % brick_words != 0:
                    continue
                stack = total_words // brick_words
                grid.append((bits, brick_words, total_words, stack))
    if not grid:
        raise ExplorationError("sweep produced no points")
    tasks = tuple((BrickSpec(memory_type, brick_words, bits), stack)
                  for bits, brick_words, _, stack in grid)
    return SweepPlan(grid=tuple(grid), tasks=tasks,
                     memory_type=memory_type)


def _sweep_partitions_impl(
        session: Session,
        total_words_options: Sequence[int] = (128,),
        bits_options: Sequence[int] = (8, 16, 32),
        brick_words_options: Sequence[int] = (16, 32, 64),
        memory_type: str = "8T",
        keep_going: bool = False) -> SweepResult:
    """The Fig. 4c sweep: single-partition memories of each size built
    from each brick flavour.

    The default arguments are exactly the paper's: 128x{8,16,32} bit
    SRAMs built from 16/32/64-word bricks (9 brick compilations).
    The composition of ``_plan_grid`` (pure lattice) and
    ``_execute_grid`` (blocking characterization).

    Characterization routes through :mod:`repro.perf` under
    ``session``: repeated points hit the content-addressed cache, cold
    points fan out over the session's ``jobs`` processes, and the
    returned point list is ordered identically regardless of ``jobs``.

    With ``keep_going=True`` a design point whose characterization
    fails is skipped and recorded (one :class:`FailedPoint` in
    ``SweepResult.failures`` plus a :class:`~repro.session.FaultEvent`
    on the session sink) instead of aborting the whole sweep; every
    healthy point still comes back, in grid order.  A sweep in which
    *every* point failed raises :class:`ExplorationError`.
    """
    plan = _plan_grid(total_words_options=total_words_options,
                      bits_options=bits_options,
                      brick_words_options=brick_words_options,
                      memory_type=memory_type)
    return _execute_grid(plan, session, keep_going=keep_going)


def _execute_grid(plan: SweepPlan, session: Session,
                  keep_going: bool = False) -> SweepResult:
    """Run the blocking half of a :class:`SweepPlan` under ``session``.

    This is the function the server ships off the asyncio loop via
    ``run_in_executor``; everything it touches (cache, worker pool,
    tracer, metrics) comes from the session, so concurrent executions
    under one shared session are safe.
    """
    watch = Stopwatch()
    grid = plan.grid
    memory_type = plan.memory_type
    with maybe_span(session.tracer, "sweep_partitions", kind="sweep",
                    n_points=len(grid),
                    memory_type=memory_type) as sweep_span:
        estimates = estimate_points(list(plan.tasks), session,
                                    keep_going=keep_going)
        points: List[SweepPoint] = []
        failures: List[FailedPoint] = []
        for grid_index, ((bits, brick_words, total_words, stack),
                         est) in enumerate(zip(grid, estimates)):
            spec_label = (f"{total_words}x{bits}b/"
                          f"{brick_words}w")
            if isinstance(est, TaskFailure):
                failed = FailedPoint(
                    total_words=total_words, bits=bits,
                    brick_words=brick_words, stack=stack,
                    error=f"{est.kind}: {est.error}",
                    index=grid_index)
                failures.append(failed)
                if session.tracer is not None:
                    pspan = session.tracer.open(
                        spec_label, kind="sweep_point", bits=bits,
                        brick_words=brick_words, stack=stack)
                    session.tracer.close(pspan, ok=False,
                                         error=failed.error)
                session.emit(FaultEvent(
                    domain="sweep", name=failed.label,
                    index=len(points) + len(failures) - 1,
                    error=failed.error, recovered=True))
                continue
            with maybe_span(session.tracer, spec_label,
                            kind="sweep_point", bits=bits,
                            brick_words=brick_words, stack=stack,
                            read_delay=est.read_delay,
                            area_um2=est.area_um2):
                pass
            points.append(SweepPoint(
                total_words=total_words,
                bits=bits,
                brick_words=brick_words,
                stack=stack,
                read_delay=est.read_delay,
                read_energy=est.read_energy,
                write_energy=est.write_energy,
                area_um2=est.area_um2,
                leakage_w=est.leakage_w,
            ))
        if sweep_span is not None:
            sweep_span.attrs.update(evaluated=len(points),
                                    skipped=len(failures))
    if session.metrics is not None:
        session.metrics.counter(
            "explore.sweep.points_evaluated").inc(len(points))
        session.metrics.counter(
            "explore.sweep.points_skipped").inc(len(failures))
    # Deterministic regardless of executor completion order: failures
    # always come back sorted by their grid position.
    failures.sort(key=lambda f: f.index)
    if not points:
        raise ExplorationError(
            f"every sweep point failed "
            f"({len(failures)} failures; first: "
            f"{failures[0].error})")
    return SweepResult(points, watch.elapsed(), failures=failures)


@dataclass(frozen=True)
class BrickChoice:
    """Result of automatic brick selection for one memory requirement."""

    point: SweepPoint
    objective_value: float


def _optimize_brick_selection_impl(
        session: Session,
        total_words: int = 128, bits: int = 8,
        brick_words_options: Sequence[int] = (8, 16, 32, 64, 128),
        delay_weight: float = 1.0,
        energy_weight: float = 1.0,
        area_weight: float = 0.5,
        memory_type: str = "8T") -> BrickChoice:
    """Pick the brick size minimizing a weighted delay/energy/area cost.

    Implements the paper's Section 6 future work: "the synthesis tools
    could optimize the array size ... of the memory bricks in a standard
    cell like manner."  The cost is a weighted product of metrics
    normalized to the best candidate per axis, so weights express
    relative priorities without unit juggling.
    """
    viable = tuple(bw for bw in brick_words_options
                   if total_words % bw == 0 and bw <= total_words)
    if not viable:
        raise ExplorationError(
            f"no brick size in {list(brick_words_options)} divides "
            f"{total_words}")
    result = _sweep_partitions_impl(
        session, total_words_options=(total_words,),
        bits_options=(bits,), brick_words_options=viable,
        memory_type=memory_type)
    candidates: List[SweepPoint] = result.points
    best_delay = min(p.read_delay for p in candidates)
    best_energy = min(p.read_energy for p in candidates)
    best_area = min(p.area_um2 for p in candidates)

    def cost(p: SweepPoint) -> float:
        return ((p.read_delay / best_delay) ** delay_weight
                * (p.read_energy / best_energy) ** energy_weight
                * (p.area_um2 / best_area) ** area_weight)

    winner = min(candidates, key=cost)
    return BrickChoice(point=winner, objective_value=cost(winner))

