"""Design-space exploration sweeps, priced point by point.

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
path its ``cached`` mode runs on: :func:`price_lattice` prices a
single-type :class:`~repro.explore.lattice.Lattice` point by point
through :func:`~repro.perf.characterize.estimate_points` into
:class:`~repro.explore.scale.ScalePoint` records, and the
:class:`~repro.session.Session` methods call it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..bricks.spec import BrickSpec
from ..errors import ExplorationError
from ..obs.trace import maybe_span
from ..perf.characterize import estimate_points
from ..perf.parallel import TaskFailure
from ..perf.timer import Stopwatch
from ..session import FaultEvent, Session
from .lattice import Lattice, SweepSpace
from .scale import ScaleFailure, ScalePoint


@dataclass
class SweepResult:
    """A sweep's priced points and the points it skipped, both in
    lattice order."""

    points: List[ScalePoint]
    wall_clock_s: float
    failures: List[ScaleFailure] = field(default_factory=list)

    def filter(self, total_words: Optional[int] = None,
               bits: Optional[int] = None,
               brick_words: Optional[int] = None) -> List[ScalePoint]:
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
              brick_words: int) -> ScalePoint:
        matches = self.filter(total_words, bits, brick_words)
        if not matches:
            raise ExplorationError(
                f"no sweep point for {total_words}x{bits} from "
                f"{brick_words}-word bricks")
        return matches[0]


def price_lattice(lattice: Lattice, session: Session,
                  keep_going: bool = False) -> SweepResult:
    """Price every point of a single-type ``lattice`` under ``session``.

    Each point is one ``(spec, stack)`` task of
    :func:`~repro.perf.characterize.estimate_points`: repeated points
    hit the content-addressed cache, cold points fan out over the
    session's ``jobs`` processes, and the result is in lattice order
    regardless of ``jobs``.  Every point gets a ``sweep_point`` span
    under one ``sweep_partitions`` span.

    With ``keep_going=True`` a point whose characterization fails is
    skipped and recorded (one :class:`~repro.explore.scale.ScaleFailure`
    in ``SweepResult.failures`` plus a
    :class:`~repro.session.FaultEvent` on the session sink) instead of
    aborting the whole sweep.  A sweep in which *every* point failed
    raises :class:`ExplorationError`, and so does an empty lattice.
    """
    grid = lattice.points(0, len(lattice))
    if not grid:
        raise ExplorationError("sweep produced no points")
    tasks = [(BrickSpec(p.memory_type, p.brick_words, p.bits), p.stack)
             for p in grid]
    watch = Stopwatch()
    points: List[ScalePoint] = []
    failures: List[ScaleFailure] = []
    with maybe_span(session.tracer, "sweep_partitions", kind="sweep",
                    n_points=len(grid),
                    memory_type=lattice.space.memory_types[0]
                    ) as sweep_span:
        estimates = estimate_points(tasks, session,
                                    keep_going=keep_going)
        for p, est in zip(grid, estimates):
            spec_label = f"{p.total_words}x{p.bits}b/{p.brick_words}w"
            if isinstance(est, TaskFailure):
                failed = ScaleFailure(
                    index=p.index, memory_type=p.memory_type,
                    total_words=p.total_words, bits=p.bits,
                    brick_words=p.brick_words, stack=p.stack,
                    error=f"{est.kind}: {est.error}")
                failures.append(failed)
                if session.tracer is not None:
                    pspan = session.tracer.open(
                        spec_label, kind="sweep_point", bits=p.bits,
                        brick_words=p.brick_words, stack=p.stack)
                    session.tracer.close(pspan, ok=False,
                                         error=failed.error)
                session.emit(FaultEvent(
                    domain="sweep", name=failed.label, index=p.index,
                    error=failed.error, recovered=True))
                continue
            with maybe_span(session.tracer, spec_label,
                            kind="sweep_point", bits=p.bits,
                            brick_words=p.brick_words, stack=p.stack,
                            read_delay=est.read_delay,
                            area_um2=est.area_um2):
                pass
            points.append(ScalePoint(
                index=p.index, memory_type=p.memory_type,
                total_words=p.total_words, bits=p.bits,
                brick_words=p.brick_words, stack=p.stack,
                read_delay=est.read_delay,
                read_energy=est.read_energy,
                write_energy=est.write_energy,
                area_um2=est.area_um2,
                leakage_w=est.leakage_w))
        if sweep_span is not None:
            sweep_span.attrs.update(evaluated=len(points),
                                    skipped=len(failures))
    if session.metrics is not None:
        session.metrics.counter(
            "explore.sweep.points_evaluated").inc(len(points))
        session.metrics.counter(
            "explore.sweep.points_skipped").inc(len(failures))
    if not points:
        raise ExplorationError(
            f"every sweep point failed "
            f"({len(failures)} failures; first: "
            f"{failures[0].error})")
    return SweepResult(points, watch.elapsed(), failures=failures)


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
    SRAMs built from 16/32/64-word bricks (9 brick compilations).  The
    options are checked by :class:`~repro.explore.lattice.SweepSpace`,
    as for every engine sweep, and priced by :func:`price_lattice`.
    """
    space = SweepSpace.from_options(
        total_words_options=total_words_options,
        bits_options=bits_options,
        brick_words_options=brick_words_options,
        memory_type=memory_type)
    return price_lattice(Lattice(space), session, keep_going=keep_going)


@dataclass(frozen=True)
class BrickChoice:
    """Result of automatic brick selection for one memory requirement."""

    point: ScalePoint
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
    candidates: List[ScalePoint] = result.points
    best_delay = min(p.read_delay for p in candidates)
    best_energy = min(p.read_energy for p in candidates)
    best_area = min(p.area_um2 for p in candidates)

    def cost(p: ScalePoint) -> float:
        return ((p.read_delay / best_delay) ** delay_weight
                * (p.read_energy / best_energy) ** energy_weight
                * (p.area_um2 / best_area) ** area_weight)

    winner = min(candidates, key=cost)
    return BrickChoice(point=winner, objective_value=cost(winner))
