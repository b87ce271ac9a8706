"""The end-to-end LiM physical synthesis flow (Fig. 2).

``run_flow`` strings the whole methodology together the way the paper's
Fig. 2 draws it, as a staged :class:`~repro.synth.pipeline.Pipeline` of
named :class:`~repro.synth.pipeline.FlowStage` objects::

    elaborate   RTL (Module) + std-cell + brick libraries -> netlist
    floorplan   bricks as macros, std-cell core sizing
    place       simulated-annealing placement (seeded by the session)
    route       parasitics, the .spef role
    resize_eco  drive resizing against routed loads + ECO re-place
    sta         static timing (Fmax)
    clock_tree  estimated clock distribution over sequential sinks
    power       activity-based power, clock-network energy folded in

Each stage runs under a :class:`~repro.session.Session` (technology,
cache, executor, master seed, event sink) and emits one timed
:class:`~repro.session.StageEvent`, so every flow run is observable
per-stage.  The returned :class:`FlowResult` carries every intermediate
so benchmarks and the design-space explorer can report area/timing/
power consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..errors import SynthesisError
from ..liberty.models import LibraryModel
from ..rtl.module import FlatNetlist, Module, elaborate
from ..rtl.simulate import LogicSimulator
from ..session import FaultEvent, Session
from .clock import ClockTree, build_clock_tree
from .floorplan import Floorplan, build_floorplan
from .mapper import resize_for_load
from .pipeline import FlowStage, Pipeline
from .place import PlacedDesign, place
from .power import PowerReport, analyze_power, fold_clock_tree_energy
from .route import Parasitics, route
from .timing import TimingReport, analyze_timing

#: A stimulus drives the logic simulator to produce activity: it receives
#: a fresh :class:`LogicSimulator` and must clock it at least once.
Stimulus = Callable[[LogicSimulator], None]


def prepare_libraries(brick_requests, session: Session) -> LibraryModel:
    """Standard cells + brick macros for a flow run, via ``repro.perf``.

    ``brick_requests`` is a sequence of ``(BrickSpec, stack)`` pairs.
    Both the standard-cell characterization and every brick cell model
    route through the session's content-addressed cache, so running the
    flow on N designs sharing bricks (the Fig. 4b configs A–E all use
    the 16x10 brick) characterizes each unique point exactly once; cold
    points fan out over the session's ``jobs`` processes.
    """
    from ..bricks.library import generate_brick_library
    from ..perf.characterize import cached_stdcell_library
    std = cached_stdcell_library(session.tech, cache=session.cache)
    bricks, _ = generate_brick_library(brick_requests, session=session)
    return std.merged_with(bricks)


@dataclass
class FlowResult:
    """Everything the flow produced for one design."""

    netlist: FlatNetlist
    floorplan: Floorplan
    placement: PlacedDesign
    parasitics: Parasitics
    timing: TimingReport
    power: Optional[PowerReport]
    resized_cells: int
    clock_tree: Optional[ClockTree] = None

    @property
    def fmax(self) -> float:
        return self.timing.fmax

    @property
    def area_um2(self) -> float:
        """Die area (macros + std-cell core)."""
        return self.floorplan.die_area

    @property
    def cell_area_um2(self) -> float:
        return sum(c.model.area for c in self.netlist.cells)

    def summary(self) -> Dict[str, float]:
        result = {
            "fmax_hz": self.fmax,
            "min_period_s": self.timing.min_period,
            "die_area_um2": self.area_um2,
            "cell_area_um2": self.cell_area_um2,
            "wirelength_um": self.parasitics.total_wirelength_um,
        }
        if self.power is not None:
            result["power_w"] = self.power.total_w
            result["energy_per_cycle_j"] = self.power.energy_per_cycle
        return result


@dataclass
class PartialFlowResult:
    """What a ``continue_on_error`` flow run salvaged.

    Carries every artifact the completed stages produced (the rest stay
    ``None``), plus one :class:`~repro.session.FaultEvent` per failed
    stage.  :attr:`complete` is True when nothing failed.
    """

    state: "FlowState"
    faults: List[FaultEvent] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.faults

    @property
    def failed_stages(self) -> List[str]:
        return [fault.name for fault in self.faults]

    def summary(self) -> Dict[str, object]:
        """Whatever metrics the surviving artifacts support."""
        state = self.state
        result: Dict[str, object] = {
            "complete": self.complete,
            "failed_stages": tuple(self.failed_stages),
        }
        if state.timing is not None:
            result["fmax_hz"] = state.timing.fmax
            result["min_period_s"] = state.timing.min_period
        if state.floorplan is not None:
            result["die_area_um2"] = state.floorplan.die_area
        if state.parasitics is not None:
            result["wirelength_um"] = \
                state.parasitics.total_wirelength_um
        if state.power is not None:
            result["power_w"] = state.power.total_w
            result["energy_per_cycle_j"] = state.power.energy_per_cycle
        return result


@dataclass
class FlowState:
    """Mutable working state threaded through the flow pipeline.

    The configuration half (design, library, stimulus, knobs) is set at
    construction; the artifact half is populated stage by stage.  A
    failed run leaves the state partially filled for post-mortems.
    """

    top: Module
    library: LibraryModel
    stimulus: Optional[Stimulus] = None
    freq_hz: Optional[float] = None
    utilization: float = 0.65
    anneal_moves: Optional[int] = None
    resize: bool = True

    netlist: Optional[FlatNetlist] = None
    floorplan: Optional[Floorplan] = None
    placement: Optional[PlacedDesign] = None
    parasitics: Optional[Parasitics] = None
    resized_cells: int = 0
    timing: Optional[TimingReport] = None
    clock_tree: Optional[ClockTree] = None
    power: Optional[PowerReport] = None


# --- stage bodies ---------------------------------------------------------


def _stage_elaborate(session: Session, state: FlowState):
    state.netlist = elaborate(state.top, state.library)
    return {"cells": len(state.netlist.cells)}


def _stage_floorplan(session: Session, state: FlowState):
    state.floorplan = build_floorplan(state.netlist, session.tech,
                                      utilization=state.utilization)
    return {"die_area_um2": round(state.floorplan.die_area, 1)}


def _stage_place(session: Session, state: FlowState):
    state.placement = place(state.netlist, state.floorplan,
                            seed=session.seed,
                            anneal_moves=state.anneal_moves)
    return None


def _stage_route(session: Session, state: FlowState):
    state.parasitics = route(state.placement, session.tech)
    return {"wirelength_um":
            round(state.parasitics.total_wirelength_um, 1)}


def _stage_resize_eco(session: Session, state: FlowState):
    if not state.resize:
        return {"resized_cells": 0}
    state.resized_cells = resize_for_load(
        state.netlist, state.library, state.parasitics, session.tech)
    if state.resized_cells:
        # Upsized cells need room: redo floorplan, placement and
        # routing with the final cell sizes (the ECO pass).
        _stage_floorplan(session, state)
        _stage_place(session, state)
        _stage_route(session, state)
    return {"resized_cells": state.resized_cells}


def _stage_sta(session: Session, state: FlowState):
    state.timing = analyze_timing(state.netlist, state.parasitics,
                                  session.tech)
    return {"fmax_hz": state.timing.fmax}


def _stage_clock_tree(session: Session, state: FlowState):
    # Clock distribution: estimated tree over the sequential sinks.
    try:
        state.clock_tree = build_clock_tree(state.placement,
                                            session.tech)
    except SynthesisError:
        state.clock_tree = None  # purely combinational designs
    return {"sinks": state.clock_tree.n_sinks
            if state.clock_tree is not None else 0}


def _stage_power(session: Session, state: FlowState):
    if state.stimulus is None:
        return {"analyzed": False}
    simulator = LogicSimulator(state.netlist)
    state.stimulus(simulator)
    if simulator.activity.cycles == 0:
        raise SynthesisError(
            "stimulus did not clock the design; no activity")
    power = analyze_power(
        state.netlist, simulator.activity, state.parasitics,
        session.tech,
        freq_hz=state.freq_hz if state.freq_hz is not None
        else state.timing.fmax)
    if state.clock_tree is not None:
        # Fold the tree's wire+buffer energy into the report (the
        # flop/brick clock *pin* energy is already activity-based).
        power = fold_clock_tree_energy(power, state.clock_tree,
                                       session.tech)
    state.power = power
    return {"analyzed": True, "cycles": simulator.activity.cycles}


#: The Fig. 2 flow as an ordered stage pipeline.
FLOW_PIPELINE = Pipeline([
    FlowStage("elaborate", _stage_elaborate,
              "map RTL onto library cells and brick macros"),
    FlowStage("floorplan", _stage_floorplan,
              "place brick macros, size the std-cell core"),
    FlowStage("place", _stage_place,
              "simulated-annealing std-cell placement"),
    FlowStage("route", _stage_route,
              "global routing estimate and RC parasitics"),
    FlowStage("resize_eco", _stage_resize_eco,
              "post-route drive resizing plus ECO re-place"),
    FlowStage("sta", _stage_sta,
              "static timing analysis (Fmax)"),
    FlowStage("clock_tree", _stage_clock_tree,
              "estimated clock distribution tree"),
    FlowStage("power", _stage_power,
              "activity-based power with clock-network energy"),
], name="lim_synthesis")

#: Stage names in execution order (the Fig. 2 boxes).
FLOW_STAGE_NAMES = FLOW_PIPELINE.stage_names


def _result_from_state(state: FlowState) -> FlowResult:
    return FlowResult(
        netlist=state.netlist,
        floorplan=state.floorplan,
        placement=state.placement,
        parasitics=state.parasitics,
        timing=state.timing,
        power=state.power,
        resized_cells=state.resized_cells,
        clock_tree=state.clock_tree,
    )


def run_flow(top: Module, library: LibraryModel,
             session: Session,
             stimulus: Optional[Stimulus] = None,
             freq_hz: Optional[float] = None,
             utilization: float = 0.65,
             anneal_moves: Optional[int] = None,
             resize: bool = True,
             continue_on_error: bool = False
             ) -> Union[FlowResult, PartialFlowResult]:
    """Run the full LiM synthesis flow on ``top``.

    ``library`` must contain both the standard cells and every brick
    macro the design instantiates (merge them with
    :meth:`LibraryModel.merged_with`).  When ``stimulus`` is given, power
    is analyzed at ``freq_hz`` (default: the design's Fmax).

    ``session`` owns the technology, master seed and event sink.

    With ``continue_on_error=True`` a stage failure no longer raises:
    the run always returns a :class:`PartialFlowResult` whose fault list
    names every failed stage (each also emitted as a
    :class:`~repro.session.FaultEvent` on the session sink), with every
    artifact the healthy stages produced still attached.
    """
    state = FlowState(top=top, library=library, stimulus=stimulus,
                      freq_hz=freq_hz, utilization=utilization,
                      anneal_moves=anneal_moves, resize=resize)
    if continue_on_error:
        state, faults = FLOW_PIPELINE.run_partial(session, state)
        return PartialFlowResult(state=state, faults=faults)
    FLOW_PIPELINE.run(session, state)
    return _result_from_state(state)
