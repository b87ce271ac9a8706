"""LiM physical synthesis flow: floorplan, place, route, STA, power."""

from .clock import ClockTree, build_clock_tree
from .floorplan import Floorplan, Placement, build_floorplan
from .flow import (
    FLOW_PIPELINE,
    FLOW_STAGE_NAMES,
    FlowResult,
    FlowState,
    PartialFlowResult,
    prepare_libraries,
    run_flow,
)
from .mapper import resize_for_load
from .pipeline import FlowStage, Pipeline
from .place import PlacedDesign, place
from .power import PowerReport, analyze_power, fold_clock_tree_energy
from .report import flow_report, power_report, timing_report
from .route import NetParasitics, Parasitics, route
from .timing import PathPoint, TimingAnalyzer, TimingReport, analyze_timing

__all__ = [
    "ClockTree", "build_clock_tree",
    "Floorplan", "Placement", "build_floorplan",
    "FLOW_PIPELINE", "FLOW_STAGE_NAMES", "FlowResult", "FlowState",
    "PartialFlowResult", "prepare_libraries", "run_flow",
    "resize_for_load",
    "FlowStage", "Pipeline",
    "PlacedDesign", "place",
    "PowerReport", "analyze_power", "fold_clock_tree_energy",
    "flow_report", "power_report", "timing_report",
    "NetParasitics", "Parasitics", "route",
    "PathPoint", "TimingAnalyzer", "TimingReport", "analyze_timing",
]
