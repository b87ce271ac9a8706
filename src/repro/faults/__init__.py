"""Defect injection, yield analysis and repair for brick memories.

The paper's brick methodology lives or dies on manufacturability:
Section 5 argues small bricks with shared periphery keep the custom
blocks yield-friendly.  This package quantifies that claim.  A
:class:`DefectModel` draws manufacturing defects over a brick's
geometry as a :class:`~repro.faults.defects.DefectPopulation` over
counter-based streams keyed by the session master seed;
:func:`analyze_yield` turns a sampled population into per-brick and
per-bank yield before and after repair (spare rows/columns in the
brick stack, optional SEC-DED word extension from
:mod:`repro.rtl.ecc`), with the area/energy/delay cost of the repair
resources accounted through the same estimator models as everything
else in the flow.
"""

from .defects import (
    DEFECT_KINDS,
    Defect,
    DefectModel,
    FaultyBrick,
    inject,
)
from .repair import (
    PopulationRepair,
    RepairOutcome,
    RepairPlan,
    apply_repair,
    repair_population,
    repaired_spec,
)
from .yield_analysis import YieldReport, analyze_yield

__all__ = [
    "DEFECT_KINDS", "Defect", "DefectModel", "FaultyBrick", "inject",
    "PopulationRepair", "RepairOutcome", "RepairPlan", "apply_repair",
    "repair_population", "repaired_spec",
    "YieldReport", "analyze_yield",
]
