"""Design-space exploration: sweeps and pareto fronts.

The supported sweep entry point is :class:`SweepEngine` — one facade
for everything from the 9-point Fig. 4c study to a million-point
sharded, checkpointed lattice sweep (``plan() -> run() ->
frontier()``).  Every sweep yields
:class:`ScalePoint` records: a cached (small) sweep prices its
:class:`Lattice` point by point and keeps them all, a sharded one keeps
the frontier and top-K.  The Fig. 4c partition sweep and brick
selection are also reachable as :class:`~repro.session.Session`
methods.
"""

from .engine import (
    AUTO_SHARD_THRESHOLD,
    ScalePlan,
    ScaleResult,
    SweepEngine,
)
from .lattice import Lattice, LatticePoint, SweepSpace
from .pareto import (
    ParetoAccumulator,
    TopKAccumulator,
    dominates,
    knee_point,
    pareto_front,
    pareto_mask,
)
from .scale import (
    DEFAULT_OBJECTIVES,
    OBJECTIVE_COLUMNS,
    ScaleFailure,
    ScalePoint,
    ShardResult,
    price_combos,
    price_shard,
    refine_candidates,
    shard_bounds,
)
from .sweep import BrickChoice, SweepResult

__all__ = [
    "AUTO_SHARD_THRESHOLD", "ScalePlan", "ScaleResult", "SweepEngine",
    "Lattice", "LatticePoint", "SweepSpace",
    "ParetoAccumulator", "TopKAccumulator", "dominates", "knee_point",
    "pareto_front", "pareto_mask",
    "DEFAULT_OBJECTIVES", "OBJECTIVE_COLUMNS", "ScaleFailure",
    "ScalePoint", "ShardResult", "price_combos", "price_shard",
    "refine_candidates", "shard_bounds",
    "BrickChoice", "SweepResult",
]
