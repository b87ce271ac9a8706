"""Statistical signoff: Monte Carlo PVT variation x defect yield.

The production answer to "will this brick meet timing/energy/yield
across real silicon?" — an N-thousand-sample Monte Carlo over
process/voltage/temperature perturbations crossed with manufacturing
defects and the corner grid, reduced to P50/P95/P99.9 distributions
with bootstrap confidence intervals.  Chunked, checkpointed,
resumable, early-stopping; see :mod:`repro.signoff.engine`.
"""

from .engine import (
    DEFAULT_CHUNK,
    DEFAULT_CORNERS,
    DEFAULT_SAMPLES,
    ChunkFailure,
    ChunkResult,
    SignoffEngine,
    SignoffPlan,
    SignoffReport,
    chunk_bounds,
)
from .rng import normals, resample_indices, stream_key, uniforms
from .sampling import pvt_columns
from .stats import (
    bootstrap_mean_ci,
    ci_half_width,
    proportion_summary,
    summarize,
)

__all__ = [
    "DEFAULT_CHUNK", "DEFAULT_CORNERS", "DEFAULT_SAMPLES",
    "ChunkFailure", "ChunkResult", "SignoffEngine", "SignoffPlan",
    "SignoffReport", "chunk_bounds",
    "normals", "resample_indices", "stream_key", "uniforms",
    "pvt_columns", "bootstrap_mean_ci", "ci_half_width",
    "proportion_summary", "summarize",
]
