"""Performance subsystem: content-addressed caching and parallel execution.

The paper's headline usability claim is that brick libraries are generated
"within 2 seconds of wall clock", enabling the rapid design-space
exploration of Fig. 4c.  This package makes repeated characterization
*free* instead of merely fast:

``repro.perf.fingerprint``
    Stable, process-independent content fingerprints for
    :class:`~repro.bricks.spec.BrickSpec`,
    :class:`~repro.tech.technology.Technology` and arbitrary parameter
    dataclasses, combined into versioned cache keys.
``repro.perf.cache``
    :class:`CharacterizationCache` — an in-memory LRU tier over an
    optional on-disk tier (safe to delete, versioned key schema) with
    hit/miss/byte statistics.  Each :class:`~repro.session.Session`
    owns (or shares) one instance; there is no process-wide cache.
``repro.perf.parallel``
    :func:`parallel_map` — deterministic-order fan-out of independent
    characterization points over ``concurrent.futures``
    ``ProcessPoolExecutor`` with a serial fallback for ``jobs=1`` (and
    for sandboxes that forbid multiprocessing primitives), governed by
    an :class:`ExecutorPolicy` (per-task timeout); a timed-out, failed
    or crashed task is re-executed serially in the parent, and only
    those tasks.  :func:`parallel_imap` streams the same loop, and
    ``resumable_imap`` checkpoints it for kill-resumable runs.
``repro.perf.characterize``
    Cached + parallel entry points for the expensive brick artifacts:
    closed-form estimates, library cell models and the standard-cell
    library.  The batch entry points take a Session and
    price estimates through the vectorized batch kernel only.
``repro.perf.timer``
    ``perf_counter``-based wall-clock measurement helpers so no timing
    claim is ever skewed by wall-clock adjustments.
"""

from .cache import CacheStats, CharacterizationCache
from .characterize import (
    cached_estimate,
    cached_stdcell_library,
    characterize_cells,
    estimate_points,
    plan_estimates,
)
from .fingerprint import KEY_SCHEMA_VERSION, cache_key, fingerprint
from .parallel import (
    ExecutorPolicy,
    ExecutorStats,
    TaskFailure,
    WorkerPool,
    chunk_slices,
    executor_stats,
    live_worker_pools,
    parallel_imap,
    parallel_map,
    reset_executor_stats,
    resolve_jobs,
    set_default_executor_policy,
)
from .timer import Stopwatch

__all__ = [
    "CacheStats", "CharacterizationCache",
    "cached_estimate", "cached_stdcell_library",
    "characterize_cells", "estimate_points", "plan_estimates",
    "KEY_SCHEMA_VERSION", "cache_key", "fingerprint",
    "ExecutorPolicy", "ExecutorStats", "TaskFailure", "WorkerPool",
    "chunk_slices", "executor_stats",
    "live_worker_pools", "parallel_imap", "parallel_map",
    "reset_executor_stats", "resolve_jobs",
    "set_default_executor_policy",
    "Stopwatch",
]
