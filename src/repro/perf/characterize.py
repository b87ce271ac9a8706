"""Cached, parallel entry points for brick characterization.

This is the routing layer the rest of the system goes through instead of
calling ``compile_brick`` / ``estimate_brick`` / ``brick_cell_model``
directly on hot paths.  Every function is a pure memoization of its
underlying computation: the key is the content fingerprint of the full
input set (spec, technology, stack, extra parameters), so a corner-
derated or per-die perturbed technology can never alias the nominal one.

Batch APIs (:func:`characterize_cells`, :func:`estimate_points`) first
deduplicate repeated points — the Fig. 4b configs A–E all share the
16x10 bit brick, the Fig. 4c sweep repeats specs across stacks — then
fan only the *unique misses* out over :func:`repro.perf.parallel
.parallel_map`, and finally reassemble results in request order.  Worker
results are inserted into the caller's cache, so a parallel cold run
warms the cache exactly like a serial one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bricks.compiler import CompiledBrick, compile_brick
from ..bricks.estimator import BrickPerformance, estimate_brick
from ..bricks.spec import BrickSpec
from ..liberty.models import CellModel, LibraryModel
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer, maybe_span
from ..tech.technology import Technology
from .cache import CharacterizationCache, resolve_cache
from .fingerprint import cache_key
from .parallel import TaskFailure, TraceTap, WorkerPool, \
    chunk_slices, parallel_map, resolve_jobs

# --- single-artifact memoizations ----------------------------------------


def cached_compile(spec: BrickSpec, tech: Technology, stack: int = 1,
                   cache: Optional[CharacterizationCache] = None
                   ) -> CompiledBrick:
    """Memoized :func:`~repro.bricks.compiler.compile_brick`."""
    cache = resolve_cache(cache)
    key = cache_key("compiled", spec, tech, stack)
    return cache.get_or_compute(
        key, lambda: compile_brick(spec, tech, target_stack=stack))


def cached_estimate(spec: BrickSpec, tech: Technology, stack: int = 1,
                    out_load: Optional[float] = None,
                    cache: Optional[CharacterizationCache] = None
                    ) -> BrickPerformance:
    """Memoized compile + closed-form estimate for one brick point."""
    cache = resolve_cache(cache)
    key = cache_key("estimate", spec, tech, stack, out_load)

    def compute() -> BrickPerformance:
        compiled = cached_compile(spec, tech, stack, cache=cache)
        return estimate_brick(compiled, tech, stack=stack,
                              out_load=out_load)

    return cache.get_or_compute(key, compute)


def cached_cell_model(spec: BrickSpec, tech: Technology, stack: int = 1,
                      cache: Optional[CharacterizationCache] = None
                      ) -> CellModel:
    """Memoized compile + library characterization for one brick bank."""
    cache = resolve_cache(cache)
    key = cache_key("cellmodel", spec, tech, stack)

    def compute() -> CellModel:
        from ..bricks.library import brick_cell_model
        compiled = cached_compile(spec, tech, stack, cache=cache)
        return brick_cell_model(compiled, tech, stack=stack)

    return cache.get_or_compute(key, compute)


def cached_measure_read(spec: BrickSpec, tech: Technology,
                        stack: int = 1, dt: Optional[float] = None,
                        cache: Optional[CharacterizationCache] = None
                        ) -> Tuple[float, float]:
    """Memoized RC-extraction reference read (the Table 1 slow half).

    The transient solve takes seconds per brick; cross-validation and
    Table 1 regeneration re-measure identical bricks constantly, so this
    is where the disk tier pays for itself most.
    """
    cache = resolve_cache(cache)
    key = cache_key("measure_read", spec, tech, stack, dt)

    def compute() -> Tuple[float, float]:
        from ..bricks.extract import measure_read
        compiled = cached_compile(spec, tech, stack, cache=cache)
        kwargs: Dict[str, Any] = {} if dt is None else {"dt": dt}
        return measure_read(compiled, tech, stack=stack, **kwargs)

    return cache.get_or_compute(key, compute)


def cached_stdcell_library(tech: Technology,
                           cache: Optional[CharacterizationCache] = None
                           ) -> LibraryModel:
    """Memoized standard-cell library characterization.

    Returns a fresh :class:`LibraryModel` wrapper each time (cells are
    shared, the container is not) so a caller mutating its copy — e.g.
    ``add``-ing bricks — cannot pollute the cached artifact.
    """
    cache = resolve_cache(cache)
    key = cache_key("stdlib", tech)

    def compute() -> LibraryModel:
        from ..cells.stdcells import make_stdcell_library
        return make_stdcell_library(tech)

    library = cache.get_or_compute(key, compute)
    clone = LibraryModel(name=library.name, tech_name=library.tech_name)
    clone.cells = dict(library.cells)
    return clone


# --- batch fan-out --------------------------------------------------------

# Worker functions must be top-level (picklable) for the process pool.


def _cell_model_worker(task: Tuple[BrickSpec, int, Technology]
                       ) -> CellModel:
    spec, stack, tech = task
    from ..bricks.library import brick_cell_model
    compiled = compile_brick(spec, tech, target_stack=stack)
    return brick_cell_model(compiled, tech, stack=stack)


def _estimate_worker(task: Tuple[BrickSpec, int, Technology]
                     ) -> BrickPerformance:
    spec, stack, tech = task
    compiled = compile_brick(spec, tech, target_stack=stack)
    return estimate_brick(compiled, tech, stack=stack)


@dataclass(frozen=True)
class _PointFailure:
    """Picklable per-point failure marker a batch worker returns under
    ``keep_going`` (expanded to :class:`TaskFailure` by the parent)."""

    error: str
    kind: str


def _batch_kernel(points: Sequence[Tuple[BrickSpec, int]],
                  tech: Technology) -> List[BrickPerformance]:
    """The vectorized estimation kernel (a separate seam so tests can
    disable it and exercise the scalar fallback)."""
    from ..bricks.batch import estimate_brick_batch
    return estimate_brick_batch(points, tech)


def _estimate_batch_worker(
        task: Tuple[Sequence[Tuple[BrickSpec, int]], Technology, bool]
) -> List[Any]:
    """Price one chunk of points: vector kernel first, scalar fallback.

    Any vector-kernel failure (a degenerate point poisoning the whole
    array call, or an environment without a working numpy) falls back to
    the per-point scalar path, which isolates bad points: under
    ``keep_going`` each failing point becomes a :class:`_PointFailure`
    in its slot; otherwise the first scalar error propagates.
    """
    points, tech, keep_going = task
    try:
        results = _batch_kernel(points, tech)
        if len(results) != len(points):
            raise RuntimeError(
                f"batch kernel returned {len(results)} results for "
                f"{len(points)} points")
        return results
    except Exception:
        results = []
        for spec, stack in points:
            try:
                results.append(_estimate_worker((spec, stack, tech)))
            except Exception as exc:
                if not keep_going:
                    raise
                results.append(_PointFailure(error=str(exc),
                                             kind=type(exc).__name__))
        return results


def _executor_fault_sink(sink):
    """An ``on_fault`` callback routing absorbed executor recoveries
    (timeouts, retried pool failures, broken pools) to a session event
    sink as FaultEvents; ``None`` when there is no sink to feed."""
    if sink is None:
        return None
    # Deferred import: repro.session imports repro.perf at module load.
    from ..session import FaultEvent

    def on_fault(kind: str, index: int, error: str) -> None:
        sink(FaultEvent(domain="executor", name=f"task{index}",
                        error=f"{kind}: {error}", index=index,
                        recovered=True))

    return on_fault


def _batched(points: Sequence[Tuple[BrickSpec, int]], tech: Technology,
             kind: str, worker, jobs: int,
             cache: Optional[CharacterizationCache],
             keep_going: bool = False,
             tracer: Optional[Tracer] = None,
             sink=None,
             pool: Optional[WorkerPool] = None) -> List[Any]:
    """Shared dedup → cache-probe → fan-out → reassemble skeleton.

    With ``keep_going=True`` a point whose characterization fails (even
    on the executor's serial re-execution) yields a
    :class:`~repro.perf.parallel.TaskFailure` at its position instead of
    raising; failures are never written to the cache, so a later retry
    recomputes them.

    ``tracer`` opens spans around the batch, its cache probe and its
    parallel task group; ``sink`` receives a FaultEvent per absorbed
    executor recovery.  Both default to off.
    """
    cache = resolve_cache(cache)
    with maybe_span(tracer, f"characterize:{kind}", kind="batch",
                    n_requests=len(points)) as batch:
        memo: Dict[int, str] = {}
        keys = [cache_key(kind, spec, tech, stack, memo=memo)
                for spec, stack in points]
        results: Dict[str, Any] = {}
        pending: List[Tuple[str, Tuple[BrickSpec, int, Technology]]] = []
        pending_keys = set()
        with maybe_span(tracer, "cache_probe", kind="cache") as probe:
            for (spec, stack), key in zip(points, keys):
                if key in results or key in pending_keys:
                    continue
                found, value = cache.get(key)
                if found:
                    results[key] = value
                else:
                    pending.append((key, (spec, stack, tech)))
                    pending_keys.add(key)
            if probe is not None:
                probe.attrs.update(
                    unique=len(results) + len(pending),
                    hits=len(results), misses=len(pending))
        if batch is not None:
            batch.attrs.update(n_unique=len(results) + len(pending),
                               n_cold=len(pending))
        if pending:
            with maybe_span(tracer, "parallel_map", kind="task_group",
                            tasks=len(pending), jobs=jobs) as group:
                computed = parallel_map(
                    worker, [task for _, task in pending], jobs=jobs,
                    return_errors=keep_going,
                    on_fault=_executor_fault_sink(sink), pool=pool,
                    trace=(TraceTap.for_span(tracer, group)
                           if group is not None else None))
            for (key, _), value in zip(pending, computed):
                if not isinstance(value, TaskFailure):
                    cache.put(key, value)
                results[key] = value
        return [results[key] for key in keys]


def characterize_cells(requests: Sequence[Tuple[BrickSpec, int]],
                       tech: Technology, jobs: int = 1,
                       cache: Optional[CharacterizationCache] = None,
                       keep_going: bool = False,
                       tracer: Optional[Tracer] = None,
                       sink=None,
                       pool: Optional[WorkerPool] = None
                       ) -> List[CellModel]:
    """Library cell models for ``(spec, stack)`` requests, in order.

    Repeated requests are characterized exactly once; unique cold points
    are fanned out over ``jobs`` processes (reusing ``pool`` when a
    persistent :class:`~repro.perf.parallel.WorkerPool` is supplied).
    """
    return _batched(requests, tech, "cellmodel", _cell_model_worker,
                    jobs, cache, keep_going=keep_going,
                    tracer=tracer, sink=sink, pool=pool)


# --- plan/execute split ---------------------------------------------------
#
# ``estimate_points`` used to be one monolithic function: fingerprint,
# probe the cache, fan out, reassemble.  The service layer needs those
# halves separately — the *plan* is pure (no executor, no disk writes,
# cheap enough to run on an asyncio loop) and carries the fingerprint
# the request coalescer keys on, while the *execute* half is the
# blocking compute shipped off the loop via ``run_in_executor``.


@dataclass(frozen=True)
class EstimatePlan:
    """The pure planning half of a batch estimate.

    ``keys`` are the per-point cache keys in request order, ``cached``
    the warm hits already recovered during planning, ``pending`` the
    unique cold ``(key, (spec, stack))`` pairs still to compute, and
    ``fingerprint`` a digest of the full request population — the
    identity a coalescing server shares one computation under.
    """

    keys: Tuple[str, ...]
    cached: Dict[str, Any]
    pending: Tuple[Tuple[str, Tuple[BrickSpec, int]], ...]
    fingerprint: str

    @property
    def n_unique(self) -> int:
        return len(self.cached) + len(self.pending)


def plan_estimates(points: Sequence[Tuple[BrickSpec, int]],
                   tech: Technology,
                   cache: Optional[CharacterizationCache] = None,
                   tracer: Optional[Tracer] = None) -> EstimatePlan:
    """Fingerprint + cache-probe ``points`` without computing anything.

    Pure apart from cache reads: safe to call on an event loop, and
    calling it twice is idempotent (the second plan simply sees more
    hits if an execute landed in between).
    """
    cache = resolve_cache(cache)
    memo: Dict[int, str] = {}
    keys = tuple(cache_key("estimate", spec, tech, stack, memo=memo)
                 for spec, stack in points)
    cached: Dict[str, Any] = {}
    pending: List[Tuple[str, Tuple[BrickSpec, int]]] = []
    pending_keys = set()
    with maybe_span(tracer, "cache_probe", kind="cache") as probe:
        for (spec, stack), key in zip(points, keys):
            if key in cached or key in pending_keys:
                continue
            found, value = cache.get(key)
            if found:
                cached[key] = value
            else:
                pending.append((key, (spec, stack)))
                pending_keys.add(key)
        if probe is not None:
            probe.attrs.update(unique=len(cached) + len(pending),
                               hits=len(cached), misses=len(pending))
    return EstimatePlan(keys=keys, cached=cached,
                        pending=tuple(pending),
                        fingerprint=cache_key("estimate_batch",
                                              list(keys)))


def execute_estimates(plan: EstimatePlan, tech: Technology,
                      jobs: int = 1,
                      cache: Optional[CharacterizationCache] = None,
                      keep_going: bool = False,
                      tracer: Optional[Tracer] = None,
                      sink=None,
                      metrics: Optional[MetricsRegistry] = None,
                      pool: Optional[WorkerPool] = None
                      ) -> List[BrickPerformance]:
    """Run the blocking half of an :class:`EstimatePlan`.

    Batch-first: the unique cold points are split into at most ``jobs``
    contiguous chunks and each chunk is priced as *one* executor task
    through the vectorized kernel (:mod:`repro.bricks.batch`) — so
    ``executor.tasks`` counts batches, and the serial recovery tier
    replays a whole batch.  The scalar per-point path remains as the
    in-worker fallback.  Results land in ``cache``, and the return list
    is in the plan's request order.
    """
    cache = resolve_cache(cache)
    results: Dict[str, Any] = dict(plan.cached)
    pending = list(plan.pending)
    if pending:
        n_chunks = resolve_jobs(jobs, n_tasks=len(pending))
        chunks = chunk_slices(len(pending), n_chunks)
        # The batch fingerprint names the exact cold population (its
        # per-point keys, in order) for traces and run reports.
        batch_fp = cache_key("estimate_batch",
                             [key for key, _ in pending])
        with maybe_span(tracer, "parallel_map", kind="task_group",
                        tasks=len(chunks), jobs=n_chunks,
                        points=len(pending),
                        batch_fingerprint=batch_fp) as group:
            started = time.perf_counter()
            chunk_results = parallel_map(
                _estimate_batch_worker,
                [(tuple(pending[i][1] for i in chunk), tech,
                  keep_going) for chunk in chunks],
                jobs=n_chunks, return_errors=keep_going,
                on_fault=_executor_fault_sink(sink), pool=pool,
                trace=(TraceTap.for_span(tracer, group)
                       if group is not None else None))
            elapsed = time.perf_counter() - started
        flat: List[Any] = []
        for chunk, value in zip(chunks, chunk_results):
            if isinstance(value, TaskFailure):
                flat.extend(value for _ in chunk)
            else:
                flat.extend(value)
        for i, ((key, _), value) in enumerate(zip(pending, flat)):
            if isinstance(value, (_PointFailure, TaskFailure)):
                # Re-index chunk/worker failures to the point's
                # position among the cold points.
                value = TaskFailure(index=i, error=value.error,
                                    kind=value.kind)
            else:
                cache.put(key, value)
            results[key] = value
        if metrics is not None:
            metrics.counter("estimator.batch.points").inc(
                len(pending))
            metrics.gauge("estimator.batch.ns_per_point").set(
                elapsed * 1e9 / len(pending))
    return [results[key] for key in plan.keys]


def estimate_points(points: Sequence[Tuple[BrickSpec, int]],
                    tech: Technology, jobs: int = 1,
                    cache: Optional[CharacterizationCache] = None,
                    keep_going: bool = False,
                    tracer: Optional[Tracer] = None,
                    sink=None,
                    metrics: Optional[MetricsRegistry] = None,
                    pool: Optional[WorkerPool] = None
                    ) -> List[BrickPerformance]:
    """Closed-form estimates for ``(spec, stack)`` points, in order.

    The composition of :func:`plan_estimates` (fingerprint + cache
    probe; warm hits short-circuit with identical keys to the scalar
    path) and :func:`execute_estimates` (chunked vector-kernel
    fan-out).  Under ``keep_going=True`` failed points come back as
    :class:`~repro.perf.parallel.TaskFailure` placeholders so the
    caller can skip-and-record them.  ``metrics`` (when given) records
    ``estimator.batch.points`` and ``estimator.batch.ns_per_point``.
    """
    with maybe_span(tracer, "characterize:estimate", kind="batch",
                    n_requests=len(points)) as batch_span:
        plan = plan_estimates(points, tech, cache=cache, tracer=tracer)
        if batch_span is not None:
            batch_span.attrs.update(n_unique=plan.n_unique,
                                    n_cold=len(plan.pending))
        return execute_estimates(plan, tech, jobs=jobs, cache=cache,
                                 keep_going=keep_going, tracer=tracer,
                                 sink=sink, metrics=metrics, pool=pool)
