"""Cached, parallel entry points for brick characterization.

This is the routing layer the rest of the system goes through instead of
calling the batch kernel or ``brick_cell_model`` directly on hot paths.
Every function is a pure memoization of its underlying computation:
the key is the content fingerprint of the full input set (spec,
technology, stack, extra parameters), so a corner-derated or per-die
perturbed technology can never alias the nominal one.

The batch APIs (:func:`characterize_cells`, :func:`estimate_points`)
take a :class:`~repro.session.Session` and share one skeleton: key and
deduplicate the points (the Fig. 4b configs A–E all share the 16x10
bit brick, the Fig. 4c sweep repeats specs across stacks), probe the
session's cache (:func:`plan_estimates`), split the unique misses into
at most ``session.jobs`` contiguous chunks, price each chunk as *one*
:func:`repro.perf.parallel.parallel_map` task, then cache the results
and reassemble them in request order.  A parallel cold run therefore
warms the cache exactly like a serial one, and ``executor.tasks``
counts chunks, not points.

Estimates are priced by the vectorized kernel
(:func:`repro.bricks.batch.estimate_brick_batch`) only, and a point
sizes and prices identically alone or inside any chunk, so results do
not depend on ``jobs``.  A kernel error fails its whole chunk through
the executor.  For the same reason a single point
(:func:`cached_estimate`) and a sweep's points share one cache key,
``cache_key("estimate", spec, tech, stack)``: a point a sweep priced
is a warm hit for ``repro brick``, serve's ``characterize`` and
signoff.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

from ..bricks.estimator import BrickPerformance
from ..bricks.spec import BrickSpec
from ..liberty.models import CellModel, LibraryModel
from ..tech.technology import Technology
from .cache import CharacterizationCache
from .fingerprint import cache_key
from .parallel import TaskFailure, chunk_slices, executor_kwargs, \
    parallel_map, resolve_jobs

if TYPE_CHECKING:  # repro.session imports repro.perf at module load.
    from ..session import Session

#: One characterization request: a brick spec and its stack depth.
Point = Tuple[BrickSpec, int]

# --- single-artifact memoizations ----------------------------------------


def cached_estimate(spec: BrickSpec, tech: Technology, stack: int = 1, *,
                    cache: CharacterizationCache) -> BrickPerformance:
    """Memoized estimate of one ``(spec, stack)`` point, under the key
    :func:`estimate_points` gives the same point, so either warms the
    other."""
    from ..bricks.batch import estimate_brick_batch
    return cache.get_or_compute(
        cache_key("estimate", spec, tech, stack),
        lambda: estimate_brick_batch([(spec, stack)], tech)[0])


def cached_stdcell_library(tech: Technology, *,
                           cache: CharacterizationCache) -> LibraryModel:
    """Memoized standard-cell library characterization.

    Returns a fresh :class:`LibraryModel` wrapper each time (cells are
    shared, the container is not) so a caller mutating its copy — e.g.
    ``add``-ing bricks — cannot pollute the cached artifact.
    """
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
# Each prices one chunk ``(points, tech)`` and returns one result per
# point, in order.


def _cell_model_worker(task: Tuple[Sequence[Point], Technology]
                       ) -> List[CellModel]:
    points, tech = task
    from ..bricks.batch import BrickSpecBatch, compile_batch, compiled_row
    from ..bricks.library import brick_cell_model
    compiled = compile_batch(BrickSpecBatch.from_points(points), tech)
    return [brick_cell_model(compiled_row(compiled, tech, i), tech,
                             stack=stack)
            for i, (_, stack) in enumerate(points)]


def _estimate_batch_worker(task: Tuple[Sequence[Point], Technology]
                           ) -> List[BrickPerformance]:
    points, tech = task
    from ..bricks import batch
    return batch.estimate_brick_batch(points, tech)


_WORKERS = {"cellmodel": _cell_model_worker,
            "estimate": _estimate_batch_worker}


def plan_estimates(points: Sequence[Point], session: Session,
                   kind: str
                   ) -> Tuple[List[str], Dict[str, Any],
                              List[Tuple[str, Point]]]:
    """Key, deduplicate and cache-probe ``points`` without computing.

    Returns ``(keys, found, misses)``: the per-point cache keys in
    request order, the warm hits by key, and the unique cold
    ``(key, (spec, stack))`` pairs in first-seen order.  ``kind`` is
    the artifact kind (``"estimate"`` or ``"cellmodel"``) and the
    cache-key prefix.
    """
    tech = session.tech
    memo: Dict[int, str] = {}
    keys = [cache_key(kind, spec, tech, stack, memo=memo)
            for spec, stack in points]
    found: Dict[str, Any] = {}
    misses: List[Tuple[str, Point]] = []
    missed = set()
    with session.span("cache_probe", kind="cache") as probe:
        for point, key in zip(points, keys):
            if key in found or key in missed:
                continue
            hit, value = session.cache.get(key)
            if hit:
                found[key] = value
            else:
                misses.append((key, point))
                missed.add(key)
        if probe is not None:
            probe.attrs.update(unique=len(found) + len(misses),
                               hits=len(found), misses=len(misses))
    return keys, found, misses


def _characterize(points: Sequence[Point], session: Session, kind: str,
                  keep_going: bool = False) -> List[Any]:
    """The one dedup → probe → chunked fan-out → reassemble skeleton.

    Under ``keep_going`` every point of a chunk that failed (even on
    the executor's serial re-execution) comes back as a
    :class:`~repro.perf.parallel.TaskFailure` whose ``index`` is the
    point's position among the cold points; failures are never cached,
    so a later call recomputes them.  Without it the executor's error
    propagates.  ``session.metrics`` (when set) records
    ``characterize.<kind>.points`` and
    ``characterize.<kind>.ns_per_point`` for the cold points.
    """
    with session.span(f"characterize:{kind}", kind="batch",
                      n_requests=len(points)) as batch:
        keys, results, misses = plan_estimates(points, session, kind)
        if batch is not None:
            batch.attrs.update(n_unique=len(results) + len(misses),
                               n_cold=len(misses))
        if misses:
            n_chunks = resolve_jobs(session.jobs, n_tasks=len(misses))
            chunks = chunk_slices(len(misses), n_chunks)
            tasks = [(tuple(misses[i][1] for i in chunk), session.tech)
                     for chunk in chunks]
            with session.span("parallel_map", kind="task_group",
                              tasks=len(chunks), jobs=n_chunks,
                              points=len(misses)) as group:
                started = time.perf_counter()
                computed = parallel_map(
                    _WORKERS[kind], tasks, jobs=n_chunks,
                    return_errors=keep_going,
                    **executor_kwargs(session, group))
                elapsed = time.perf_counter() - started
            for chunk, value in zip(chunks, computed):
                for i in chunk:
                    key = misses[i][0]
                    if isinstance(value, TaskFailure):
                        results[key] = TaskFailure(
                            index=i, error=value.error, kind=value.kind)
                    else:
                        results[key] = value[i - chunk.start]
                        session.cache.put(key, results[key])
            if session.metrics is not None:
                session.metrics.counter(
                    f"characterize.{kind}.points").inc(len(misses))
                session.metrics.gauge(
                    f"characterize.{kind}.ns_per_point").set(
                        elapsed * 1e9 / len(misses))
        return [results[key] for key in keys]


def characterize_cells(requests: Sequence[Point], session: Session
                       ) -> List[CellModel]:
    """Library cell models for ``(spec, stack)`` requests, in order,
    characterized under ``session`` (its tech, cache, jobs and pool)."""
    return _characterize(requests, session, "cellmodel")


def estimate_points(points: Sequence[Point], session: Session,
                    keep_going: bool = False) -> List[BrickPerformance]:
    """Closed-form estimates for ``(spec, stack)`` points, in order,
    priced under ``session`` by the vectorized kernel.

    Under ``keep_going=True`` the points of a failed chunk come back as
    :class:`~repro.perf.parallel.TaskFailure` placeholders so the
    caller can skip-and-record them.
    """
    return _characterize(points, session, "estimate",
                         keep_going=keep_going)
