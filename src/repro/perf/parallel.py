"""Deterministic, fault-tolerant parallel fan-out for characterization.

Characterization points (one ``(spec, stack, tech)`` each) are pure
functions of their inputs, so they parallelize embarrassingly.  Two
subtleties remain:

* **Determinism** — results must come back in task order regardless of
  worker scheduling, and ``jobs=1`` must take the plain serial path (no
  pool, no pickling) so single-threaded behavior is bit-for-bit what it
  always was.  :func:`parallel_map` fills its result list by task index,
  so any submission or completion order yields the same list.
* **Fault tolerance** — a production sweep must survive a crashed
  worker (``BrokenProcessPool``), a hung task, or a flaky transient
  failure.  One loop, :func:`_imap_core`, owns submission, the
  per-task timeout of an :class:`ExecutorPolicy`, broken-pool restart
  and recovery: whatever fails in the pool round is re-executed
  **serially in the parent process**, one task at a time, so healthy
  tasks always complete and a deterministic task error surfaces with
  its original traceback chained into an
  :class:`~repro.errors.ExecutorError`.  :func:`parallel_imap` streams
  that loop; :func:`parallel_map` collects it in task order;
  :func:`resumable_imap` wraps the stream in the checkpoint probe and
  put of a kill-resumable run (sweep shards, signoff chunks).

Degraded-serial path: sandboxed environments that forbid
multiprocessing primitives (no ``/dev/shm``, no ``fork``) fall back to
in-process execution instead of crashing — results are identical either
way, only the wall clock differs.  The same serial path is the
recovery tier after pool failures.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..errors import ExecutorError
from .fingerprint import cache_key

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class ExecutorPolicy:
    """Fault-tolerance knob for one :func:`parallel_map` run.

    ``task_timeout_s`` bounds how long the parent waits for the next
    task completion before treating every still-pending task as timed
    out and recovering it serially (``None`` = forever).
    """

    task_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ExecutorError(
                f"task timeout must be positive, got "
                f"{self.task_timeout_s}")


@dataclass(frozen=True)
class TaskFailure:
    """Terminal failure of one task (only under ``return_errors=True``).

    Stands in for the missing result at the task's index so callers can
    skip-and-record failed work while keeping every healthy result.
    """

    index: int
    error: str
    kind: str  # exception class name, "Timeout" or "BrokenPool"

    def __bool__(self) -> bool:  # failures filter out like missing values
        return False


@dataclass
class ExecutorStats:
    """Process-wide counters over every :func:`parallel_map` call.

    ``tasks`` counts tasks submitted; ``pool_tasks``/``serial_tasks``
    where they executed (a task recovered serially after its pool
    round counts in both); ``retried_tasks`` counts those serial
    recoveries; ``timeouts`` and ``pool_restarts`` the absorbed
    executor faults; ``failures`` the terminal per-task failures that
    failed even serially.
    """

    tasks: int = 0
    pool_tasks: int = 0
    serial_tasks: int = 0
    retried_tasks: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    failures: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "tasks": self.tasks,
            "pool_tasks": self.pool_tasks,
            "serial_tasks": self.serial_tasks,
            "retried_tasks": self.retried_tasks,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "failures": self.failures,
        }


_executor_stats = ExecutorStats()


def executor_stats() -> ExecutorStats:
    """The process-wide executor counters (metrics snapshot source)."""
    return _executor_stats


def reset_executor_stats() -> ExecutorStats:
    """Zero the process-wide counters (tests); returns the instance."""
    global _executor_stats
    _executor_stats = ExecutorStats()
    return _executor_stats


#: Callback observing a resumable run's records as they land, resumed
#: ones included: ``progress(done, total, record)``.  The serve layer
#: uses it to surface ``shards_done/total`` in ``client stats``.
ProgressCallback = Callable[[int, int, Any], None]

#: Callback invoked once per *absorbed* executor fault — a task timing
#: out, failing in the pool, or losing its pool — before the task is
#: recovered serially.  Called as ``on_fault(kind, index,
#: error)``; terminal failures surface through return values/raises
#: instead.
FaultCallback = Callable[[str, int, str], None]


@dataclass
class TraceTap:
    """Carries a trace context into worker tasks and back out again.

    ``context`` (a plain :meth:`~repro.obs.trace.TraceContext.to_dict`
    dict — picklable) ships with every task; each execution builds a
    worker-side tracer, adopts the context, and runs under a
    ``task:<fn>`` span.  The spans ride home inside the return value
    and are :meth:`~repro.obs.trace.Tracer.graft`-ed into ``tracer``
    under span id ``under`` with ``keep_remote=False`` (the local
    parent link replaces the remote ref) — so pool-side work stitches
    into the caller's tree as if it had run in-process.  Grafting
    happens in result order: task-index order for :func:`parallel_map`
    (so stitched traces are deterministic at any ``jobs``), yield
    order for :func:`parallel_imap` (completion order for a pooled
    stream, matching the span order it already produces).
    """

    tracer: Any
    context: Dict[str, str]
    under: Optional[int] = None

    @classmethod
    def for_span(cls, tracer: Any, span: Any) -> "TraceTap":
        """Tap parenting worker spans under an open ``span``."""
        return cls(tracer=tracer,
                   context=tracer.task_context(span).to_dict(),
                   under=span.span_id)


@dataclass
class _TracedResult:
    """Worker return value plus the spans recorded while computing it."""

    value: Any
    spans: List[Any]


class _TracedTask:
    """Picklable wrapper running ``fn`` under a worker-side tracer.

    Used on every execution tier (pool round, serial recovery, plain
    serial path) so traced runs produce the same span shape no matter
    where a task lands; a task that raises contributes no spans — its
    serial re-execution records the surviving attempt.
    """

    def __init__(self, fn: Callable[..., Any],
                 context: Dict[str, str]) -> None:
        self.fn = fn
        self.context = context
        self.name = f"task:{getattr(fn, '__name__', 'task')}"

    def __call__(self, task: Any) -> _TracedResult:
        from ..obs.trace import KIND_TASK, TraceContext, Tracer
        tracer = Tracer(source="worker")
        tracer.adopt(TraceContext.from_dict(self.context))
        span = tracer.open(self.name, kind=KIND_TASK)
        value = self.fn(task)
        tracer.close(span)
        return _TracedResult(value=value, spans=tracer.spans)


def _absorb(value: Any, trace: TraceTap) -> Any:
    """Graft a :class:`_TracedResult`'s spans home; pass through
    :class:`TaskFailure` placeholders (and ``None``) untouched."""
    if isinstance(value, _TracedResult):
        trace.tracer.graft(value.spans, under=trace.under,
                           keep_remote=False)
        return value.value
    return value


_default_policy = ExecutorPolicy()


def set_default_executor_policy(policy: ExecutorPolicy) -> ExecutorPolicy:
    """Install the process-wide policy (the CLI's ``--task-timeout``)
    used when a call passes ``policy=None``; returns the one it
    replaces, so a caller can put it back."""
    global _default_policy
    previous, _default_policy = _default_policy, policy
    return previous


def resolve_jobs(jobs: Optional[int], n_tasks: Optional[int] = None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean "all cores".

    When ``n_tasks`` is given the result is additionally clamped to it
    (never below 1): spawning more workers than tasks only pays pool
    startup for processes that would exit idle, which dominates wall
    clock for tiny batches.
    """
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    elif jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if n_tasks is not None:
        jobs = max(1, min(jobs, n_tasks))
    return jobs


def chunk_slices(n_tasks: int, n_chunks: int) -> List[range]:
    """Split ``range(n_tasks)`` into at most ``n_chunks`` contiguous,
    balanced, non-empty ranges.

    This is how the batch-first characterization path shapes its
    executor tasks: one *chunk of points* per worker instead of one
    point per task, so ``executor.tasks`` counts batches and the serial
    recovery tier replays a whole batch.  Deterministic: chunk ``k``
    always covers the same indices for given ``(n_tasks, n_chunks)``.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if n_tasks < 0:
        raise ValueError(f"n_tasks must be >= 0, got {n_tasks}")
    n_chunks = min(n_chunks, n_tasks) or (1 if n_tasks else 0)
    base, rem = divmod(n_tasks, n_chunks) if n_chunks else (0, 0)
    slices: List[range] = []
    start = 0
    for k in range(n_chunks):
        size = base + (1 if k < rem else 0)
        slices.append(range(start, start + size))
        start += size
    return slices


#: Every live WorkerPool, weakly held, so tests and shutdown hooks can
#: audit for stranded worker processes.
_live_pools: "weakref.WeakSet" = weakref.WeakSet()


class WorkerPool:
    """A persistent process pool shared across :func:`parallel_map` calls.

    Historically every ``parallel_map`` invocation built a fresh
    ``ProcessPoolExecutor`` and tore it down — correct, but a
    long-running service paying pool startup per request defeats the
    point of staying warm, and a timed-out call *abandoned* its pool
    (``shutdown(wait=False)``), stranding workers until process exit.
    A WorkerPool instead owns one lazily-created executor that survives
    across calls:

    * :meth:`executor` creates the pool on first use (propagating the
      platform errors ``parallel_map`` already treats as "degrade to
      serial");
    * :meth:`restart` replaces a broken or abandoned pool so the next
      call gets a healthy one instead of inheriting the corpse;
    * :meth:`shutdown` ends the pool's life for good — further use
      raises :class:`~repro.errors.ExecutorError`.

    Thread-safe: the asyncio server submits from several handler
    threads at once (``ProcessPoolExecutor.submit`` itself is
    thread-safe; the lock here only guards lazy creation/replacement).
    Pools register in a module-wide weak set so a dropped-without-close
    :class:`~repro.session.Session` can be reaped by its finalizer
    instead of leaking workers.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = resolve_jobs(max_workers)
        self._executor: Optional[Any] = None
        self._lock = threading.Lock()
        self._closed = False
        _live_pools.add(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def executor(self):
        """The shared ``ProcessPoolExecutor``, created on first use."""
        with self._lock:
            if self._closed:
                raise ExecutorError("worker pool is closed")
            if self._executor is None:
                from concurrent.futures import ProcessPoolExecutor
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers)
            return self._executor

    def restart(self, wait: bool = False) -> None:
        """Discard the current executor (broken/abandoned); a fresh one
        is created on next :meth:`executor` call."""
        with self._lock:
            old, self._executor = self._executor, None
        if old is not None:
            old.shutdown(wait=wait, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        """Terminate the pool permanently (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            old, self._executor = self._executor, None
        if old is not None:
            old.shutdown(wait=wait, cancel_futures=True)


def live_worker_pools() -> List[WorkerPool]:
    """Snapshot of the not-yet-collected WorkerPools (tests, audits)."""
    return [pool for pool in _live_pools]


def parallel_map(fn: Callable[[T], R], tasks: Sequence[T],
                 jobs: int = 1,
                 policy: Optional[ExecutorPolicy] = None,
                 return_errors: bool = False,
                 on_fault: Optional[FaultCallback] = None,
                 pool: Optional[WorkerPool] = None,
                 trace: Optional[TraceTap] = None) -> List[Any]:
    """``[fn(t) for t in tasks]`` fanned over ``jobs`` processes.

    The task-ordered collect of :func:`parallel_imap`'s loop: results
    are filled by task index, so the list is identical whatever order
    tasks complete in.  ``fn`` and every task must be picklable when
    ``jobs > 1``; ``jobs <= 1`` (or a single task) runs serially
    in-process, and a platform that cannot start a process pool falls
    back to that path silently.

    Failure handling is governed by ``policy`` (default: the
    process-wide one, :func:`set_default_executor_policy`): a task
    whose worker crashes, times out, or raises is re-executed serially
    in the parent after the pool round — so one poisoned task never discards
    its healthy siblings' results.  A task that fails even serially
    raises :class:`~repro.errors.ExecutorError` (chaining the original
    exception) or, under ``return_errors=True``, yields a
    :class:`TaskFailure` placeholder at its index so callers can
    skip-and-record.  On the serial path the task's own exception
    propagates unwrapped.

    ``on_fault`` (see :data:`FaultCallback`) observes every *absorbed*
    fault — timeout, failed pool task, broken pool — which is how the
    session layer routes executor faults to its event sink; the
    process-wide :func:`executor_stats` counters record the same events
    unconditionally.

    ``pool`` (a :class:`WorkerPool`) reuses a persistent executor
    instead of paying pool startup per call — the warm-service path.
    A broken or timed-out shared pool is :meth:`~WorkerPool.restart`-ed
    rather than abandoned; without ``pool`` each call builds and tears
    down its own.

    ``trace`` (a :class:`TraceTap`) threads a serializable trace
    context into every task and grafts the worker-side spans back into
    the caller's tracer in task-index order — the cross-process half
    of one end-to-end request trace.
    """
    results: List[Any] = [None] * len(tasks)
    for index, value in _imap_core(
            fn if trace is None else _TracedTask(fn, trace.context),
            tasks, jobs=jobs, policy=policy,
            return_errors=return_errors, on_fault=on_fault, pool=pool):
        results[index] = value
    if trace is None:
        return results
    return [_absorb(value, trace) for value in results]


def _serial_iter(fn: Callable[[T], R], tasks: Sequence[T],
                 indices: Sequence[int], return_errors: bool,
                 wrap: bool) -> Iterator[Tuple[int, Any]]:
    """Run ``indices`` in-process, yielding ``(index, result)`` pairs
    in ``indices`` order.

    Used both as the plain serial path (``wrap=False``: exceptions
    propagate untouched, bit-for-bit the historical behavior) and as
    the recovery tier after the pool round (``wrap=True``: the original
    exception is chained into :class:`ExecutorError` so the failure is
    attributed to the executor that gave up on the pool).  No timeout
    applies in-process — a task that deterministically hangs cannot be
    preempted without a pool.
    """
    for index in indices:
        _executor_stats.serial_tasks += 1
        try:
            result = fn(tasks[index])
        except Exception as exc:
            _executor_stats.failures += 1
            if return_errors:
                yield index, TaskFailure(index=index, error=str(exc),
                                         kind=type(exc).__name__)
                continue
            if wrap:
                raise ExecutorError(
                    f"task {index} failed in the pool and on serial "
                    f"re-execution: {exc}") from exc
            raise
        else:
            yield index, result


def parallel_imap(fn: Callable[[T], R], tasks: Sequence[T],
                  jobs: int = 1,
                  policy: Optional[ExecutorPolicy] = None,
                  return_errors: bool = False,
                  on_fault: Optional[FaultCallback] = None,
                  pool: Optional[WorkerPool] = None,
                  trace: Optional[TraceTap] = None
                  ) -> Iterator[Tuple[int, Any]]:
    """Streaming :func:`parallel_map`: yield ``(index, result)`` pairs
    as tasks *complete* instead of one ordered list at the end.

    ``trace`` follows :func:`parallel_map`, except that worker-side
    spans graft into the caller's tracer as each result is yielded.

    This is the work-stealing shape :func:`resumable_imap` wraps for
    the sharded explorer and signoff — each completed shard or chunk
    is checkpointed and folded in immediately, so progress is
    observable and a kill loses at most the in-flight tasks.  The
    serial path (``jobs <= 1``, a single task, or a sandbox without
    multiprocessing) yields in task order, making serial runs exactly
    the eager loop they always were.

    Failure semantics follow :func:`parallel_map`: a task that times
    out, loses its pool, or raises in a worker is re-executed serially
    in the parent *after* all healthy completions have been yielded
    (recovered results therefore arrive last, in index order); a task
    failing even serially raises :class:`~repro.errors.ExecutorError`
    or yields a :class:`TaskFailure` pair under ``return_errors=True``.
    ``policy.task_timeout_s`` bounds the wait for *any* completion —
    when nothing finishes within it, every still-pending task is
    treated as timed out and recovered serially.
    """
    stream = _imap_core(
        fn if trace is None else _TracedTask(fn, trace.context),
        tasks, jobs=jobs, policy=policy, return_errors=return_errors,
        on_fault=on_fault, pool=pool)
    if trace is None:
        yield from stream
        return
    for index, value in stream:
        yield index, _absorb(value, trace)


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


def executor_kwargs(session: Any, span: Any) -> Dict[str, Any]:
    """The executor arguments a session supplies to
    :func:`parallel_map`/:func:`parallel_imap`: its warm ``pool``, its
    event sink as ``on_fault``, and a ``trace`` tap parenting worker
    spans under ``span`` (none when ``span`` is ``None``)."""
    return {"pool": session.pool,
            "on_fault": _executor_fault_sink(session.sink),
            "trace": (TraceTap.for_span(session.tracer, span)
                      if span is not None else None)}


def checkpoint_key(kind: str, fingerprint: str, keep_going: bool,
                   index: int) -> str:
    """Cache key of task ``index``'s checkpoint in a resumable run of
    ``kind`` (``"signoff-chunk"``, ``"explore-shard"``) planned under
    ``fingerprint``."""
    return cache_key(kind, fingerprint, keep_going, index)


def resumable_imap(session: Any, fn: Callable[[T], R],
                   tasks: Sequence[T], keys: Sequence[str],
                   expect: Any, resume: bool, span: Any,
                   on_failure: Optional[
                       Callable[[int, TaskFailure], Any]] = None,
                   stop: Optional[Callable[[], bool]] = None
                   ) -> Iterator[Tuple[int, Any, bool]]:
    """The checkpoint -> executor -> checkpoint loop of a kill-resumable
    run, yielding ``(index, record, resumed)``.

    Under ``resume``, every ``keys[index]`` is probed in index order
    with ``session.cache.get(key, expect=expect)`` — a record of the
    wrong type or a truncated entry is quarantined and counts as a
    miss — and each hit is yielded as resumed before any task is
    submitted.  The misses fan out through :func:`parallel_imap` under
    the session's ``jobs`` and :func:`executor_kwargs`; each computed
    record is put under its key as it lands, then yielded, so a kill
    loses at most the in-flight tasks.

    ``on_failure(index, failure)`` turns a task that failed even on
    the executor's serial retry into the record checkpointed in its
    place; without it the failure raises.  ``stop`` is polled after
    the probe and after each computed record: once true, the stream
    ends and the fan-out shuts down.
    """
    cache = session.cache
    misses: List[int] = []
    for index, key in enumerate(keys):
        if resume:
            hit, record = cache.get(key, expect=expect)
            if hit:
                yield index, record, True
                continue
        misses.append(index)
    if not misses or (stop is not None and stop()):
        return
    stream = parallel_imap(fn, [tasks[index] for index in misses],
                           jobs=session.jobs,
                           return_errors=on_failure is not None,
                           **executor_kwargs(session, span))
    try:
        for position, record in stream:
            index = misses[position]
            if isinstance(record, TaskFailure):
                record = on_failure(index, record)
            cache.put(keys[index], record)
            yield index, record, False
            if stop is not None and stop():
                return
    finally:
        stream.close()


def _imap_core(fn: Callable[[T], Any], tasks: Sequence[T],
               jobs: int = 1,
               policy: Optional[ExecutorPolicy] = None,
               return_errors: bool = False,
               on_fault: Optional[FaultCallback] = None,
               pool: Optional[WorkerPool] = None
               ) -> Iterator[Tuple[int, Any]]:
    """The one submit / timeout / restart / serial-recovery loop behind
    :func:`parallel_map` and :func:`parallel_imap`."""
    policy = policy if policy is not None else _default_policy
    n = len(tasks)
    jobs = resolve_jobs(jobs, n_tasks=n)
    _executor_stats.tasks += n
    executor = None
    if jobs > 1 and n > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            executor = (pool.executor() if pool is not None
                        else ProcessPoolExecutor(max_workers=jobs))
        except (ImportError, OSError, NotImplementedError,
                ExecutorError):
            # No multiprocessing in this sandbox (or the shared pool is
            # closed): degrade to serial.
            pass
    if executor is None:
        yield from _serial_iter(fn, tasks, range(n), return_errors,
                                wrap=False)
        return
    from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
    recover: List[int] = []
    timed_out = False
    pool_broke = False
    try:
        future_index = {executor.submit(fn, tasks[i]): i
                        for i in range(n)}
        _executor_stats.pool_tasks += n
        not_done = set(future_index)
        while not_done:
            done, not_done = wait(not_done,
                                  timeout=policy.task_timeout_s,
                                  return_when=FIRST_COMPLETED)
            if not done:
                timed_out = True
                for future in sorted(not_done, key=future_index.get):
                    index = future_index[future]
                    future.cancel()
                    recover.append(index)
                    _executor_stats.timeouts += 1
                    if on_fault is not None:
                        on_fault("Timeout", index,
                                 f"no completion within "
                                 f"{policy.task_timeout_s}s")
                break
            for future in done:
                index = future_index[future]
                try:
                    result = future.result()
                except BrokenExecutor as exc:
                    pool_broke = True
                    recover.append(index)
                    if on_fault is not None:
                        on_fault("BrokenPool", index, str(exc))
                except Exception as exc:
                    recover.append(index)
                    if on_fault is not None:
                        on_fault(type(exc).__name__, index, str(exc))
                else:
                    yield index, result
            if pool_broke:
                for future in not_done:
                    recover.append(future_index[future])
                break
    finally:
        if pool is not None:
            # A shared pool survives the call warm; a hung task or a
            # dead pool is replaced (never abandoned) so the next
            # caller inherits a healthy executor, not the corpse.
            if timed_out or pool_broke:
                pool.restart(wait=False)
        else:
            # A hung task would make a waiting shutdown block forever;
            # abandon the pool instead (workers are reaped at exit).
            executor.shutdown(wait=not timed_out, cancel_futures=True)
    if pool_broke:
        _executor_stats.pool_restarts += 1
    if recover:
        _executor_stats.retried_tasks += len(recover)
        yield from _serial_iter(fn, tasks, sorted(recover),
                                return_errors, wrap=True)
