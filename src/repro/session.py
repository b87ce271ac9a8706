"""Session-scoped flow context: the run-wide state every layer shares.

Before this module existed, every layer of the system re-threaded the
same ad-hoc keyword arguments (``tech``, ``jobs=``, ``cache=``,
``seed=``) from the CLI down through brick characterization, the
design-space explorer, the physical synthesis flow and the silicon
emulation.  A :class:`Session` owns that cross-cutting state once:

* the :class:`~repro.tech.technology.Technology` under synthesis,
* the content-addressed characterization cache (``repro.perf``),
* the parallel-executor width (``jobs``),
* the master RNG seed every deterministic stage derives from,
* an **event sink** receiving structured :class:`StageEvent` records
  (one timed event per pipeline stage) for observability.

Entry points construct one Session and pass it down: every layer
takes it as a required ``session`` argument, in the slot the
technology used to occupy, and reads ``tech``/``jobs``/``cache``/
``seed`` from it::

    from repro.session import Session
    from repro.tech import cmos65

    session = Session(cmos65(), jobs=4, seed=7)
    result = session.run_flow(module, library, stimulus=stimulus)
    sweep = session.sweep_partitions(bits_options=(8, 16))

Corner/per-die studies derive children that share the cache and sink
but swap the technology: ``session.derive(tech=worst_corner_tech)``.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TextIO

from .errors import SessionError
from .obs.metrics import MetricsRegistry, collect_snapshot
from .obs.trace import SpanEvent, Tracer, maybe_span
from .perf.cache import CharacterizationCache
from .perf.parallel import WorkerPool
from .tech.technology import Technology

#: The master seed historically hardcoded in ``run_flow``'s default.
DEFAULT_SEED = 2015


@dataclass(frozen=True)
class StageEvent:
    """One completed (or failed) pipeline stage, with its wall clock."""

    stage: str
    index: int
    wall_clock_s: float
    ok: bool = True
    error: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FaultEvent:
    """One recovered (or recorded) failure inside a larger operation.

    Where a :class:`StageEvent` with ``ok=False`` accompanies a raised
    exception, a FaultEvent marks a failure the system *absorbed*: a
    pipeline stage skipped under ``continue_on_error``, a sweep design
    point recorded and skipped under ``keep_going``, a quarantined cache
    entry.  ``domain`` names the subsystem (``pipeline``, ``sweep``,
    ``cache``, ``executor``); ``recovered`` says whether healthy work
    continued past it.
    """

    domain: str
    name: str
    error: str
    index: int = -1
    recovered: bool = True
    detail: Dict[str, Any] = field(default_factory=dict)


#: Anything callable with a :class:`StageEvent` or :class:`FaultEvent`
#: can be a sink.
EventSink = Callable[[Any], None]


class RecordingSink:
    """Sink that accumulates events in memory (tests, notebooks)."""

    def __init__(self) -> None:
        self.events: List[Any] = []

    def __call__(self, event: Any) -> None:
        self.events.append(event)

    @property
    def stages(self) -> List[str]:
        return [event.stage for event in self.events
                if isinstance(event, StageEvent)]

    @property
    def faults(self) -> List[FaultEvent]:
        return [event for event in self.events
                if isinstance(event, FaultEvent)]

    @property
    def spans(self) -> List[SpanEvent]:
        return [event for event in self.events
                if isinstance(event, SpanEvent)]

    def clear(self) -> None:
        self.events.clear()


class PrintingSink:
    """Sink that renders one line per event (the CLI's --trace-stages)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream

    def __call__(self, event: Any) -> None:
        import sys
        stream = self.stream if self.stream is not None else sys.stderr
        if isinstance(event, FaultEvent):
            print(f"[fault] {event.domain}:{event.name} "
                  f"{'recovered' if event.recovered else 'fatal'}: "
                  f"{event.error}", file=stream)
            return
        if isinstance(event, SpanEvent):
            status = "" if event.ok else f"  FAILED: {event.error}"
            print(f"[span {event.span_id}] "
                  f"{event.kind}:{event.name:<20s} "
                  f"{event.dur_s * 1e3:9.2f} ms{status}", file=stream)
            return
        status = "ok" if event.ok else f"FAILED: {event.error}"
        extra = "".join(f" {k}={v}" for k, v in event.detail.items())
        print(f"[stage {event.index}] {event.stage:<12s} "
              f"{event.wall_clock_s * 1e3:9.2f} ms  {status}{extra}",
              file=stream)


@dataclass
class Session:
    """Run context owning technology, cache, executor, seed and sink.

    ``cache=None`` builds a fresh in-memory
    :class:`~repro.perf.cache.CharacterizationCache` owned by this
    session, so a Session is cheap to build and always has a working
    cache; pass a cache (the CLI builds one from ``--cache-dir``/
    ``--no-cache``) to add a disk tier or share it across sessions.
    ``jobs`` follows the ``repro.perf`` convention: 1 = serial, 0 = all
    cores.
    """

    tech: Technology
    jobs: int = 1
    cache: Optional[CharacterizationCache] = None
    seed: int = DEFAULT_SEED
    sink: Optional[EventSink] = None
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    profile_dir: Optional[str] = None
    pool: Optional[WorkerPool] = None

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = CharacterizationCache()
        self._closed = False
        # True only for the session that *created* its pool: derived
        # children share the reference but never own the lifetime, so a
        # child's close()/GC cannot kill the parent's warm workers.
        self._owns_pool = False
        self._pool_finalizer: Optional[weakref.finalize] = None
        if self.tracer is not None and self.tracer.sink is None:
            self.tracer.sink = self.sink
        if self.sink is not None:
            # Quarantined cache entries surface on this session's sink
            # as FaultEvents (the cache dedups re-registration, so
            # derived children sharing the sink register it once).
            self.cache.add_fault_sink(self.sink)

    # --- lifecycle --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pool(self) -> WorkerPool:
        """This session's persistent executor pool, created on demand.

        The pool survives across characterization batches (the warm
        path a long-running server needs) and is safe to share across
        threads.  Derived children inherit the same pool; only the
        creating session owns its shutdown.  A finalizer reaps the pool
        if the owning session is garbage-collected without
        :meth:`close` — the historical leak where repeated Session
        construction stranded ``ProcessPoolExecutor`` workers.
        """
        if self._closed:
            raise SessionError("session is closed")
        if self.pool is None:
            pool = WorkerPool(max_workers=self.jobs)
            self.pool = pool
            self._owns_pool = True
            # Bound to the pool object, never to self, so the finalizer
            # cannot keep the session alive.
            self._pool_finalizer = weakref.finalize(
                self, WorkerPool.shutdown, pool, False)
        return self.pool

    def close(self) -> None:
        """Release owned resources: shut down the executor pool this
        session created and flush the cache's disk tier.  Idempotent;
        a closed session can still serve cached reads but can no longer
        hand out a worker pool."""
        if self._closed:
            return
        self._closed = True
        if self._owns_pool and self.pool is not None:
            self.pool.shutdown(wait=True)
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
        self.cache.flush()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --- events -----------------------------------------------------------

    def emit(self, event: StageEvent) -> None:
        """Deliver one event to the sink (no-op without a sink)."""
        if self.sink is not None:
            self.sink(event)

    def span(self, name: str, kind: str = "span", **attrs: Any):
        """Context manager opening a span on this session's tracer.

        A no-op yielding ``None`` when the session has no tracer, so
        instrumented layers never need to branch.
        """
        return maybe_span(self.tracer, name, kind=kind, **attrs)

    def metrics_snapshot(self, request_id: Optional[str] = None
                         ) -> Dict[str, Any]:
        """The unified metrics snapshot for this session's run.

        Folds the metrics registry (may be ``None``), this session's
        cache statistics and the process-wide executor statistics into
        one :func:`~repro.obs.metrics.collect_snapshot` dict.
        ``request_id`` tags the snapshot with the serving-layer request
        that asked for it.
        """
        from .perf.parallel import executor_stats
        return collect_snapshot(self.metrics, self.cache.stats,
                                executor_stats(),
                                request_id=request_id)

    # --- determinism ------------------------------------------------------

    def rng(self, salt: str = "") -> random.Random:
        """A fresh RNG derived from the master seed and a salt.

        Distinct salts give independent, reproducible streams, so two
        stages can both draw randomness without coupling their results.
        """
        return random.Random(f"{self.seed}:{salt}")

    # --- construction helpers --------------------------------------------

    def derive(self, **overrides: Any) -> "Session":
        """A child session sharing this one's state except ``overrides``.

        The cache and sink are shared (not copied): a per-die or
        per-corner child reuses the parent's characterization results
        and reports into the same event stream.
        """
        fields_ = {"tech": self.tech, "jobs": self.jobs,
                   "cache": self.cache, "seed": self.seed,
                   "sink": self.sink, "tracer": self.tracer,
                   "metrics": self.metrics,
                   "profile_dir": self.profile_dir,
                   "pool": self.pool}
        unknown = set(overrides) - set(fields_)
        if unknown:
            raise SessionError(
                f"unknown session field(s) {sorted(unknown)}; "
                f"choose from {sorted(fields_)}")
        fields_.update(overrides)
        return Session(**fields_)

    # --- entry points -----------------------------------------------------
    # Convenience delegates so callers can stay entirely in the session
    # API.  Imports are deferred: the flow layers import this module.

    def run_flow(self, top, library, **kwargs):
        """:func:`repro.synth.flow.run_flow` under this session."""
        from .synth.flow import run_flow
        return run_flow(top, library, session=self, **kwargs)

    def prepare_libraries(self, brick_requests):
        """:func:`repro.synth.flow.prepare_libraries` under this session."""
        from .synth.flow import prepare_libraries
        return prepare_libraries(brick_requests, session=self)

    def generate_brick_library(self, requests, name: str = "bricks"):
        """:func:`repro.bricks.library.generate_brick_library` here."""
        from .bricks.library import generate_brick_library
        return generate_brick_library(requests, name=name, session=self)

    def sweep_partitions(self, **kwargs):
        """The Fig. 4c partition sweep
        (:func:`repro.explore.sweep.price_lattice`) under this session."""
        from .explore.sweep import _sweep_partitions_impl
        return _sweep_partitions_impl(self, **kwargs)

    def optimize_brick_selection(self, total_words: int, bits: int,
                                 **kwargs):
        """:mod:`repro.explore.sweep` brick selection, this session."""
        from .explore.sweep import _optimize_brick_selection_impl
        return _optimize_brick_selection_impl(self, total_words=total_words,
                                              bits=bits, **kwargs)

    def sweep_engine(self, **kwargs):
        """A :class:`repro.explore.SweepEngine` bound to this session."""
        from .explore.engine import SweepEngine
        return SweepEngine(session=self, **kwargs)

    def signoff_engine(self, **kwargs):
        """A :class:`repro.signoff.SignoffEngine` bound to this
        session."""
        from .signoff.engine import SignoffEngine
        return SignoffEngine(session=self, **kwargs)
