"""Stateless request handlers over the server's stateful stores.

Each handler is a plain blocking function ``(ctx, request) -> result
dict``: the server runs it on a compute thread via ``run_in_executor``
and wraps the returned dict in an ``ok`` reply.  Handlers keep *no*
state of their own — everything durable lives in the
:class:`ServeContext` (the shared :class:`~repro.session.Session`, the
:class:`~repro.serve.store.ArtifactStore`, the coalescer, the
request log), which is what makes any number of concurrent handler
invocations safe.

This module is also where the CLI and the served path converge: the
``*_report_data`` builders produce JSON-ready dicts and the
``render_*`` functions format those dicts, so ``repro sweep`` printing
locally and ``repro client sweep`` printing a fetched artifact emit
**byte-identical** stdout — floats survive the JSON round-trip exactly
(``repr`` shortest round-trip), and both sides share one formatter.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..bricks.spec import BrickSpec
from ..cells.bitcells import make_bitcell
from ..errors import ServeError
from ..explore.engine import SweepEngine
from ..explore.pareto import pareto_front
from ..explore.sweep import SweepResult
from ..obs.export import span_record
from ..obs.metrics import MetricsRegistry
from ..obs.report import render_report
from ..obs.telemetry import QUANTILES, OpsLog
from ..obs.trace import KIND_REQUEST, TraceContext, Tracer
from ..perf.characterize import cached_estimate
from ..perf.fingerprint import cache_key
from ..session import Session
from ..units import format_si
from .coalesce import RequestCoalescer
from .protocol import PROTOCOL_VERSION, Request
from .store import ArtifactStore

#: Brick memory types the characterize/yield handlers accept (the same
#: choices the CLI exposes).
MEMORY_TYPES = ("6T", "8T", "CAM", "EDRAM", "DP")


#: Per-request stats entries a ``stats`` reply lists, newest last.
REQUEST_LOG_SIZE = 128

#: Registry name prefixes of the serve plane's per-type metrics.
LATENCY_PREFIX = "serve.request_s."
INFLIGHT_PREFIX = "serve.inflight."


class ServeContext:
    """Everything a handler may touch: one session, one artifact store,
    one coalescer, one bounded per-request log.

    The session's metrics registry is the daemon's only store of
    serve-plane numbers (``serve.*`` names): a ``serve.request_s.<type>``
    latency histogram per request type, ``serve.errors[.<type>]`` and
    ``serve.coalesced[.<type>]`` counters, ``serve.requests`` and
    ``serve.computed``, the ``serve.inflight[.<type>]`` gauges and the
    store's ``serve.store.*`` counters.  ``repro report``, ``stats`` and
    ``telemetry`` all render from it.
    """

    def __init__(self, session: Session,
                 ops_log: Optional[OpsLog] = None) -> None:
        if session.metrics is None:
            session.metrics = MetricsRegistry()
        self.session = session
        #: The daemon's long-lived session.  ``session`` may be a
        #: per-request :meth:`with_session` view; handlers that render
        #: the *accumulated* trace read this one.
        self.daemon_session = session
        self.metrics = session.metrics
        #: Guards the telemetry read, ``sweeps`` and every serve-plane
        #: registry write except the store's ``serve.store.*`` (its own
        #: lock).
        self.lock = threading.Lock()
        #: Uptime is derived from this at read time; no wall clock is
        #: kept in the registry, so stripped traces stay deterministic.
        self.started = time.monotonic()
        self.store = ArtifactStore(metrics=self.metrics)
        self.coalescer = RequestCoalescer()
        #: Optional rotating JSONL ops log (one line per request).
        self.ops_log = ops_log
        #: Most recent per-request stats entries, oldest first.
        self.request_log: "deque[Dict[str, Any]]" = deque(
            maxlen=REQUEST_LOG_SIZE)
        #: Live/finished sweep progress by plan fingerprint (bounded):
        #: ``{shards_done, shards_total, n_points, mode, done}`` — how
        #: ``client stats`` shows a long sweep advancing shard by shard
        #: instead of appearing hung.
        self.sweeps: Dict[str, Dict[str, Any]] = {}
        self._sweeps_cap = 64

    def with_session(self, session: Session) -> "ServeContext":
        """A shallow view of this context over a different session.

        Every store (registry, lock, artifacts, coalescer, request log,
        sweeps) is *shared* — only the session differs.  This is how
        one request runs against a per-request tracer while all
        durable state stays in the daemon's context.
        """
        view = copy.copy(self)
        view.session = session
        return view

    def note_sweep_progress(self, fingerprint: str,
                            entry: Dict[str, Any]) -> None:
        """Record one sweep's progress snapshot (evicts oldest).

        Under the serve lock: concurrent sweeps report from their own
        compute threads while ``stats``/``telemetry`` iterate."""
        with self.lock:
            self.sweeps.pop(fingerprint, None)
            self.sweeps[fingerprint] = entry
            while len(self.sweeps) > self._sweeps_cap:
                self.sweeps.pop(next(iter(self.sweeps)))

    def cache_marks(self) -> Tuple[int, int]:
        """``(hits, lookups)`` cumulative cache counters — sampled
        around a request to derive its approximate hit ratio."""
        stats = self.session.cache.stats
        hits = stats.memory_hits + stats.disk_hits
        return hits, hits + stats.misses

    def count(self, name: str) -> None:
        """Bump one serve-plane counter under the serve lock."""
        with self.lock:
            self.metrics.counter(name).inc()

    def track_inflight(self, rtype: str, delta: int) -> None:
        """Move the ``serve.inflight`` gauges by ``delta`` (+1 when a
        request starts, -1 when it ends)."""
        with self.lock:
            for name in ("serve.inflight", INFLIGHT_PREFIX + rtype):
                gauge = self.metrics.gauge(name)
                gauge.set(gauge.value + delta)

    def record_request(self, request: Request, wall_clock_s: float, *,
                       ok: bool, coalesced: bool = False,
                       rejected: bool = False,
                       cache_before: Tuple[int, int] = (0, 0),
                       cache_after: Tuple[int, int] = (0, 0)
                       ) -> Dict[str, Any]:
        """Record one finished request, exactly once: its latency, its
        outcome and whether it computed or joined an in-flight
        computation, plus a per-request log entry.

        ``rejected`` marks a request refused before it reached the
        coalescer (invalid params): an error of its type that computed
        nothing.  The cache delta is approximate under concurrency
        (other requests' lookups land in the same window) but exact for
        serialized traffic, which is what tests assert on."""
        d_hits = cache_after[0] - cache_before[0]
        d_lookups = cache_after[1] - cache_before[1]
        entry = {
            "id": request.id,
            "type": request.type,
            "ok": ok,
            "coalesced": coalesced,
            "wall_clock_s": wall_clock_s,
            "cache_hits": d_hits,
            "cache_lookups": d_lookups,
            "cache_hit_ratio": (d_hits / d_lookups if d_lookups
                                else None),
        }
        rtype = request.type
        metrics = self.metrics
        with self.lock:
            self.request_log.append(entry)
            metrics.histogram(LATENCY_PREFIX + rtype).observe(
                wall_clock_s)
            metrics.counter("serve.requests").inc()
            if coalesced:
                metrics.counter("serve.coalesced").inc()
                metrics.counter(f"serve.coalesced.{rtype}").inc()
            elif rtype in COALESCED_TYPES and not rejected:
                metrics.counter("serve.computed").inc()
            if not ok:
                metrics.counter("serve.errors").inc()
                metrics.counter(f"serve.errors.{rtype}").inc()
        if self.ops_log is not None:
            self.ops_log.write(entry)
        return entry


# --- parameter validation -------------------------------------------------


def _require_int(params: Dict[str, Any], name: str,
                 default: Optional[int] = None, minimum: int = 1) -> int:
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(f"param {name!r} must be an integer, "
                         f"got {value!r}")
    if value < minimum:
        raise ServeError(f"param {name!r} must be >= {minimum}, "
                         f"got {value}")
    return value


def _require_int_list(params: Dict[str, Any], name: str,
                      default: Tuple[int, ...]) -> Tuple[int, ...]:
    value = params.get(name, list(default))
    if (not isinstance(value, list) or not value
            or any(isinstance(v, bool) or not isinstance(v, int)
                   or v < 1 for v in value)):
        raise ServeError(f"param {name!r} must be a non-empty list of "
                         f"positive integers, got {value!r}")
    return tuple(value)


def _require_int_or_list(params: Dict[str, Any], name: str,
                         default: Tuple[int, ...]) -> Tuple[int, ...]:
    """Accept a single positive int or a non-empty list of them.

    The sweep's ``total_words`` historically took one integer; the
    scaled engine sweeps a whole axis, so both spellings are valid.
    """
    value = params.get(name, list(default))
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    if (not isinstance(value, list) or not value
            or any(isinstance(v, bool) or not isinstance(v, int)
                   or v < 1 for v in value)):
        raise ServeError(f"param {name!r} must be a positive integer "
                         f"or non-empty list of them, got {value!r}")
    return tuple(value)


def _sweep_engine(session: Session,
                  params: Dict[str, Any]) -> SweepEngine:
    """Build the :class:`SweepEngine` one sweep request describes.

    Cheap (no pricing): :func:`coalesce_key` uses it just for the plan
    fingerprint; :func:`handle_sweep` for the actual run.
    """
    return SweepEngine(
        session,
        total_words_options=_require_int_or_list(
            params, "total_words", (128,)),
        bits_options=_require_int_list(params, "bits", (8, 16, 32)),
        brick_words_options=_require_int_list(params, "brick_words",
                                              (16, 32, 64)),
        memory_type=_require_type(params),
        top_k=_require_int(params, "top_k", 16, minimum=0),
        shard_size=_require_int(params, "shard_size", 8192))


def _signoff_engine(session: Session, params: Dict[str, Any]):
    """Build the :class:`SignoffEngine` one signoff request describes.

    Cheap (no pricing): :func:`coalesce_key` uses it just for the plan
    fingerprint; :func:`handle_signoff` for the actual run.  An
    explicit ``seed`` param derives a child session, so served runs
    reproduce any local ``--seed``.
    """
    from ..signoff.engine import (
        DEFAULT_CHUNK,
        DEFAULT_CORNERS,
        DEFAULT_SAMPLES,
        SignoffEngine,
    )
    seed = params.get("seed")
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ServeError(f"param 'seed' must be an integer, "
                             f"got {seed!r}")
        session = session.derive(seed=seed)
    ci_target = params.get("ci_target")
    if ci_target is not None and (isinstance(ci_target, bool)
                                  or not isinstance(ci_target,
                                                    (int, float))):
        raise ServeError(f"param 'ci_target' must be a number, "
                         f"got {ci_target!r}")
    corners = params.get("corners", list(DEFAULT_CORNERS))
    if (not isinstance(corners, list) or not corners
            or any(not isinstance(c, str) for c in corners)):
        raise ServeError(f"param 'corners' must be a non-empty list "
                         f"of corner names, got {corners!r}")
    return SignoffEngine(
        session,
        memory_type=_require_type(params),
        words=_require_int(params, "words", 16),
        bits=_require_int(params, "bits", 10),
        stack=_require_int(params, "stack", 1),
        n_samples=_require_int(params, "samples", DEFAULT_SAMPLES),
        chunk_size=_require_int(params, "chunk_size", DEFAULT_CHUNK),
        ci_target=(float(ci_target) if ci_target is not None
                   else None),
        corners=tuple(corners))


def signoff_report_data(report) -> Dict[str, Any]:
    """The shared signoff data dict (CLI and serve render the same)."""
    payload = report.as_dict()
    payload["render"] = report.render()
    return payload


def _require_type(params: Dict[str, Any], name: str = "type",
                  default: str = "8T") -> str:
    value = params.get(name, default)
    if value not in MEMORY_TYPES:
        raise ServeError(f"param {name!r} must be one of "
                         f"{', '.join(MEMORY_TYPES)}, got {value!r}")
    return value


def _require_str(params: Dict[str, Any], name: str) -> str:
    value = params.get(name)
    if not isinstance(value, str) or not value:
        raise ServeError(f"param {name!r} must be a non-empty string, "
                         f"got {value!r}")
    return value


# --- shared report data + renderers ---------------------------------------
#
# The CLI commands and the client render from the *same* data dicts via
# the *same* functions; only the transport differs.


def brick_report_data(session: Session, memory_type: str, words: int,
                      bits: int, stack: int) -> Dict[str, Any]:
    """Estimate one brick; JSON-ready report dict.

    One cached estimate (a warm hit when a sweep priced the point)
    carries everything: the area is the estimator's transcription of
    ``generate_layout`` for one brick, so the report needs neither a
    compile nor a layout.
    """
    spec = BrickSpec(memory_type, words, bits)
    est = cached_estimate(spec, session.tech, stack,
                          cache=session.cache)
    cell = make_bitcell(memory_type, session.tech)
    return {
        "name": spec.name,
        "tech": session.tech.name,
        "type": memory_type,
        "words": words,
        "bits": bits,
        "stack": stack,
        "read_delay": est.read_delay,
        "read_energy": est.read_energy,
        "write_energy": est.write_energy,
        "match_delay": est.match_delay,
        "match_energy": est.match_energy,
        "setup": est.setup,
        "hold": est.hold,
        "area_um2": est.brick_area_um2,
        "array_efficiency": (spec.words * spec.bits * cell.area_um2
                             / est.brick_area_um2),
        "leakage_w": est.leakage_w,
        "max_read_frequency": est.max_read_frequency(),
    }


def render_brick_report(data: Dict[str, Any]) -> str:
    """The ``repro brick`` stdout block for a report dict."""
    lines = [
        f"brick {data['name']} @ {data['tech']}, "
        f"{data['stack']}x stacked:",
        f"  read critical path : "
        f"{format_si(data['read_delay'], 's')}",
        f"  read energy        : "
        f"{format_si(data['read_energy'], 'J')}",
        f"  write energy       : "
        f"{format_si(data['write_energy'], 'J')}",
    ]
    if data["match_delay"] is not None:
        lines.append(f"  match path         : "
                     f"{format_si(data['match_delay'], 's')}")
        lines.append(f"  match energy       : "
                     f"{format_si(data['match_energy'], 'J')}")
    lines += [
        f"  setup / hold       : {format_si(data['setup'], 's')} / "
        f"{format_si(data['hold'], 's')}",
        f"  area (1 brick)     : {data['area_um2']:.1f} um^2 "
        f"({data['array_efficiency']:.0%} array)",
        f"  leakage (bank)     : {format_si(data['leakage_w'], 'W')}",
        f"  max read frequency : "
        f"{format_si(data['max_read_frequency'], 'Hz')}",
    ]
    return "\n".join(lines)


def sweep_report_data(result: SweepResult) -> Dict[str, Any]:
    """JSON-ready dict of a sweep (points, failures, pareto labels)."""
    points = [{
        "total_words": p.total_words,
        "bits": p.bits,
        "brick_words": p.brick_words,
        "stack": p.stack,
        "read_delay": p.read_delay,
        "read_energy": p.read_energy,
        "write_energy": p.write_energy,
        "area_um2": p.area_um2,
        "leakage_w": p.leakage_w,
    } for p in result.points]
    front = pareto_front(
        result.points,
        lambda p: (p.read_delay, p.read_energy, p.area_um2))
    return {
        "n_points": len(points),
        "wall_clock_s": result.wall_clock_s,
        "points": points,
        "failures": [{"label": f.label, "error": f.error}
                     for f in result.failures],
        "pareto": [p.label for p in front],
    }


def render_sweep_table(data: Dict[str, Any]) -> str:
    """The ``repro sweep`` stdout table + pareto line for a data dict.

    Deterministic for a given sweep (the wall clock and failure lines
    go to stderr on the CLI side), so the local and served renderings
    diff clean.
    """
    from ..units import PJ, PS
    header = (f"{'memory':>12s} {'brick':>12s} {'delay':>9s} "
              f"{'energy':>11s} {'area':>11s}")
    lines = [header, "-" * len(header)]
    for p in sorted(data["points"],
                    key=lambda p: (p["bits"], p["brick_words"])):
        lines.append(
            f"{'%dx%db' % (p['total_words'], p['bits']):>12s} "
            f"{'%dx%db' % (p['brick_words'], p['bits']):>12s} "
            f"{p['read_delay'] / PS:>7.0f}ps "
            f"{p['read_energy'] / PJ:>9.3f}pJ "
            f"{p['area_um2']:>8.0f}um2")
    lines.append(f"pareto-optimal: {', '.join(data['pareto'])}")
    return "\n".join(lines)


# --- coalescing keys ------------------------------------------------------

#: Request types whose computation is shared between identical
#: concurrent requests.
COALESCED_TYPES = ("characterize", "sweep", "yield", "signoff")


def coalesce_key(request: Request, session: Session) -> Optional[str]:
    """The single-flight key for a request, or ``None`` (don't coalesce).

    Keys are content fingerprints over every input that shapes the
    result — the same digests the characterization cache uses — so two
    textually different but semantically identical requests (reordered
    params, defaulted vs explicit values) still collapse into one
    computation.  Cheap and pure: safe to call on the event loop.
    """
    params = request.params
    if request.type == "sweep":
        plan = _sweep_engine(session, params).plan()
        return f"sweep:{plan.fingerprint}"
    if request.type == "characterize":
        spec = BrickSpec(_require_type(params),
                         _require_int(params, "words", 16),
                         _require_int(params, "bits", 10))
        stack = _require_int(params, "stack", 1)
        return "brick:" + cache_key("brickreport", spec, session.tech,
                                    stack)
    if request.type == "signoff":
        plan = _signoff_engine(session, params).plan()
        return f"signoff:{plan.fingerprint}"
    if request.type == "yield":
        spec = BrickSpec(_require_type(params),
                         _require_int(params, "words", 16),
                         _require_int(params, "bits", 10))
        fp = cache_key(
            "yield", spec, session.tech,
            _require_int(params, "stack", 1),
            _require_int(params, "partitions", 1),
            _require_int(params, "population", 1000),
            _require_int(params, "spare_rows", 2, minimum=0),
            _require_int(params, "spare_cols", 1, minimum=0),
            bool(params.get("ecc", False)),
            params.get("seed"))
        return f"yield:{fp}"
    return None


# --- handlers -------------------------------------------------------------


def handle_ping(ctx: ServeContext, request: Request) -> Dict[str, Any]:
    return {"pong": True, "protocol": PROTOCOL_VERSION,
            "tech": ctx.session.tech.name,
            "jobs": ctx.session.jobs}


def handle_characterize(ctx: ServeContext,
                        request: Request) -> Dict[str, Any]:
    """Estimate one brick; the report dict is small enough to
    inline *and* is parked in the store for later ``fetch``."""
    params = request.params
    session = ctx.session
    memory_type = _require_type(params)
    words = _require_int(params, "words", 16)
    bits = _require_int(params, "bits", 10)
    stack = _require_int(params, "stack", 1)
    data = brick_report_data(session, memory_type, words, bits, stack)
    fingerprint = cache_key(
        "brickreport", BrickSpec(memory_type, words, bits),
        session.tech, stack)
    artifact = ctx.store.put("brick", fingerprint, data)
    return {"artifact": artifact, "fingerprint": fingerprint,
            "data": data}


def handle_sweep(ctx: ServeContext, request: Request) -> Dict[str, Any]:
    """Run (or join) a design-space sweep; the full point table (or, in
    sharded mode, the frontier survivors) lives in the artifact store,
    the reply carries the id plus a summary.

    Shard completions stream into ``ctx.sweeps`` as they land, so a
    concurrent ``stats`` request reports ``shards_done/shards_total``
    while a long sweep is still running.
    """
    params = request.params
    session = ctx.session
    engine = _sweep_engine(session, params)
    plan = engine.plan()
    fingerprint = plan.fingerprint

    def progress(done: int, total: int, shard) -> None:
        ctx.note_sweep_progress(fingerprint, {
            "shards_done": done, "shards_total": total,
            "n_points": plan.n_points, "mode": plan.mode,
            "done": done >= total})

    ctx.note_sweep_progress(fingerprint, {
        "shards_done": 0, "shards_total": plan.n_shards,
        "n_points": plan.n_points, "mode": plan.mode, "done": False})
    scale = engine.run(keep_going=bool(params.get("keep_going",
                                                  False)),
                       progress=progress)
    result = scale.to_sweep_result()
    data = sweep_report_data(result)
    artifact = ctx.store.put("sweep", fingerprint, data)
    return {"artifact": artifact, "fingerprint": fingerprint,
            "n_points": data["n_points"],
            "n_failures": len(data["failures"]),
            "wall_clock_s": data["wall_clock_s"],
            "pareto": data["pareto"],
            "mode": scale.mode,
            "lattice_points": scale.n_points,
            "shards_done": scale.shards_done,
            "shards_total": scale.shards_total,
            "resumed_shards": scale.resumed_shards,
            "frontier_size": len(scale.frontier)}


def handle_yield(ctx: ServeContext, request: Request) -> Dict[str, Any]:
    """Monte-Carlo yield/repair analysis of one brick population."""
    from ..faults import RepairPlan, analyze_yield
    params = request.params
    session = ctx.session
    spec = BrickSpec(_require_type(params),
                     _require_int(params, "words", 16),
                     _require_int(params, "bits", 10))
    seed = params.get("seed")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int)):
        raise ServeError(f"param 'seed' must be an integer, "
                         f"got {seed!r}")
    report = analyze_yield(
        spec,
        stack=_require_int(params, "stack", 1),
        partitions=_require_int(params, "partitions", 1),
        n_bricks=_require_int(params, "population", 1000),
        plan=RepairPlan(
            spare_rows=_require_int(params, "spare_rows", 2, minimum=0),
            spare_cols=_require_int(params, "spare_cols", 1, minimum=0),
            ecc=bool(params.get("ecc", False))),
        session=session if seed is None else session.derive(seed=seed))
    data = {"render": report.render(),
            "raw_yield": report.raw_yield}
    key = coalesce_key(request, session)
    assert key is not None
    artifact = ctx.store.put("yield", key.split(":", 1)[1], data)
    return {"artifact": artifact, "raw_yield": report.raw_yield,
            "data": data}


def handle_signoff(ctx: ServeContext,
                   request: Request) -> Dict[str, Any]:
    """Monte-Carlo statistical signoff of one brick.

    Rides the coalescing path under the plan fingerprint (two clients
    asking for the same signoff share one run) and resumes from any
    chunk checkpoints already in the warm session cache.
    """
    params = request.params
    engine = _signoff_engine(ctx.session, params)
    plan = engine.plan()
    report = engine.run(
        keep_going=bool(params.get("keep_going", False)))
    data = signoff_report_data(report)
    artifact = ctx.store.put("signoff", plan.fingerprint, data)
    return {"artifact": artifact, "fingerprint": plan.fingerprint,
            "samples_used": report.samples_used,
            "early_stopped": report.early_stopped,
            "resumed_chunks": report.resumed_chunks,
            "raw_yield": report.raw_yield["rate"],
            "repaired_yield": report.repaired_yield["rate"],
            "data": data}


def handle_report(ctx: ServeContext, request: Request) -> Dict[str, Any]:
    """The daemon's run report: its accumulated trace spans plus the
    request-tagged metrics snapshot, rendered by the same
    :func:`~repro.obs.report.render_report` the CLI uses."""
    session = ctx.daemon_session
    records: List[Dict[str, Any]] = []
    if session.tracer is not None:
        records = [span_record(span) for span in
                   sorted(session.tracer.spans,
                          key=lambda s: s.span_id)]
    snapshot = session.metrics_snapshot(request_id=request.id)
    records.append({"type": "metrics", "metrics": snapshot})
    return {"render": render_report(records, title="server report"),
            "n_spans": len(records) - 1}


def handle_stats(ctx: ServeContext, request: Request) -> Dict[str, Any]:
    """Serving-layer observability: the unified metrics snapshot tagged
    with this request's id (``serve.*`` counters included), the
    artifact count, and the recent per-request log with cache hit
    ratios."""
    with ctx.lock:
        snapshot = ctx.session.metrics_snapshot(request_id=request.id)
        requests = list(ctx.request_log)
        sweeps = {fp: dict(entry) for fp, entry in ctx.sweeps.items()}
    return {
        "snapshot": snapshot,
        "artifacts": len(ctx.store),
        "requests": requests,
        "sweeps": sweeps,
    }


def handle_telemetry(ctx: ServeContext,
                     request: Request) -> Dict[str, Any]:
    """The live telemetry plane: per-type latency percentiles plus
    uptime, inflight, coalesce hit rate, cache hit rate and active
    work — everything ``repro top`` and the Prometheus renderer need,
    in one cheap (no pricing, no pickling) reply, read from the
    registry under the serve lock."""
    with ctx.lock:
        uptime = max(time.monotonic() - ctx.started, 1e-9)
        counters = {name: counter.value for name, counter in
                    dict(ctx.metrics.counters).items()}
        inflight = {name: int(gauge.value) for name, gauge in
                    dict(ctx.metrics.gauges).items()
                    if name.startswith("serve.inflight")}
        requests: Dict[str, Any] = {}
        for name, hist in sorted(dict(ctx.metrics.histograms).items()):
            if not name.startswith(LATENCY_PREFIX):
                continue
            rtype = name[len(LATENCY_PREFIX):]
            errors = counters.get(f"serve.errors.{rtype}", 0)
            requests[rtype] = {
                "count": hist.count,
                "ok": hist.count - errors,
                "errors": errors,
                "coalesced": counters.get(f"serve.coalesced.{rtype}", 0),
                "rate_per_s": hist.count / uptime,
                "mean_s": hist.mean,
                **{f"p{int(q * 100)}_s": hist.quantile(q)
                   for q in QUANTILES},
                "hist": {"count": hist.count, "total_s": hist.total},
            }
        running_sweeps = sum(1 for entry in ctx.sweeps.values()
                             if not entry.get("done"))
    inflight_types = {name[len(INFLIGHT_PREFIX):]: value
                      for name, value in sorted(inflight.items())
                      if name.startswith(INFLIGHT_PREFIX) and value > 0}
    computed = counters.get("serve.computed", 0)
    coalesced = counters.get("serve.coalesced", 0)
    return {
        "uptime_s": uptime,
        "inflight": inflight.get("serve.inflight", 0),
        "inflight_by_type": inflight_types,
        "requests": requests,
        "coalesce": {
            "computed": computed,
            "coalesced": coalesced,
            "hit_rate": (coalesced / (computed + coalesced)
                         if computed + coalesced else 0.0),
        },
        "cache": {"hit_rate": ctx.session.cache.stats.hit_rate},
        "active": {
            "artifacts": len(ctx.store),
            "signoffs": inflight_types.get("signoff", 0),
            "sweeps": max(running_sweeps,
                          inflight_types.get("sweep", 0)),
        },
    }


def handle_fetch(ctx: ServeContext, request: Request) -> Dict[str, Any]:
    """Retrieve a stored artifact by id (``KeyError`` -> ``not_found``)."""
    artifact = _require_str(request.params, "artifact")
    return {"artifact": artifact, "data": ctx.store.get(artifact)}


#: Dispatch table the server drives.  ``shutdown`` is absent on
#: purpose: the server loop intercepts it before dispatch.
HANDLERS = {
    "ping": handle_ping,
    "characterize": handle_characterize,
    "sweep": handle_sweep,
    "yield": handle_yield,
    "signoff": handle_signoff,
    "report": handle_report,
    "stats": handle_stats,
    "telemetry": handle_telemetry,
    "fetch": handle_fetch,
}


def dispatch(ctx: ServeContext, request: Request) -> Dict[str, Any]:
    """Run the handler for one request on the calling thread.

    This is the synchronous core the server ships off its event loop;
    tests call it directly to exercise handlers without a socket.

    When the daemon traces, each computing request runs against a
    *fresh* per-request tracer rooted at a ``serve:<type>`` span — a
    client-sent ``trace`` context is adopted, so the request roots
    under the client's span once stitched.  The finished request tree
    is grafted into the daemon tracer with every span tagged
    ``request_id``, which is how ``repro report --request <id>``
    filters one request out of a busy server's trace.
    """
    started = time.perf_counter()
    cache_before = ctx.cache_marks()
    base = ctx.session.tracer
    rtracer: Optional[Tracer] = None
    rspan = None
    if base is not None:
        rtracer = Tracer(source="server")
        if request.trace is not None:
            try:
                rtracer.adopt(TraceContext.from_dict(request.trace))
            except ValueError:
                pass  # malformed context: trace locally, don't fail
        rspan = rtracer.open(f"serve:{request.type}",
                             kind=KIND_REQUEST,
                             request_id=request.id)
        ctx = ctx.with_session(ctx.session.derive(tracer=rtracer))
    ok = False
    try:
        result = HANDLERS[request.type](ctx, request)
        ok = True
        return result
    finally:
        if rtracer is not None:
            rtracer.close(rspan, ok=ok)
            base.graft(rtracer.spans, request_id=request.id)
        ctx.record_request(request, time.perf_counter() - started,
                           ok=ok, cache_before=cache_before,
                           cache_after=ctx.cache_marks())
