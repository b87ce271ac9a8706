"""Observability subsystem: tracing, metrics, exporters, run reports.

The measurement substrate behind every performance claim in the repo:

``repro.obs.trace``
    :class:`Tracer` — hierarchical spans (deterministic ids, wall
    clocks isolated in dedicated fields) opened around pipeline stages,
    characterization batches, parallel task groups, cache probes, sweep
    points, yield phases and die measurements; closed spans feed the
    session event-sink protocol as :class:`SpanEvent` records.
``repro.obs.metrics``
    :class:`MetricsRegistry` — counters/gauges/histograms plus
    :func:`collect_snapshot`, the one dict unifying registry, cache and
    executor statistics, and :func:`render_snapshot`, the one renderer
    behind ``--metrics`` and ``--cache-stats``.
``repro.obs.export``
    JSONL span logs (deterministic after :func:`strip_timing` — the CI
    byte-identity diff) and Perfetto-loadable Chrome trace JSON.
``repro.obs.report``
    :func:`render_report` — the per-stage time table (percentages),
    cache hit ratio and executor retry summary of ``repro report``.
``repro.obs.profile``
    :func:`maybe_profile` — opt-in cProfile capture per pipeline stage
    (``--profile-out DIR``).
``repro.obs.telemetry``
    The serve daemon's live plane around its ``telemetry`` reply (whose
    numbers live in the session registry): a Prometheus text renderer,
    a rotating JSONL ops log, and the ``repro top`` dashboard renderer.
"""

from .export import (
    TIMING_FIELDS,
    chrome_trace,
    read_trace_jsonl,
    span_record,
    stitch_traces,
    stitched_chrome_trace,
    stitched_lines,
    strip_timing,
    trace_lines,
    trace_source,
    write_chrome_trace,
    write_trace_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_snapshot,
    render_snapshot,
)
from .profile import maybe_profile
from .report import render_report, stage_breakdown
from .telemetry import OpsLog, render_dashboard, render_prometheus
from .trace import (
    KIND_REQUEST,
    KIND_TASK,
    Span,
    SpanEvent,
    TraceContext,
    Tracer,
    maybe_span,
    mint_trace_id,
)

__all__ = [
    "Span", "SpanEvent", "Tracer", "maybe_span",
    "TraceContext", "mint_trace_id", "KIND_REQUEST", "KIND_TASK",
    "OpsLog",
    "render_dashboard", "render_prometheus",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "collect_snapshot", "render_snapshot",
    "TIMING_FIELDS", "chrome_trace", "read_trace_jsonl", "span_record",
    "stitch_traces", "stitched_chrome_trace", "stitched_lines",
    "strip_timing", "trace_lines", "trace_source",
    "write_chrome_trace", "write_trace_jsonl",
    "maybe_profile",
    "render_report", "stage_breakdown",
]
