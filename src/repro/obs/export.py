"""Trace exporters: JSONL span logs and Chrome trace-event JSON.

The JSONL format is the repo's durable trace artifact: one JSON object
per line, ``{"type": "span", ...}`` records in span-id order followed
by an optional ``{"type": "metrics", ...}`` record carrying the run's
metrics snapshot.  Keys are sorted and floats emitted by ``json`` so a
record is a pure function of its values — combined with the tracer's
deterministic ids, two runs at the same seed differ *only* in the
``t_start_s``/``dur_s`` fields, which :func:`strip_timing` removes for
byte-identical CI diffs.

The Chrome trace-event export produces the ``traceEvents`` JSON that
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
directly: complete events (``"ph": "X"``) with microsecond timestamps,
one row per span, span kinds as categories.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ReproError
from .trace import Span

#: Fields that carry wall clocks — the only run-to-run nondeterminism.
TIMING_FIELDS = ("t_start_s", "dur_s")


def span_record(span: Span) -> Dict[str, Any]:
    """The JSONL dict for one closed span.

    The cross-process linkage fields (``trace_id``,
    ``remote_parent``) are emitted only when set — purely local
    traces keep their historical byte-exact shape.
    """
    record = {
        "type": "span",
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "attrs": span.attrs,
        "t_start_s": span.t_start_s,
        "dur_s": span.dur_s if span.dur_s is not None else 0.0,
        "ok": span.ok,
        "error": span.error,
    }
    if span.trace_id is not None:
        record["trace_id"] = span.trace_id
    if span.remote_parent is not None:
        record["remote_parent"] = span.remote_parent
    return record


def _is_timing_gauge(name: str) -> bool:
    """Gauge names whose value is wall-clock-derived, by convention:
    the last dotted component is ``ns_*`` / ``*_ns`` / ``*_s`` (e.g.
    ``characterize.estimate.ns_per_point``)."""
    leaf = name.rsplit(".", 1)[-1]
    return (leaf.startswith("ns_") or leaf.endswith("_ns")
            or leaf.endswith("_s"))


def strip_timing(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` with every wall-clock field removed.

    Span records lose :data:`TIMING_FIELDS`; a metrics record loses its
    histogram timing fields and timing-valued gauges (counts are kept —
    they are deterministic).
    """
    stripped = {key: value for key, value in record.items()
                if key not in TIMING_FIELDS}
    if record.get("type") == "metrics":
        metrics = stripped.get("metrics", {})
        histograms = metrics.get("histograms")
        timing_gauges = [name for name in metrics.get("gauges", {})
                         if _is_timing_gauge(name)]
        if histograms or timing_gauges:
            stripped = json.loads(json.dumps(stripped))  # deep copy
            for hist in stripped["metrics"].get("histograms",
                                                {}).values():
                for key in [k for k in hist if k.endswith("_s")]:
                    del hist[key]
            for name in timing_gauges:
                del stripped["metrics"]["gauges"][name]
    return stripped


def trace_lines(spans: Sequence[Span],
                metrics: Optional[Dict[str, Any]] = None,
                strip: bool = False,
                source: Optional[str] = None) -> List[str]:
    """The JSONL lines for a trace, in deterministic order.

    ``source`` (e.g. ``"client"``/``"server"``) prepends a
    ``trace_meta`` header record naming the process that produced the
    trace — :func:`stitch_traces` reads it back so merged traces keep
    their global ``source:span_id`` references without the caller
    re-stating which file came from where.
    """
    records: List[Dict[str, Any]] = []
    if source is not None:
        records.append({"type": "trace_meta", "source": source})
    records.extend(span_record(span) for span in
                   sorted(spans, key=lambda s: s.span_id))
    if metrics is not None:
        records.append({"type": "metrics", "metrics": metrics})
    if strip:
        records = [strip_timing(record) for record in records]
    return [json.dumps(record, sort_keys=True) for record in records]


def write_trace_jsonl(spans: Sequence[Span], path: str,
                      metrics: Optional[Dict[str, Any]] = None,
                      source: Optional[str] = None) -> str:
    """Write the JSONL span log (plus optional metrics record)."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in trace_lines(spans, metrics=metrics, source=source):
            handle.write(line + "\n")
    return path


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into records, validating the span tree.

    Every span record must carry a unique ``span_id`` and reference an
    existing parent; violations raise :class:`~repro.errors.ReproError`
    so a truncated or hand-edited trace fails loudly.
    """
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ReproError(
                        f"{path}:{lineno}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise ReproError(f"cannot read trace {path!r}: {exc}") from exc
    ids = set()
    for record in records:
        if record.get("type") != "span":
            continue
        span_id = record.get("span_id")
        if span_id in ids:
            raise ReproError(
                f"{path}: duplicate span id {span_id}")
        ids.add(span_id)
    for record in records:
        if record.get("type") != "span":
            continue
        parent = record.get("parent_id")
        if parent is not None and parent not in ids:
            raise ReproError(
                f"{path}: span {record['span_id']} references "
                f"unknown parent {parent}")
    return records


def chrome_trace(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event JSON from parsed span records.

    Viewable in Perfetto or ``chrome://tracing``; spans become complete
    ("X") events on one process/thread track with kinds as categories.
    """
    events: List[Dict[str, Any]] = []
    for record in records:
        if record.get("type") != "span":
            continue
        args = dict(record.get("attrs") or {})
        args["span_id"] = record["span_id"]
        if record.get("parent_id") is not None:
            args["parent_id"] = record["parent_id"]
        if record.get("error"):
            args["error"] = record["error"]
        events.append({
            "name": record["name"],
            "cat": record.get("kind", "span"),
            "ph": "X",
            "ts": record.get("t_start_s", 0.0) * 1e6,
            "dur": (record.get("dur_s") or 0.0) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Sequence[Dict[str, Any]],
                       path: str) -> str:
    """Write the Perfetto-loadable Chrome trace JSON for ``records``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(records), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    return path


# --- cross-process stitching ----------------------------------------------


def trace_source(records: Sequence[Dict[str, Any]]) -> Optional[str]:
    """The ``trace_meta`` source of a parsed trace, if it has one."""
    for record in records:
        if record.get("type") == "trace_meta":
            source = record.get("source")
            if isinstance(source, str) and source:
                return source
    return None


def stitch_traces(traces: Sequence[Any]) -> List[Dict[str, Any]]:
    """Merge per-process traces into one globally-referenced span list.

    ``traces`` is a sequence of ``(source, records)`` pairs (records as
    :func:`read_trace_jsonl` returns them).  Each span's local integer
    id becomes the global ``"<source>:<span_id>"`` reference; a span
    whose ``remote_parent`` names a span in *another* trace is
    re-parented under it — this is where a server request tree hangs
    under the client span that issued it (even when the daemon also
    attached it under a local span for its own report), and why the
    whole thing becomes one tree.  A ``remote_parent`` that resolves
    to no known span (a trace is missing from the merge) falls back
    to the local parent, or a root, rather than failing.  Effective ``trace_id`` is inherited down the
    stitched tree, so every span of one request carries the request's
    trace id.  Output order is deterministic: input order of the
    traces, span-id order within each — byte-identical across runs
    once :func:`strip_timing` removes the wall clocks.
    """
    known = set()
    for source, records in traces:
        for record in records:
            if record.get("type") == "span":
                known.add(f"{source}:{record['span_id']}")
    stitched: List[Dict[str, Any]] = []
    by_id: Dict[str, Dict[str, Any]] = {}
    for source, records in traces:
        spans = sorted((r for r in records if r.get("type") == "span"),
                       key=lambda r: r["span_id"])
        for record in spans:
            gid = f"{source}:{record['span_id']}"
            remote = record.get("remote_parent")
            if remote in known:
                parent: Optional[str] = remote
            elif record.get("parent_id") is not None:
                parent = f"{source}:{record['parent_id']}"
            else:
                parent = None
            out: Dict[str, Any] = {
                "type": "span",
                "id": gid,
                "parent": parent,
                "source": source,
                "name": record["name"],
                "kind": record.get("kind", "span"),
                "attrs": record.get("attrs") or {},
                "t_start_s": record.get("t_start_s", 0.0),
                "dur_s": record.get("dur_s", 0.0),
                "ok": record.get("ok", True),
                "error": record.get("error"),
            }
            if record.get("trace_id") is not None:
                out["trace_id"] = record["trace_id"]
            stitched.append(out)
            by_id[gid] = out
    for out in stitched:
        if "trace_id" in out:
            continue
        chain = []
        node: Optional[Dict[str, Any]] = out
        trace_id = None
        while node is not None:
            if "trace_id" in node:
                trace_id = node["trace_id"]
                break
            chain.append(node)
            parent = node.get("parent")
            node = by_id.get(parent) if parent is not None else None
        if trace_id is not None:
            for entry in chain:
                entry["trace_id"] = trace_id
    return stitched


def stitched_lines(stitched: Sequence[Dict[str, Any]],
                   strip: bool = False) -> List[str]:
    """JSONL lines for a stitched trace (``strip`` removes wall
    clocks — the CI byte-identity form)."""
    records = ([strip_timing(record) for record in stitched]
               if strip else list(stitched))
    return [json.dumps(record, sort_keys=True) for record in records]


def stitched_chrome_trace(
        stitched: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event JSON for a stitched multi-process trace.

    Each source becomes its own pid (named via ``process_name``
    metadata); timestamps are normalized per source (every process's
    first span starts at 0) because ``perf_counter`` epochs are not
    comparable across processes.
    """
    sources: List[str] = []
    for record in stitched:
        if record["source"] not in sources:
            sources.append(record["source"])
    pids = {source: index + 1 for index, source in enumerate(sources)}
    epochs = {
        source: min((r["t_start_s"] for r in stitched
                     if r["source"] == source), default=0.0)
        for source in sources}
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pids[source],
         "tid": 0, "args": {"name": source}}
        for source in sources]
    for record in stitched:
        args = dict(record.get("attrs") or {})
        args["id"] = record["id"]
        if record.get("parent") is not None:
            args["parent"] = record["parent"]
        if record.get("trace_id") is not None:
            args["trace_id"] = record["trace_id"]
        if record.get("error"):
            args["error"] = record["error"]
        events.append({
            "name": record["name"],
            "cat": record.get("kind", "span"),
            "ph": "X",
            "ts": (record["t_start_s"]
                   - epochs[record["source"]]) * 1e6,
            "dur": (record.get("dur_s") or 0.0) * 1e6,
            "pid": pids[record["source"]],
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
