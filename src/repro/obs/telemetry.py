"""Live telemetry plane for the serve daemon: ops log and renderers.

Long-lived servers need observability that batch runs don't: latency
*percentiles* per request type (a mean hides the tail), uptime and
inflight gauges, a scrape-able text format, and an ops log that can't
fill the disk.  The numbers themselves live in the daemon session's
:class:`~repro.obs.metrics.MetricsRegistry` (``serve.*`` names, see
:class:`~repro.serve.handlers.ServeContext`), whose bounded log-bucket
:class:`~repro.obs.metrics.Histogram` gives the quantiles; the
``telemetry`` protocol verb reads them into one reply.  This module
is what surrounds that reply:

:class:`OpsLog`
    Rolling JSONL operations log with size-based rotation
    (``path`` -> ``path.1`` -> ... -> dropped).
:func:`render_prometheus`
    Prometheus text exposition of a telemetry reply
    (``repro client telemetry --prom``).
:func:`render_dashboard`
    The one-screen ``repro top`` view: request rates, p50/p95/p99,
    cache hit ratio, active sweeps/signoffs.

Everything here is pure stdlib and side-effect free except
:class:`OpsLog`; the serve layer owns the wiring.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Quantiles every telemetry reply and renderer reports, in order.
QUANTILES = (0.5, 0.95, 0.99)


@dataclass
class OpsLog:
    """Append-only JSONL ops log with size-based rotation.

    When the active file would exceed ``max_bytes`` the files shift
    ``path`` -> ``path.1`` -> ... -> ``path.<backups>`` and the oldest
    drops — a daemon can log every request forever in bounded disk.
    Thread-safe; each record lands as one ``\\n``-terminated line.
    """

    path: str
    max_bytes: int = 1_000_000
    backups: int = 3
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = 0
            if size and size + len(data) > self.max_bytes:
                self._rotate()
            with open(self.path, "ab") as handle:
                handle.write(data)

    def _rotate(self) -> None:
        oldest = f"{self.path}.{self.backups}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.backups - 1, 0, -1):
            src = f"{self.path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index + 1}")
        if self.backups >= 1 and os.path.exists(self.path):
            os.replace(self.path, f"{self.path}.1")


def render_prometheus(reply: Dict[str, Any]) -> str:
    """Prometheus text exposition (v0.0.4) of a ``telemetry`` reply.

    Latency histograms render as native prometheus summaries
    (quantile-labelled gauges + ``_sum``/``_count``) — the buckets are
    log-spaced and non-cumulative, so a summary is the honest mapping.
    """
    lines: List[str] = []

    def metric(name: str, kind: str, help_text: str,
               samples: List[str]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    metric("repro_uptime_seconds", "gauge", "Daemon uptime.",
           [f"repro_uptime_seconds {reply.get('uptime_s', 0.0):.6f}"])
    metric("repro_inflight_requests", "gauge",
           "Requests currently executing.",
           [f"repro_inflight_requests {reply.get('inflight', 0)}"])
    requests = reply.get("requests", {})
    totals = []
    for rtype in sorted(requests):
        entry = requests[rtype]
        for outcome in ("ok", "errors"):
            totals.append(
                f'repro_requests_total{{type="{rtype}",'
                f'outcome="{outcome}"}} {entry.get(outcome, 0)}')
    metric("repro_requests_total", "counter",
           "Requests served, by type and outcome.", totals)
    latency = []
    for rtype in sorted(requests):
        entry = requests[rtype]
        for q in QUANTILES:
            latency.append(
                f'repro_request_latency_seconds{{type="{rtype}",'
                f'quantile="{q}"}} '
                f"{entry.get(f'p{int(q * 100)}_s', 0.0):.6f}")
        hist = entry.get("hist", {})
        latency.append(
            f'repro_request_latency_seconds_sum{{type="{rtype}"}} '
            f"{hist.get('total_s', 0.0):.6f}")
        latency.append(
            f'repro_request_latency_seconds_count{{type="{rtype}"}} '
            f"{hist.get('count', 0)}")
    metric("repro_request_latency_seconds", "summary",
           "Request latency quantiles, by type.", latency)
    coalesce = reply.get("coalesce") or {}
    metric("repro_coalesce_hit_ratio", "gauge",
           "Share of coalesceable requests served from in-flight "
           "computations.",
           [f"repro_coalesce_hit_ratio "
            f"{coalesce.get('hit_rate', 0.0):.6f}"])
    cache = reply.get("cache") or {}
    metric("repro_cache_hit_ratio", "gauge",
           "Characterization cache hit ratio.",
           [f"repro_cache_hit_ratio {cache.get('hit_rate', 0.0):.6f}"])
    active = reply.get("active") or {}
    metric("repro_active_artifacts", "gauge",
           "Artifacts retained, by kind.",
           [f'repro_active_artifacts{{kind="{kind}"}} '
            f"{active[kind]}" for kind in sorted(active)])
    return "\n".join(lines) + "\n"


def _fmt_ms(seconds: float) -> str:
    ms = seconds * 1e3
    if ms >= 1000:
        return f"{ms / 1e3:.2f}s"
    return f"{ms:.1f}ms" if ms >= 0.1 else f"{ms * 1e3:.0f}us"


def render_dashboard(reply: Dict[str, Any],
                     prev: Optional[Dict[str, Any]] = None,
                     interval_s: float = 2.0) -> str:
    """One refresh of the ``repro top`` screen (pure text, no cursor).

    ``prev`` is the previous poll's reply; when present, per-type
    request rates are the *delta* over ``interval_s`` (what's moving
    now) instead of the lifetime average.
    """
    uptime = reply.get("uptime_s", 0.0)
    coalesce = reply.get("coalesce") or {}
    cache = reply.get("cache") or {}
    active = reply.get("active") or {}
    lines = [
        "repro top — serve daemon telemetry",
        (f"uptime {uptime:8.1f}s   inflight {reply.get('inflight', 0)}"
         f"   coalesce hit {coalesce.get('hit_rate', 0.0) * 100:5.1f}%"
         f"   cache hit {cache.get('hit_rate', 0.0) * 100:5.1f}%"),
    ]
    if active:
        lines.append("active: " + "  ".join(
            f"{kind}={active[kind]}" for kind in sorted(active)))
    lines.append("")
    header = (f"{'type':<13} {'count':>8} {'rate/s':>9} {'p50':>8}"
              f" {'p95':>8} {'p99':>8} {'mean':>8} {'err':>5}")
    lines.append(header)
    lines.append("-" * len(header))
    requests = reply.get("requests", {})
    prev_requests = (prev or {}).get("requests", {})
    for rtype in sorted(requests):
        entry = requests[rtype]
        count = entry.get("count", 0)
        prev_count = prev_requests.get(rtype, {}).get("count")
        if prev_count is not None and interval_s > 0:
            rate = max(0, count - prev_count) / interval_s
        else:
            rate = entry.get("rate_per_s", 0.0)
        rate_text = f"{rate:.2f}" if rate < 1e4 else f"{rate:.3g}"
        lines.append(
            f"{rtype:<13} {count:>8} {rate_text:>9}"
            f" {_fmt_ms(entry.get('p50_s', 0.0)):>8}"
            f" {_fmt_ms(entry.get('p95_s', 0.0)):>8}"
            f" {_fmt_ms(entry.get('p99_s', 0.0)):>8}"
            f" {_fmt_ms(entry.get('mean_s', 0.0)):>8}"
            f" {entry.get('errors', 0):>5}")
    if not requests:
        lines.append("(no requests served yet)")
    return "\n".join(lines)
