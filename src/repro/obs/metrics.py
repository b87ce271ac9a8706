"""Metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` serves one run (the CLI builds one per
invocation and hangs it off the :class:`~repro.session.Session`).
Instrumented layers bump metrics through the registry when one is
present and skip the work entirely when it is ``None`` — exactly the
opt-in contract the tracer follows.

Metric names are dotted paths naming the owning subsystem::

    synth.pipeline.stage.<stage>          (histogram, seconds)
    characterize.<kind>.points / ns_per_point
    explore.sweep.points_evaluated / points_skipped
    explore.scale.shards_done / shards_resumed / refined_points
    signoff.chunks_done / chunks_resumed / samples / ci_width
    serve.request_s.<type>                (histogram, seconds)
    serve.requests / computed / coalesced[.<type>] / errors[.<type>]
    serve.inflight[.<type>]               (gauges)
    serve.busy_rejections
    serve.store.puts / hits / misses / evictions

The cache and executor counters are not registry names: they stay in
:class:`~repro.perf.cache.CacheStats` and the process-wide
:class:`~repro.perf.parallel.ExecutorStats`, which
:func:`collect_snapshot` folds in as the snapshot's ``cache`` and
``executor`` sections — one plain, sorted, JSON-serializable dict, the
single format the CLI renders for ``--metrics`` (and
``--cache-stats``), the ``report`` subcommand embeds in traces, and
the benchmarks write into their JSON artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Log-spaced bucket resolution of every :class:`Histogram` (the serve
#: daemon's ``serve.request_s.<type>`` latencies included).  Ten buckets
#: per decade keeps quantile error under ~12% while the whole span from
#: 100 ns to 10 000 s fits in at most ``BUCKET_MAX - BUCKET_MIN + 1``
#: integer keys — bounded memory no matter how long a daemon runs.
BUCKETS_PER_DECADE = 10
BUCKET_MIN = -7 * BUCKETS_PER_DECADE   # 1e-7 s = 100 ns
BUCKET_MAX = 4 * BUCKETS_PER_DECADE    # 1e4 s


def bucket_index(value: float) -> int:
    """Map a (seconds) observation to its log-spaced bucket key."""
    if value <= 0.0:
        return BUCKET_MIN
    index = math.floor(math.log10(value) * BUCKETS_PER_DECADE)
    return max(BUCKET_MIN, min(BUCKET_MAX, index))


def bucket_bounds(index: int) -> Tuple[float, float]:
    """Inclusive-lower / exclusive-upper bounds of a bucket key."""
    return (10.0 ** (index / BUCKETS_PER_DECADE),
            10.0 ** ((index + 1) / BUCKETS_PER_DECADE))


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """Last-written value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Streaming summary of observed values with bounded memory.

    Holds count/total/min/max plus a *sparse* dict of log-spaced
    bucket counts (:func:`bucket_index` keys) — never a raw-value
    list, so a histogram inside a long-lived daemon stays at most
    ``BUCKET_MAX - BUCKET_MIN + 1`` entries regardless of how many
    observations it absorbs.  :func:`collect_snapshot` intentionally
    does not expose the buckets (its histogram dict shape is golden
    across PRs); :meth:`quantile` is how percentiles get out.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        key = bucket_index(value)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts.

        Returns the geometric midpoint of the bucket holding the
        ``q``-th observation, clamped into the exact observed
        ``[min, max]`` range so p0/p100 are never off by a bucket.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen >= rank:
                lo, hi = bucket_bounds(key)
                mid = math.sqrt(lo * hi)
                return max(self.min or 0.0, min(self.max or mid, mid))
        return self.max if self.max is not None else 0.0


@dataclass
class MetricsRegistry:
    """Get-or-create registry of named metrics."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    gauges: Dict[str, Gauge] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]


def collect_snapshot(metrics: Optional[MetricsRegistry] = None,
                     cache_stats=None, executor_stats=None,
                     request_id: Optional[str] = None
                     ) -> Dict[str, Any]:
    """One sorted, JSON-ready dict unifying every metric source.

    ``cache_stats`` is a :class:`~repro.perf.cache.CacheStats`,
    ``executor_stats`` an
    :class:`~repro.perf.parallel.ExecutorStats`; either may be ``None``.
    Histogram entries isolate their wall clocks in dedicated fields
    (``total_s``/``mean_s``/...) so downstream consumers can strip or
    keep timings wholesale.

    ``request_id`` tags the snapshot with the serving-layer request it
    covers (the brick-library server snapshots per request), so a
    snapshot embedded in a trace or a ``stats`` reply names which
    request produced its numbers.
    """
    snapshot: Dict[str, Any] = {}
    if request_id is not None:
        snapshot["request_id"] = request_id
    if cache_stats is not None:
        snapshot["cache"] = {key: value for key, value in
                             sorted(cache_stats.as_dict().items())}
    if executor_stats is not None:
        snapshot["executor"] = {key: value for key, value in
                                sorted(executor_stats.as_dict().items())}
    if metrics is not None:
        snapshot["counters"] = {
            name: counter.value for name, counter in
            sorted(metrics.counters.items())}
        snapshot["gauges"] = {
            name: gauge.value for name, gauge in
            sorted(metrics.gauges.items())}
        snapshot["histograms"] = {
            name: {
                "count": hist.count,
                "total_s": hist.total,
                "mean_s": hist.mean,
                "min_s": hist.min if hist.min is not None else 0.0,
                "max_s": hist.max if hist.max is not None else 0.0,
            }
            for name, hist in sorted(metrics.histograms.items())}
    return snapshot


#: Sections :func:`render_snapshot` knows how to print, in order.
SECTIONS = ("cache", "executor", "counters", "gauges", "histograms")


def render_snapshot(snapshot: Dict[str, Any],
                    sections: Optional[Tuple[str, ...]] = None) -> str:
    """Human-readable rendering of a :func:`collect_snapshot` dict.

    This is the one code path behind ``--metrics`` *and* the legacy
    ``--cache-stats`` (which renders only the ``cache`` section), so
    cache, executor and stage numbers always format identically.
    """
    sections = SECTIONS if sections is None else sections
    lines: List[str] = []
    cache = snapshot.get("cache")
    if cache is not None and "cache" in sections:
        hits = cache["memory_hits"] + cache["disk_hits"]
        lines.append(
            f"cache: {hits} hits ({cache['memory_hits']} memory, "
            f"{cache['disk_hits']} disk), {cache['misses']} misses, "
            f"{cache['bytes_written']} bytes written, "
            f"{cache['bytes_read']} bytes read")
        lines.append(
            f"cache: {cache['hit_rate'] * 100:.1f}% hit rate, "
            f"{cache['puts']} puts, {cache['evictions']} evictions")
        if cache["quarantined"]:
            n = cache["quarantined"]
            lines.append(
                f"cache: {n} corrupt entr"
                f"{'y' if n == 1 else 'ies'} quarantined")
    executor = snapshot.get("executor")
    if executor is not None and "executor" in sections:
        lines.append(
            f"executor: {executor['tasks']} tasks "
            f"({executor['pool_tasks']} pooled, "
            f"{executor['serial_tasks']} serial), "
            f"{executor['retried_tasks']} retried, "
            f"{executor['timeouts']} timeouts")
        lines.append(
            f"executor: {executor['pool_restarts']} pool restarts, "
            f"{executor['failures']} terminal failures")
    counters = snapshot.get("counters")
    if counters and "counters" in sections:
        for name, value in counters.items():
            lines.append(f"counter: {name} = {value}")
    gauges = snapshot.get("gauges")
    if gauges and "gauges" in sections:
        for name, value in gauges.items():
            lines.append(f"gauge: {name} = {value:g}")
    histograms = snapshot.get("histograms")
    if histograms and "histograms" in sections:
        for name, hist in histograms.items():
            lines.append(
                f"timing: {name} n={hist['count']} "
                f"total={hist['total_s'] * 1e3:.2f}ms "
                f"mean={hist['mean_s'] * 1e3:.2f}ms "
                f"max={hist['max_s'] * 1e3:.2f}ms")
    return "\n".join(lines)
