"""Distributed tracing + live telemetry plane (repro.obs, repro.serve).

Covers the cross-process trace machinery (context minting/adoption,
grafting, worker-span absorption, stitching) and the serve daemon's
telemetry plane (bounded log-bucket histograms, the ``telemetry``
verb read from the session registry, the Prometheus/dashboard
renderers, the rotating ops log), including N concurrent clients
hammering a live daemon while the telemetry verb is polled.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time

import pytest

from repro import cli
from repro.errors import ServeError
from repro.obs.export import (
    read_trace_jsonl,
    stitch_traces,
    stitched_chrome_trace,
    stitched_lines,
    trace_lines,
    trace_source,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    BUCKET_MAX,
    BUCKET_MIN,
    Histogram,
    bucket_bounds,
    bucket_index,
)
from repro.obs.telemetry import OpsLog, render_dashboard, render_prometheus
from repro.obs.trace import TraceContext, Tracer, mint_trace_id
from repro.perf.cache import CharacterizationCache
from repro.perf.parallel import TraceTap, parallel_map
from repro.serve import BrickServer, Request, ServeClient, ServeContext
from repro.serve.handlers import (
    LATENCY_PREFIX,
    handle_stats,
    handle_telemetry,
)
from repro.session import Session
from repro.tech import cmos65


# --- log-bucket histograms -------------------------------------------------


class TestLogBuckets:
    def test_bucket_index_monotone_and_clamped(self):
        values = [1e-9, 1e-6, 1e-3, 0.5, 1.0, 60.0, 1e6]
        indexes = [bucket_index(v) for v in values]
        assert indexes == sorted(indexes)
        assert indexes[0] == BUCKET_MIN
        assert indexes[-1] == BUCKET_MAX
        assert bucket_index(0.0) == BUCKET_MIN
        assert bucket_index(-1.0) == BUCKET_MIN

    def test_bucket_bounds_contain_value(self):
        for value in (3e-6, 0.004, 0.7, 12.5):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo <= value * 1.0000001 and value <= hi * 1.0000001

    def test_memory_stays_bounded(self):
        hist = Histogram(name="t")
        for i in range(100_000):
            hist.observe((i % 977 + 1) * 1e-5)
        assert hist.count == 100_000
        # ~10 buckets per decade over 11 decades, hard-capped.
        assert len(hist.buckets) <= BUCKET_MAX - BUCKET_MIN + 1

    def test_quantiles_ordered_and_within_range(self):
        hist = Histogram(name="t")
        for i in range(1, 1001):
            hist.observe(i * 1e-4)  # 0.1ms .. 100ms
        p50, p95, p99 = (hist.quantile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        assert hist.min <= p50 and p99 <= hist.max
        # Log buckets are ~26% wide: p50 of a uniform ramp lands near
        # the middle, not at an extreme.
        assert 0.03 <= p50 <= 0.07

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram(name="t").quantile(0.99) == 0.0

def _context():
    return ServeContext(Session(cmos65(), jobs=1,
                                cache=CharacterizationCache()))


def _record(ctx, rtype, dur_s, **outcome):
    outcome.setdefault("ok", True)
    ctx.record_request(Request(id="r", type=rtype), dur_s, **outcome)


def _telemetry(ctx):
    return handle_telemetry(ctx, Request(id="t", type="telemetry"))


class TestTelemetry:
    """The ``telemetry`` reply, read from the session registry."""

    def test_snapshot_counts_and_quantiles(self):
        ctx = _context()
        for _ in range(10):
            _record(ctx, "sweep", 0.01)
        _record(ctx, "sweep", 0.5, ok=False)
        _record(ctx, "sweep", 1e-4, coalesced=True)
        snap = _telemetry(ctx)
        sweep = snap["requests"]["sweep"]
        assert sweep["count"] == sweep["hist"]["count"] == 12
        assert sweep["ok"] == 11 and sweep["errors"] == 1
        assert sweep["coalesced"] == 1
        assert sweep["p50_s"] <= sweep["p95_s"] <= sweep["p99_s"]
        assert sweep["hist"]["total_s"] == pytest.approx(0.6001)
        assert snap["coalesce"] == {"computed": 11, "coalesced": 1,
                                    "hit_rate": 1 / 12}
        assert snap["uptime_s"] > 0

    def test_inflight_tracks_begin_end(self):
        ctx = _context()
        for rtype in ("sweep", "sweep", "ping"):
            ctx.track_inflight(rtype, +1)
        snap = _telemetry(ctx)
        assert snap["inflight"] == 3
        assert snap["inflight_by_type"] == {"ping": 1, "sweep": 2}
        assert snap["active"]["sweeps"] == 2
        for rtype in ("sweep", "sweep", "ping"):
            ctx.track_inflight(rtype, -1)
        snap = _telemetry(ctx)
        assert snap["inflight"] == 0
        assert snap["inflight_by_type"] == {}

    def test_snapshot_is_json_serializable(self):
        ctx = _context()
        _record(ctx, "signoff", 0.2)
        json.dumps(_telemetry(ctx))

    def test_concurrent_record_request_counts_exact(self):
        """8 threads x 500 recorded requests over 3 types: the serve
        lock keeps every per-type count and the total exact."""
        ctx = _context()
        types = ("sweep", "characterize", "fetch")
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)

        def outcome(i):
            rtype = types[i % len(types)]
            return rtype, i % 7 != 0, rtype != "fetch" and i % 4 == 0

        def worker(index):
            barrier.wait()
            for i in range(per_thread):
                rtype, ok, coalesced = outcome(i)
                ctx.record_request(Request(id=f"w{index}.{i}",
                                           type=rtype),
                                   1e-3, ok=ok, coalesced=coalesced)

        torn = []
        done = threading.Event()

        def reader():
            # Each record lands whole: no snapshot sees a request in
            # its type's histogram but not yet in the total.
            while not done.is_set():
                snap = handle_stats(
                    ctx, Request(id="s", type="stats"))["snapshot"]
                total = snap["counters"].get("serve.requests", 0)
                counted = sum(hist["count"] for name, hist in
                              snap["histograms"].items()
                              if name.startswith(LATENCY_PREFIX))
                if counted != total:
                    torn.append((counted, total))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        poll = threading.Thread(target=reader)
        # A tiny switch interval makes a torn or lost update under a
        # missing lock likely instead of rare.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            poll.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            done.set()
            poll.join(60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [poll])
        assert not torn, torn[:5]
        expected = {rtype: [0, 0, 0] for rtype in types}
        for i in range(per_thread):
            rtype, ok, coalesced = outcome(i)
            expected[rtype][0] += n_threads
            expected[rtype][1] += n_threads * (not ok)
            expected[rtype][2] += n_threads * coalesced
        snap = _telemetry(ctx)
        assert {rtype: [entry["count"], entry["errors"],
                        entry["coalesced"]]
                for rtype, entry in snap["requests"].items()} == expected
        for rtype in types:
            hist = ctx.metrics.histograms[LATENCY_PREFIX + rtype]
            assert sum(hist.buckets.values()) == expected[rtype][0]
        counters = ctx.metrics.counters
        assert counters["serve.requests"].value == n_threads * per_thread
        computed = counters["serve.computed"].value
        coalesced = counters["serve.coalesced"].value
        assert computed + coalesced == \
            expected["sweep"][0] + expected["characterize"][0]
        assert snap["coalesce"]["hit_rate"] == \
            coalesced / (computed + coalesced)


    def test_sweep_progress_safe_under_concurrent_reads(self):
        """Sweeps report progress from their compute threads while
        ``stats``/``telemetry`` iterate the same table, and the table
        evicts past its cap: neither side may raise."""
        ctx = _context()
        errors = []
        done = threading.Event()

        def writer(index):
            step = 0
            try:
                while not done.is_set():
                    ctx.note_sweep_progress(f"w{index}.{step}",
                                            {"done": step % 2 == 0})
                    step += 1
            except RuntimeError as exc:
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(i,))
                   for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in writers:
                t.start()
            for _ in range(1000):
                try:
                    handle_telemetry(ctx, Request(id="t",
                                                  type="telemetry"))
                    handle_stats(ctx, Request(id="s", type="stats"))
                except RuntimeError as exc:
                    errors.append(exc)
        finally:
            done.set()
            for t in writers:
                t.join(60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers)
        assert not errors, errors[:2]
        assert len(ctx.sweeps) <= 64


class TestOpsLog:
    def test_rotation_bounds_disk(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        log = OpsLog(str(path), max_bytes=500, backups=2)
        for i in range(100):
            log.write({"id": f"c{i}", "type": "ping"})
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["ops.jsonl", "ops.jsonl.1", "ops.jsonl.2"]
        for name in files:
            assert (tmp_path / name).stat().st_size <= 500 + 80
        # Newest record is in the active file, valid JSONL.
        lines = (tmp_path / "ops.jsonl").read_text().splitlines()
        assert json.loads(lines[-1])["id"] == "c99"


class TestRenderers:
    def _reply(self):
        ctx = _context()
        _record(ctx, "sweep", 0.01)
        _record(ctx, "ping", 1e-4, ok=False)
        reply = _telemetry(ctx)
        reply["coalesce"] = {"hit_rate": 0.25}
        reply["cache"] = {"hit_rate": 0.8}
        reply["active"] = {"artifacts": 3, "sweeps": 1, "signoffs": 0}
        return reply

    def test_prometheus_exposition(self):
        text = render_prometheus(self._reply())
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_requests_total{type="sweep",outcome="ok"} 1' \
            in text
        assert 'repro_requests_total{type="ping",outcome="errors"} 1' \
            in text
        assert 'quantile="0.95"' in text
        assert "repro_cache_hit_ratio 0.800000" in text
        assert 'repro_active_artifacts{kind="artifacts"} 3' in text
        assert text.endswith("\n")

    def test_dashboard_lifetime_and_delta_rates(self):
        reply = self._reply()
        screen = render_dashboard(reply)
        assert "repro top" in screen
        assert "sweep" in screen and "p95" in screen
        assert "cache hit  80.0%" in screen
        # Second poll with no new requests: delta rate is zero.
        screen = render_dashboard(reply, prev=reply, interval_s=2.0)
        sweep_row = [line for line in screen.splitlines()
                     if line.startswith("sweep")][0]
        assert " 0.00 " in sweep_row

    def test_dashboard_empty(self):
        assert "(no requests served yet)" in render_dashboard(
            {"uptime_s": 1.0, "inflight": 0, "requests": {}})


# --- trace context, grafting, stitching ------------------------------------


class TestTraceContext:
    def test_mint_is_deterministic(self):
        assert mint_trace_id("client", 2) == mint_trace_id("client", 2)
        assert mint_trace_id("client", 2) != mint_trace_id("client", 3)
        assert len(mint_trace_id("x")) == 16

    def test_context_roundtrip_and_validation(self):
        ctx = TraceContext(trace_id="ab" * 8, parent="client:2")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx
        with pytest.raises(ValueError):
            TraceContext.from_dict({"trace_id": 7, "parent": "x:1"})

    def test_task_context_stamps_originating_span(self):
        tracer = Tracer(source="client")
        span = tracer.open("request:sweep")
        ctx = tracer.task_context(span)
        assert span.trace_id == ctx.trace_id
        assert ctx.parent == f"client:{span.span_id}"
        tracer.close(span)

    def test_adopting_tracer_roots_carry_remote_linkage(self):
        client = Tracer(source="client")
        cspan = client.open("request:sweep")
        server = Tracer(source="server")
        server.adopt(client.task_context(cspan))
        root = server.open("serve:sweep")
        child = server.open("work")
        server.close(child)
        server.close(root)
        client.close(cspan)
        assert root.trace_id == cspan.trace_id
        assert root.remote_parent == f"client:{cspan.span_id}"
        assert child.trace_id is None and child.remote_parent is None

    def test_graft_preserves_topology_and_tags_request(self):
        worker = Tracer(source="worker")
        a = worker.open("task:outer")
        b = worker.open("inner")
        worker.close(b)
        worker.close(a)
        local = Tracer()
        parent = local.open("parallel_map")
        grafted = local.graft(worker.spans, request_id="c7",
                              keep_remote=False)
        local.close(parent)
        by_name = {s.name: s for s in grafted}
        assert by_name["task:outer"].parent_id == parent.span_id
        assert by_name["inner"].parent_id == \
            by_name["task:outer"].span_id
        assert all(s.attrs["request_id"] == "c7" for s in grafted)
        assert all(s.remote_parent is None for s in grafted)
        # Ids keep the parent-before-child invariant.
        assert by_name["task:outer"].span_id < by_name["inner"].span_id

    def test_stitch_reparents_across_processes(self):
        client = Tracer(source="client")
        cspan = client.open("request:sweep")
        server = Tracer(source="server")
        server.adopt(client.task_context(cspan))
        root = server.open("serve:sweep")
        server.close(root)
        client.close(cspan)
        stitched = stitch_traces([
            ("client", [json.loads(line) for line in
                        trace_lines(client.spans)]),
            ("server", [json.loads(line) for line in
                        trace_lines(server.spans)]),
        ])
        by_id = {r["id"]: r for r in stitched}
        assert by_id["server:1"]["parent"] == "client:1"
        assert by_id["server:1"]["trace_id"] == \
            by_id["client:1"]["trace_id"]

    def test_stitch_missing_trace_degrades_to_root(self):
        server = Tracer(source="server")
        server.adopt(TraceContext(trace_id="f" * 16,
                                  parent="client:9"))
        root = server.open("serve:ping")
        server.close(root)
        records = [json.loads(line) for line in
                   trace_lines(server.spans)]
        stitched = stitch_traces([("server", records)])
        assert stitched[0]["parent"] is None

    def test_stitched_lines_stripped_are_deterministic(self):
        def run():
            client = Tracer(source="client")
            span = client.open("request:ping")
            client.close(span)
            return stitched_lines(stitch_traces(
                [("client", [json.loads(line) for line in
                             trace_lines(client.spans)])]), strip=True)
        assert run() == run()
        assert "t_start_s" not in run()[0]

    def test_stitched_chrome_trace_one_pid_per_source(self):
        stitched = [
            {"type": "span", "id": "client:1", "parent": None,
             "source": "client", "name": "a", "kind": "span",
             "attrs": {}, "t_start_s": 5.0, "dur_s": 1.0,
             "ok": True, "error": None},
            {"type": "span", "id": "server:1", "parent": "client:1",
             "source": "server", "name": "b", "kind": "span",
             "attrs": {}, "t_start_s": 900.0, "dur_s": 0.5,
             "ok": True, "error": None, "trace_id": "a" * 16},
        ]
        doc = stitched_chrome_trace(stitched)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == \
            {"client", "server"}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {1, 2}
        # Per-source epoch normalization: both start at ts 0.
        assert all(e["ts"] == 0.0 for e in spans)

    def test_trace_meta_header_roundtrips_source(self, tmp_path):
        tracer = Tracer(source="client")
        span = tracer.open("x")
        tracer.close(span)
        path = str(tmp_path / "t.jsonl")
        write_trace_jsonl(tracer.spans, path, source="client")
        records = read_trace_jsonl(path)
        assert trace_source(records) == "client"


class TestTraceTap:
    def test_parallel_map_absorbs_worker_spans(self):
        tracer = Tracer()
        group = tracer.open("parallel_map")
        tap = TraceTap.for_span(tracer, group)
        results = parallel_map(_double, [1, 2, 3], jobs=1, trace=tap)
        tracer.close(group)
        assert results == [2, 4, 6]
        tasks = [s for s in tracer.spans if s.kind == "task"]
        assert len(tasks) == 3
        assert all(s.name == "task:_double" for s in tasks)
        assert all(s.parent_id == group.span_id for s in tasks)
        assert all(s.remote_parent is None for s in tasks)

    def test_pooled_spans_graft_in_task_order(self):
        # Task 0 sleeps in its worker, so it completes last; its span
        # must still be grafted first.
        tracer = Tracer()
        group = tracer.open("parallel_map")
        tap = TraceTap.for_span(tracer, group)
        results = parallel_map(_double_slow_first, [0, 1, 2, 3], jobs=2,
                               trace=tap)
        tracer.close(group)
        assert results == [0, 2, 4, 6]
        tasks = sorted((s for s in tracer.spans if s.kind == "task"),
                       key=lambda s: s.span_id)
        assert [s.name for s in tasks] == ["task:_double_slow_first"] * 4
        assert all(s.parent_id == group.span_id for s in tasks)
        durations = [s.dur_s for s in tasks]
        assert durations[0] >= 0.4 > max(durations[1:])


def _double(x):
    return 2 * x


def _double_slow_first(x):
    if x == 0:
        time.sleep(0.5)
    return 2 * x


# --- the serve daemon's telemetry plane ------------------------------------


class TelemetryHarness:
    """A traced daemon in a background thread (ephemeral port)."""

    def __init__(self, **server_kwargs):
        self.session = Session(cmos65(), jobs=1,
                               cache=CharacterizationCache(),
                               tracer=Tracer(source="server"))
        self.server = BrickServer(self.session, **server_kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(20), "server failed to start"

    def _run(self):
        async def main():
            await self.server.start()
            self._ready.set()
            await self.server._shutdown_event.wait()
            await self.server.drain()
        asyncio.run(main())

    @property
    def port(self):
        return self.server.port

    def client(self, **kwargs):
        return ServeClient(port=self.port, **kwargs)

    def stop(self):
        if self._thread.is_alive():
            try:
                with self.client() as c:
                    c.shutdown()
            except ServeError:
                pass
        self._thread.join(20)
        assert not self._thread.is_alive(), "server did not drain"
        self.session.close()


@pytest.fixture()
def traced_harness():
    h = TelemetryHarness()
    yield h
    h.stop()


class TestServeTelemetry:
    def test_telemetry_verb_reports_served_requests(self,
                                                    traced_harness):
        with traced_harness.client() as c:
            c.ping()
            c.characterize(type="8T", words=16, bits=8)
            reply = c.telemetry()
        assert reply["requests"]["ping"]["count"] == 1
        char = reply["requests"]["characterize"]
        assert char["ok"] == 1 and char["errors"] == 0
        assert char["p99_s"] >= char["p50_s"] >= 0
        assert reply["inflight"] >= 1  # the telemetry request itself
        assert 0.0 <= reply["coalesce"]["hit_rate"] <= 1.0
        assert "hit_rate" in reply["cache"]
        assert reply["active"]["artifacts"] >= 0

    def test_served_request_spans_stitch_under_client(
            self, traced_harness):
        client_tracer = Tracer(source="client")
        with traced_harness.client(tracer=client_tracer) as c:
            c.sweep(total_words=64, bits=[8], brick_words=[16])
        server_spans = traced_harness.session.tracer.spans
        stitched = stitch_traces([
            ("client", [json.loads(line) for line in
                        trace_lines(client_tracer.spans)]),
            ("server", [json.loads(line) for line in
                        trace_lines(server_spans)]),
        ])
        by_id = {r["id"]: r for r in stitched}
        croot = next(r for r in stitched
                     if r["name"] == "request:sweep")
        sroot = next(r for r in stitched
                     if r["name"] == "serve:sweep")
        assert sroot["parent"] == croot["id"]
        assert sroot["trace_id"] == croot["trace_id"]
        assert sroot["attrs"]["request_id"] == \
            croot["attrs"]["request_id"]
        # Worker task spans joined the same tree and trace.
        task = next(r for r in stitched if r["kind"] == "task")
        assert task["trace_id"] == croot["trace_id"]
        node = task
        while node["parent"] is not None:
            node = by_id[node["parent"]]
        assert node["id"] == croot["id"]

    def test_ops_log_records_every_request(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        harness = TelemetryHarness(
            ops_log=OpsLog(str(path), max_bytes=100_000))
        try:
            with harness.client() as c:
                c.ping()
                c.stats()
        finally:
            harness.stop()
        entries = [json.loads(line) for line in
                   path.read_text().splitlines()]
        assert [e["type"] for e in entries[:2]] == ["ping", "stats"]
        assert all(e["ok"] for e in entries)

    def test_concurrent_clients_with_telemetry_polling(
            self, traced_harness):
        """The concurrency satellite: mixed request types from N
        parallel clients while telemetry/stats are polled — snapshots
        stay internally consistent and nothing ever raises."""
        errors = []
        done = threading.Event()

        def worker(index):
            try:
                with traced_harness.client() as c:
                    for round_ in range(4):
                        c.ping()
                        c.characterize(type="8T",
                                       words=16 + 16 * (index % 2),
                                       bits=8 + round_)
                        c.sweep(total_words=64, bits=[8],
                                brick_words=[16, 32])
            except Exception as exc:  # noqa: BLE001 - fail the test
                errors.append(exc)

        def poller():
            try:
                with traced_harness.client() as c:
                    while not done.is_set():
                        snap = c.telemetry()
                        c.stats()
                        assert snap["inflight"] >= 0
                        for entry in snap["requests"].values():
                            assert entry["count"] == \
                                entry["ok"] + entry["errors"]
                            assert entry["hist"]["count"] == \
                                entry["count"]
            except Exception as exc:  # noqa: BLE001 - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        poll = threading.Thread(target=poller)
        for t in threads + [poll]:
            t.start()
        for t in threads:
            t.join(60)
        done.set()
        poll.join(60)
        assert not errors, errors
        with traced_harness.client() as c:
            snap = c.telemetry()
        assert snap["requests"]["ping"]["count"] == 16
        sweep = snap["requests"]["sweep"]
        assert sweep["count"] == 16
        assert sweep["ok"] == 16 and sweep["errors"] == 0
        # Identical concurrent sweeps coalesce; every request is still
        # counted exactly once.
        assert 0 <= sweep["coalesced"] <= 15


class TestTelemetryCli:
    def test_client_telemetry_prom_and_top(self, traced_harness,
                                           capsys):
        port = str(traced_harness.port)
        assert cli.main(["client", "--port", port, "ping"]) == 0
        capsys.readouterr()
        assert cli.main(["client", "--port", port, "telemetry"]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["requests"]["ping"]["count"] == 1
        assert cli.main(["client", "--port", port, "telemetry",
                         "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out
        assert 'repro_requests_total{type="ping",outcome="ok"} 1' \
            in out
        assert cli.main(["top", "--port", port, "--iterations", "2",
                         "--interval", "0.05", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top — serve daemon telemetry") == 2
        assert "ping" in out and "p99" in out

    def test_stitch_command_merges_traces(self, traced_harness,
                                          tmp_path, capsys):
        client_tracer = Tracer(source="client")
        with traced_harness.client(tracer=client_tracer) as c:
            c.ping()
        cpath = str(tmp_path / "client.jsonl")
        spath = str(tmp_path / "server.jsonl")
        write_trace_jsonl(client_tracer.spans, cpath, source="client")
        write_trace_jsonl(traced_harness.session.tracer.spans, spath,
                          source="server")
        out_path = str(tmp_path / "stitched.jsonl")
        chrome = str(tmp_path / "stitched.json")
        assert cli.main(["stitch", cpath, spath, "--out", out_path,
                         "--chrome", chrome, "--strip-timing"]) == 0
        records = [json.loads(line) for line in
                   open(out_path, encoding="utf-8")]
        sroot = next(r for r in records if r["name"] == "serve:ping")
        assert sroot["parent"] == "client:1"
        assert "t_start_s" not in records[0]
        doc = json.load(open(chrome, encoding="utf-8"))
        assert {e["args"]["name"] for e in doc["traceEvents"]
                if e["ph"] == "M"} == {"client", "server"}

    def test_report_request_filter(self, traced_harness, tmp_path,
                                   capsys):
        with traced_harness.client() as c:
            c.ping()
            c.characterize(type="8T", words=16, bits=8)
        path = str(tmp_path / "server.jsonl")
        write_trace_jsonl(traced_harness.session.tracer.spans, path,
                          source="server")
        assert cli.main(["report", path, "--request", "c2"]) == 0
        out = capsys.readouterr().out
        assert "serve:characterize" in out
        assert "serve:ping" not in out
