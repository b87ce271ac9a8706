"""Tests for the observability layer (repro.obs) and its wiring."""

import io
import json

import pytest

from repro.obs.export import (
    chrome_trace,
    read_trace_jsonl,
    strip_timing,
    trace_lines,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    MetricsRegistry,
    collect_snapshot,
    render_snapshot,
)
from repro.obs.profile import maybe_profile
from repro.obs.report import render_report, stage_breakdown
from repro.obs.trace import SpanEvent, Tracer, maybe_span
from repro.errors import ReproError
from repro.perf.cache import CharacterizationCache
from repro.perf.parallel import (
    _executor_fault_sink,
    executor_stats,
    parallel_map,
    reset_executor_stats,
)
from repro.perf.timer import Stopwatch
from repro.session import (
    FaultEvent,
    PrintingSink,
    RecordingSink,
    Session,
    StageEvent,
)
from repro.tech import cmos65


class TestTracer:
    def test_sequential_ids_and_parentage(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grand") as grand:
                    pass
            with tracer.span("sibling") as sib:
                pass
        assert [s.span_id for s in tracer.spans] == [1, 2, 3, 4]
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id
        assert sib.parent_id == root.span_id
        tracer.validate()
        assert tracer.open_depth == 0

    def test_exception_marks_span_failed_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        span = tracer.spans[0]
        assert span.closed
        assert not span.ok
        assert "boom" in span.error
        tracer.validate()

    def test_forgotten_inner_spans_unwind(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        tracer.open("inner-never-closed")
        tracer.close(outer)
        assert tracer.open_depth == 0
        # The forgotten span stays un-closed: validate flags it.
        with pytest.raises(ValueError, match="never closed"):
            tracer.validate()

    def test_validate_rejects_unknown_parent(self):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        tracer.spans[0].parent_id = 99
        with pytest.raises(ValueError, match="unknown parent"):
            tracer.validate()

    def test_closed_spans_reach_the_sink(self):
        sink = RecordingSink()
        tracer = Tracer(sink=sink)
        with tracer.span("work", kind="stage", n=3):
            pass
        assert len(sink.spans) == 1
        event = sink.spans[0]
        assert isinstance(event, SpanEvent)
        assert event.name == "work"
        assert event.kind == "stage"
        assert event.attrs == {"n": 3}
        assert event.dur_s >= 0.0

    def test_maybe_span_is_noop_without_tracer(self):
        with maybe_span(None, "anything") as span:
            assert span is None


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        hist = registry.histogram("h")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert registry.counter("c").value == 5
        assert registry.gauge("g").value == 2.5
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc(2)
        registry.histogram("t").observe(0.5)
        cache = CharacterizationCache()
        cache.get("missing-key")
        snapshot = collect_snapshot(registry, cache.stats,
                                    executor_stats())
        assert list(snapshot["counters"]) == ["a.first", "z.last"]
        assert snapshot["cache"]["misses"] == 1
        assert snapshot["histograms"]["t"]["count"] == 1
        json.dumps(snapshot)  # must be serializable as-is

    def test_render_sections(self):
        registry = MetricsRegistry()
        registry.counter("explore.sweep.points_evaluated").inc(9)
        cache = CharacterizationCache()
        cache.get("k")
        snapshot = collect_snapshot(registry, cache.stats,
                                    executor_stats())
        full = render_snapshot(snapshot)
        assert "cache:" in full
        assert "executor:" in full
        assert "counter: explore.sweep.points_evaluated = 9" in full
        cache_only = render_snapshot(snapshot, sections=("cache",))
        assert "cache:" in cache_only
        assert "executor:" not in cache_only
        assert "counter:" not in cache_only


def _toy_trace(tmp_path, fail_last=False):
    tracer = Tracer()
    with tracer.span("cli:sram", kind="command"):
        with tracer.span("elaborate", kind="stage"):
            pass
        with tracer.span("place", kind="stage"):
            pass
        if fail_last:
            try:
                with tracer.span("sta", kind="stage"):
                    raise RuntimeError("no clock")
            except RuntimeError:
                pass
    path = str(tmp_path / "t.jsonl")
    write_trace_jsonl(tracer.spans, path)
    return tracer, path


class TestExport:
    def test_roundtrip_and_tree_validation(self, tmp_path):
        tracer, path = _toy_trace(tmp_path)
        records = read_trace_jsonl(path)
        assert len(records) == len(tracer.spans)
        ids = {r["span_id"] for r in records}
        for record in records:
            assert record["type"] == "span"
            assert record["parent_id"] is None or \
                record["parent_id"] in ids

    def test_read_rejects_broken_trees(self, tmp_path):
        good = json.dumps({"type": "span", "span_id": 1,
                           "parent_id": None, "name": "a"})
        orphan = json.dumps({"type": "span", "span_id": 2,
                             "parent_id": 7, "name": "b"})
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n" + orphan + "\n")
        with pytest.raises(ReproError, match="unknown parent"):
            read_trace_jsonl(str(path))
        path.write_text(good + "\n" + good + "\n")
        with pytest.raises(ReproError, match="duplicate span id"):
            read_trace_jsonl(str(path))
        path.write_text("{not json\n")
        with pytest.raises(ReproError, match="invalid JSON"):
            read_trace_jsonl(str(path))

    def test_strip_timing_removes_only_wall_clocks(self, tmp_path):
        tracer, _ = _toy_trace(tmp_path)
        lines = trace_lines(tracer.spans, strip=True)
        for line in lines:
            record = json.loads(line)
            assert "t_start_s" not in record
            assert "dur_s" not in record
            assert "name" in record and "span_id" in record

    def test_strip_timing_strips_histogram_seconds(self):
        registry = MetricsRegistry()
        registry.histogram("stage.x").observe(0.25)
        record = {"type": "metrics",
                  "metrics": collect_snapshot(registry)}
        stripped = strip_timing(record)
        hist = stripped["metrics"]["histograms"]["stage.x"]
        assert hist == {"count": 1}
        # The original record is untouched (strip copies).
        assert "total_s" in record["metrics"]["histograms"]["stage.x"]

    def test_strip_timing_strips_timing_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("characterize.estimate.ns_per_point").set(1234.5)
        registry.gauge("explore.sweep.depth").set(3.0)
        registry.counter("characterize.estimate.points").inc(9)
        record = {"type": "metrics",
                  "metrics": collect_snapshot(registry)}
        stripped = strip_timing(record)
        # Wall-clock-derived gauges go; deterministic values stay.
        assert "characterize.estimate.ns_per_point" \
            not in stripped["metrics"]["gauges"]
        assert stripped["metrics"]["gauges"]["explore.sweep.depth"] \
            == 3.0
        assert stripped["metrics"]["counters"][
            "characterize.estimate.points"] == 9
        # The original record is untouched (strip copies).
        assert "characterize.estimate.ns_per_point" \
            in record["metrics"]["gauges"]

    def test_stripped_lines_identical_across_runs(self, tmp_path):
        first, _ = _toy_trace(tmp_path, fail_last=True)
        second, _ = _toy_trace(tmp_path, fail_last=True)
        assert trace_lines(first.spans, strip=True) == \
            trace_lines(second.spans, strip=True)

    def test_chrome_trace_export(self, tmp_path):
        tracer, path = _toy_trace(tmp_path)
        records = read_trace_jsonl(path)
        out = str(tmp_path / "t.chrome.json")
        write_chrome_trace(records, out)
        with open(out, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        assert len(events) == len(tracer.spans)
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        roots = [e for e in events
                 if "parent_id" not in e["args"]]
        assert len(roots) == 1
        assert chrome_trace(records)["displayTimeUnit"] == "ms"


class TestReport:
    def test_percentages_sum_to_100(self, tmp_path):
        _, path = _toy_trace(tmp_path)
        rows = stage_breakdown(read_trace_jsonl(path))
        assert [name for name, _, _, _ in rows] == \
            ["elaborate", "place"]
        assert sum(pct for _, _, _, pct in rows) == \
            pytest.approx(100.0, abs=1e-6)

    def test_report_renders_table_and_failures(self, tmp_path):
        _, path = _toy_trace(tmp_path, fail_last=True)
        report = render_report(read_trace_jsonl(path))
        assert "spans: 4 recorded, 1 failed" in report
        assert "elaborate" in report
        assert "100.0%" in report
        assert "failed: sta: RuntimeError: no clock" in report

    def test_falls_back_when_no_stage_spans(self):
        records = [{"type": "span", "span_id": 1, "parent_id": None,
                    "name": "probe", "kind": "cache", "dur_s": 0.5,
                    "ok": True}]
        rows = stage_breakdown(records)
        assert rows == [("cache:probe", 1, 0.5, 100.0)]


class TestProfile:
    def test_noop_without_directory(self):
        with maybe_profile(None, "x"):
            pass  # must not create anything or fail

    def test_dumps_one_prof_per_block(self, tmp_path):
        directory = str(tmp_path / "prof")
        with maybe_profile(directory, "stage.one"):
            sum(range(100))
        with maybe_profile(directory, "stage.two"):
            sum(range(100))
        names = sorted(p.name for p in (tmp_path / "prof").iterdir())
        assert len(names) == 2
        assert names[0].endswith("_stage.one.prof")
        assert names[1].endswith("_stage.two.prof")


class TestSessionWiring:
    def test_traced_flow_builds_valid_span_tree(self):
        from repro.bricks.stack import single_partition
        from repro.bricks.spec import sram_brick
        from repro.rtl.memory import build_sram
        tracer = Tracer()
        session = Session(cmos65(), tracer=tracer,
                          metrics=MetricsRegistry(),
                          cache=CharacterizationCache())
        config = single_partition(sram_brick(16, 4), 16)
        library = session.prepare_libraries(
            [(config.brick, config.stack)])
        session.run_flow(build_sram(config), library, anneal_moves=50)
        tracer.validate()
        kinds = {span.kind for span in tracer.spans}
        assert {"stage", "batch", "cache"} <= kinds
        stage_names = [s.name for s in tracer.spans
                       if s.kind == "stage"]
        assert "elaborate" in stage_names and "sta" in stage_names
        hists = session.metrics.histograms
        assert "synth.pipeline.stage.elaborate" in hists
        snapshot = session.metrics_snapshot()
        assert snapshot["histograms"]
        assert snapshot["cache"]["misses"] >= 1

    def test_sweep_counts_points_and_opens_point_spans(self):
        tracer = Tracer()
        session = Session(cmos65(), tracer=tracer,
                          metrics=MetricsRegistry(),
                          cache=CharacterizationCache())
        result = session.sweep_partitions(
            total_words_options=(32,), bits_options=(4,),
            brick_words_options=(16, 32))
        tracer.validate()
        points = [s for s in tracer.spans if s.kind == "sweep_point"]
        assert len(points) == len(result.points) == 2
        counters = session.metrics.counters
        assert counters["explore.sweep.points_evaluated"].value == 2
        assert counters["explore.sweep.points_skipped"].value == 0

    def test_yield_analysis_phases_nest(self):
        from repro.bricks.spec import sram_brick
        from repro.faults import analyze_yield
        tracer = Tracer()
        session = Session(cmos65(), tracer=tracer,
                          cache=CharacterizationCache())
        analyze_yield(sram_brick(16, 4), n_bricks=20, session=session)
        tracer.validate()
        phases = [s.name for s in tracer.spans if s.kind == "phase"]
        assert phases[0].startswith("yield:")
        assert {"sample_population", "bank_rollup",
                "price_overheads"} <= set(phases)

    def test_untraced_session_emits_no_span_events(self):
        sink = RecordingSink()
        session = Session(cmos65(), sink=sink,
                          cache=CharacterizationCache())
        session.sweep_partitions(total_words_options=(32,),
                                 bits_options=(4,),
                                 brick_words_options=(32,))
        assert sink.spans == []

    def test_quarantine_routes_fault_event_to_sink(self, tmp_path):
        sink = RecordingSink()
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        Session(cmos65(), cache=cache, sink=sink)
        cache.put("some-key", {"v": 1})
        path = cache._entry_path("some-key")
        with open(path, "wb") as handle:
            handle.write(b"corrupt garbage")
        cache.clear()  # force the disk tier to be consulted
        found, _ = cache.get("some-key")
        assert not found
        faults = sink.faults
        assert len(faults) == 1
        assert faults[0].domain == "cache"
        assert faults[0].name == "some-key"
        assert faults[0].recovered
        assert faults[0].detail["quarantine_path"]

    def test_executor_fault_sink_routes_recoveries(self):
        sink = RecordingSink()
        on_fault = _executor_fault_sink(sink)
        on_fault("Timeout", 3, "no result within 1.0s")
        assert _executor_fault_sink(None) is None
        faults = sink.faults
        assert len(faults) == 1
        assert faults[0].domain == "executor"
        assert faults[0].name == "task3"
        assert faults[0].index == 3
        assert "Timeout" in faults[0].error


class TestExecutorStats:
    def test_serial_counters(self):
        reset_executor_stats()
        parallel_map(lambda x: x * 2, [1, 2, 3], jobs=1)
        stats = executor_stats()
        assert stats.tasks == 3
        assert stats.serial_tasks == 3
        assert stats.pool_tasks == 0
        assert stats.failures == 0

    def test_failure_counter(self):
        reset_executor_stats()

        def boom(x):
            raise ValueError("nope")

        results = parallel_map(boom, [1], jobs=1, return_errors=True)
        assert not results[0]
        assert executor_stats().failures == 1

    def test_reset_zeroes(self):
        parallel_map(lambda x: x, [1], jobs=1)
        stats = reset_executor_stats()
        assert stats.tasks == 0
        assert stats is executor_stats()


class TestPrintingSink:
    def test_stage_event_formatting(self):
        stream = io.StringIO()
        sink = PrintingSink(stream)
        sink(StageEvent(stage="place", index=2, wall_clock_s=0.0213,
                        detail={"moves": 100}))
        line = stream.getvalue()
        assert "[stage 2]" in line
        assert "place" in line
        assert "21.30 ms" in line
        assert "ok" in line
        assert "moves=100" in line

    def test_failed_stage_formatting(self):
        stream = io.StringIO()
        PrintingSink(stream)(StageEvent(
            stage="sta", index=5, wall_clock_s=0.001, ok=False,
            error="no clock"))
        assert "FAILED: no clock" in stream.getvalue()

    def test_fault_event_formatting(self):
        stream = io.StringIO()
        PrintingSink(stream)(FaultEvent(
            domain="sweep", name="32x8b", error="Timeout: slow"))
        line = stream.getvalue()
        assert "[fault] sweep:32x8b" in line
        assert "recovered" in line
        assert "Timeout: slow" in line

    def test_span_event_formatting(self):
        stream = io.StringIO()
        PrintingSink(stream)(SpanEvent(
            span_id=7, parent_id=1, name="place", kind="stage",
            attrs={}, t_start_s=0.0, dur_s=0.005))
        line = stream.getvalue()
        assert "[span 7]" in line
        assert "stage:place" in line
        assert "5.00 ms" in line
        stream = io.StringIO()
        PrintingSink(stream)(SpanEvent(
            span_id=8, parent_id=1, name="sta", kind="stage",
            attrs={}, t_start_s=0.0, dur_s=0.001, ok=False,
            error="no clock"))
        assert "FAILED: no clock" in stream.getvalue()


class TestStopwatch:
    def test_elapsed_monotonic(self):
        watch = Stopwatch()
        first = watch.elapsed()
        second = watch.elapsed()
        assert 0.0 <= first <= second

    def test_restart_returns_elapsed_and_resets(self):
        watch = Stopwatch()
        sum(range(1000))
        elapsed = watch.restart()
        assert elapsed > 0.0
        assert watch.elapsed() <= elapsed + 1.0  # fresh origin


class TestCLI:
    def test_trace_out_writes_valid_tree(self, tmp_path, capsys):
        from repro.cli import main
        trace = str(tmp_path / "t.jsonl")
        assert main(["sram", "--words", "16", "--bits", "4",
                     "--anneal", "50", "--trace-out", trace,
                     "--metrics"]) == 0
        records = read_trace_jsonl(trace)
        span_records = [r for r in records if r["type"] == "span"]
        assert span_records[0]["name"] == "cli:sram"
        assert any(r["kind"] == "stage" for r in span_records)
        assert records[-1]["type"] == "metrics"
        err = capsys.readouterr().err
        assert "wrote trace" in err
        assert "cache:" in err
        assert "timing: synth.pipeline.stage." in err

    def test_report_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        trace = str(tmp_path / "t.jsonl")
        assert main(["sweep", "--total-words", "32", "--bits", "4",
                     "--brick-words", "16", "32",
                     "--trace-out", trace]) == 0
        capsys.readouterr()
        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "100.0%" in out

    def test_report_chrome_and_strip(self, tmp_path, capsys):
        from repro.cli import main
        trace = str(tmp_path / "t.jsonl")
        chrome = str(tmp_path / "t.chrome.json")
        assert main(["sweep", "--total-words", "32", "--bits", "4",
                     "--brick-words", "32", "--trace-out", trace]) == 0
        capsys.readouterr()
        assert main(["report", trace, "--chrome", chrome,
                     "--strip-timing"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("{"):
                record = json.loads(line)
                assert "t_start_s" not in record
        with open(chrome, "r", encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]

    def test_two_runs_diff_identical_after_strip(self, tmp_path,
                                                 capsys):
        from repro.cli import main

        def run(name):
            trace = str(tmp_path / name)
            assert main(["sram", "--words", "16", "--bits", "4",
                         "--anneal", "50", "--trace-out", trace,
                         "--metrics"]) == 0
            capsys.readouterr()
            return [json.dumps(strip_timing(r), sort_keys=True)
                    for r in read_trace_jsonl(trace)]

        assert run("a.jsonl") == run("b.jsonl")

    def test_profile_out_dumps_stage_profiles(self, tmp_path, capsys):
        from repro.cli import main
        prof = tmp_path / "prof"
        assert main(["sram", "--words", "16", "--bits", "4",
                     "--anneal", "50",
                     "--profile-out", str(prof)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in prof.iterdir())
        assert any(n.endswith("elaborate.prof") for n in names)
        assert any(n.endswith("sta.prof") for n in names)

    def test_report_rejects_missing_trace(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["report", str(tmp_path / "absent.jsonl")])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_cache_stats_uses_snapshot_renderer(self, tmp_path,
                                                capsys):
        from repro.cli import main
        cache_dir = str(tmp_path / "cache")
        assert main(["--cache-dir", cache_dir, "--cache-stats",
                     "sweep", "--total-words", "32", "--bits", "4",
                     "--brick-words", "32"]) == 0
        err = capsys.readouterr().err
        assert "cache:" in err
        assert "hit rate" in err
        assert "executor:" not in err
