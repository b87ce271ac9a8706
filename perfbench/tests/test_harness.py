"""Tests of the benchmark's own helpers (run: pytest perfbench/tests)."""

import json
import os
import re
import sys
import time

import pytest

from perfbench import harness, layers, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    module = workloads.load(name)
    assert module.inputs(7) == module.inputs(7)
    assert json.dumps(module.inputs(7), sort_keys=True) == \
        json.dumps(module.inputs(7), sort_keys=True)


def test_seed_changes_inputs():
    for name in ("fig3_flow", "sweep_scale", "signoff_mc", "serve_mixed"):
        module = workloads.load(name)
        assert module.inputs(1) != module.inputs(2), name


def test_serve_request_streams_repeat_and_cold_requests_are_novel():
    from perfbench.workloads import serve_mixed as serve
    data = serve.inputs(3)
    assert serve.block_requests(data, 1, 4) == \
        serve.block_requests(serve.inputs(3), 1, 4)
    cold = [(kind, json.dumps(params, sort_keys=True))
            for client in range(serve.CLIENTS) for block in range(50)
            for kind, _, params in serve.block_requests(data, client, block)
            if kind in ("characterize_cold", "sweep_cold", "signoff")]
    assert len(cold) == len(set(cold))
    warm = {json.dumps(b, sort_keys=True) for b in data["warm_bricks"]}
    assert not any(params in warm for _, params in cold)


def test_metric_names_and_units():
    names = ([m[0] for m in layers.END_TO_END]
             + [m[0] for m in layers.PER_LAYER]
             + [w[0] for w in layers.WORKLOADS])
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert harness.METRIC_NAME.match(name), name
    assert len(names) == len(set(names))
    for _, unit, better, *_ in layers.END_TO_END + layers.PER_LAYER:
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")
    assert any(m[:3] == ("setup_s", "s", "lower")
               for m in layers.END_TO_END)
    assert all(0 < m[3] <= 0.25 for m in layers.END_TO_END)
    assert max(m[3] for m in layers.END_TO_END) == next(
        m[3] for m in layers.END_TO_END if m[0] == "setup_s")


def test_benchmark_json_is_generated_from_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == layers.benchmark_json()
    assert [w["name"] for w in committed["workloads"]] == \
        list(workloads.NAMES)
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])


def _span(sid, parent, name, start, end):
    return [sid, parent, name, start, end]


def test_self_times_subtract_children():
    spans = [_span(1, 0, "op", 0.0, 10.0),
             _span(2, 1, "a", 1.0, 4.0),
             _span(3, 2, "b", 2.0, 3.0),
             _span(4, 1, "c", 5.0, 9.0),
             _span(5, 4, "b", 5.5, 6.0),
             _span(6, 4, "b", 7.0, 8.5)]
    selfs = harness.self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0,
                                   5: 0.5, 6: 1.5})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_times_union_of_overlapping_children():
    spans = [_span(1, 0, "op", 0.0, 10.0),
             _span(2, 1, "a", 1.0, 5.0),
             _span(3, 1, "b", 3.0, 7.0),      # overlaps a
             _span(4, 1, "c", 9.0, 12.0)]     # runs past its parent
    assert harness.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_aggregate_groups_by_phase_and_layer():
    rec = harness.SpanRecorder("t")
    rec.spans = [_span(1, 0, "bench.harness", 0.0, 4.0),
                 _span(2, 1, "explore.plan", 0.5, 1.5),
                 _span(3, 0, "bench.harness", 10.0, 12.0),
                 _span(4, 3, "explore.plan", 10.0, 11.0),
                 _span(5, 0, "bench.harness", 20.0, 21.0),
                 _span(6, 5, "explore.plan", 20.0, 20.25)]
    rec.root_phase = {1: "", 3: "", 5: "fig4c"}
    layers_, n_ops, op_wall = harness.aggregate(rec)
    assert n_ops == {"": 2, "fig4c": 1}
    assert op_wall == pytest.approx({"": 6.0, "fig4c": 1.0})
    assert layers_ == pytest.approx({("", "bench.harness"): 4.0,
                                     ("", "explore.plan"): 2.0,
                                     ("fig4c", "bench.harness"): 0.75,
                                     ("fig4c", "explore.plan"): 0.25})


def test_recorder_nests_spans_under_ops():
    rec = harness.SpanRecorder("t")
    with rec.op("p"):
        assert rec.active
        with rec.span("x"):
            with rec.span("y"):
                rec.count("n", 2)
    assert not rec.active
    ids = {name: (sid, parent) for sid, parent, name, *_ in rec.spans}
    assert ids["x"][1] == ids["bench.harness"][0]
    assert ids["y"][1] == ids["x"][0]
    assert rec.counters[("p", "n")] == 2
    with pytest.raises(RuntimeError):
        with rec.op():
            with rec.op():
                pass


def test_quantiles():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert harness.median(values) == 3.0
    assert harness.quantile(values, 0.0) == 1.0
    assert harness.quantile(values, 1.0) == 5.0
    assert harness.quantile(values, 0.95) == pytest.approx(4.8)
    assert harness.tail_room(1000, 0.95) == 50


def test_op_walls_select_phase_key_and_untraced():
    ctx = harness.Context(harness.Report("w", 1, 1.0, False), 1.0)
    ctx.op_log = [(False, "", "a", 1.0, 0.0), (False, "", "b", 2.0, 1.0),
                  (True, "", "a", 0.5, 3.0), (False, "other", "a", 3.0, 4.0)]
    assert ctx.op_walls() == [1.0, 2.0]
    assert ctx.op_walls(key="a") == [1.0]
    assert ctx.op_times(key="b") == [(2.0, 1.0)]
    assert ctx.op_walls("other") == [3.0]
    ctx.op_log = [(True, "", "a", 9.0, 0.0)]   # only traced ops
    assert ctx.op_walls() == [9.0]


def test_local_cost_uses_the_kernel_runs_during_the_op():
    samples = [(0.5, 0.01), (1.0, 0.03), (2.5, 0.02), (9.0, 0.5)]
    assert harness.local_cost(0.0, 2.0, samples) == pytest.approx(100.0)
    # no kernel run during the op: the nearest one
    assert harness.local_cost(5.0, 0.2, samples) == pytest.approx(10.0)


def test_costs_price_ops_and_rounds_in_local_kernel_runs():
    ctx = harness.Context(harness.Report("w", 1, 1.0, False), 1.0)
    ctx.op_log = [(False, "", "a", 4.0, 0.0), (False, "", "b", 2.0, 4.0),
                  (False, "", "a", 3.0, 6.0), (True, "", "b", 0.1, 9.0)]
    ctx.rounds_log = [(False, 2, 6.0, 0.0), (True, 1, 3.1, 6.0)]
    # the host runs twice as slow from t=5 on
    ctx.ref_samples = [(t / 2, 0.01 if t < 10 else 0.02)
                       for t in range(24)]
    ctx.ref_walls = [w for _, w in ctx.ref_samples]
    assert ctx.op_costs(key="a") == [pytest.approx(400.0),
                                     pytest.approx(150.0)]  # 3.0 / 0.02
    # b straddles the change: 2 runs of 0.01 and 3 of 0.02; the traced
    # b is not read
    assert ctx.op_costs(key="b") == [pytest.approx(125.0)]
    assert ctx.cost(key="a") == pytest.approx(275.0)   # the median
    assert ctx.round_cost() == pytest.approx(400.0)
    # 10 runs of 0.01 and 3 of 0.02 in the untraced round
    assert ctx.round_costs() == [pytest.approx(6.0 / (0.16 / 13))]
    ctx.gate(7 / ctx.round_cost(), ctx.cost(key="a"), "n=2", "n=2")
    assert ctx.report.end_to_end == {
        "work_per_kref": (pytest.approx(7 / 400.0 * 1e3), "1/kref"),
        "op_cost_ref": (pytest.approx(275.0), "ref")}


def test_sampler_times_the_kernel_in_another_process():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    before = time.perf_counter()
    sampler = harness.Sampler(None, 30.0, 0.01, env)
    time.sleep(0.2)
    samples = sampler.stop()
    assert sampler.proc.returncode is not None
    assert len(samples) >= 2
    assert all(before < t < time.perf_counter() and w > 0
               for t, w in samples)


def test_stolen_time_reads_a_cpu_counter():
    assert harness.stolen_s(None) == 0.0
    cpu = min(os.sched_getaffinity(0))
    first = harness.stolen_s(cpu)
    assert 0.0 <= first <= harness.stolen_s(cpu)


def test_fixed_rounds_ignore_the_time_cut():
    for fixed, expect in ((3, 3), (None, 1)):
        ctx = harness.Context(harness.Report("w", 1, 0.0, False), 0.0)
        for _, traced in ctx.rounds(fixed=fixed):
            with ctx.round(traced):
                pass
        assert len(ctx.rounds_log) == expect


def test_digest_ignores_per_run_keys_only():
    a = {"x": 1.5, "wall_clock_s": 0.1, "rows": [{"y": 2.0}],
         "resumed_shards": 0}
    b = {"x": 1.5, "wall_clock_s": 9.9, "rows": [{"y": 2.0}],
         "resumed_shards": 4}
    c = {"x": 1.5000000001, "wall_clock_s": 0.1, "rows": [{"y": 2.0}]}
    assert harness.digest(a) == harness.digest(b)
    assert harness.digest(a) != harness.digest(c)


def test_instrumentation_restores_the_program():
    from perfbench.instrument import Instrumentation
    from repro.bricks import extract
    from repro.perf import cache, characterize, parallel
    from repro.synth import flow
    originals = (extract.measure_read, cache.CharacterizationCache.get,
                 characterize.parallel_map, parallel.parallel_imap,
                 flow.FLOW_PIPELINE.stages)
    rec = harness.SpanRecorder("t")
    with Instrumentation(rec):
        assert extract.measure_read is not originals[0]
        assert characterize.parallel_map is not originals[2]
        with rec.op():
            cache.CharacterizationCache().get("missing")
    assert (extract.measure_read, cache.CharacterizationCache.get,
            characterize.parallel_map, parallel.parallel_imap,
            flow.FLOW_PIPELINE.stages) == originals
    assert [s[2] for s in rec.spans] == ["bench.harness",
                                         "perf.cache.get"]
