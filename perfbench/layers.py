"""The benchmark's metric catalog and the source of ``BENCHMARK.json``.

Every workload reports the same four end-to-end metrics; what "work"
and "op" mean differs per workload (``WORK`` below), and each workload
also prints its own named metrics (``flow_designs_per_s``,
``t1_delay_err_pct_max``, ...) as human-readable lines.

Every per-layer metric is reported by every workload in the traced run;
a layer the workload does not exercise reads 0, which is the
prediction for a workload that bypasses that layer.  Times are self
time per op (span duration minus child spans), counts are per op.

Regenerate ``BENCHMARK.json`` with::

    python3 perfbench/layers.py > BENCHMARK.json
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 18

#: (name, why it is in the benchmark)
WORKLOADS = [
    ("fig3_flow",
     "Fig-3 SRAM designs through RTL, 8 synth stages, STA and power; "
     "synth dominates, so it is the no-change control for bricks.batch, "
     "explore and serve"),
    ("table1_reference",
     "Table-1 cells through the estimator and the transient reference; "
     "the only workload running circuit.spice, and it pins estimator "
     "error"),
    ("sweep_scale",
     "cold+resumed 2e5-point sharded sweep (batch kernel, pareto) plus "
     "repeated cold 9-point Fig-4c sweeps (dispatch and cache overhead)"),
    ("signoff_mc",
     "cold 40k-sample Monte Carlo signoff, 3 corners, no early stop: "
     "faults.inject/apply_repair and signoff.stats dominate"),
    ("serve_mixed",
     "daemon with 2 closed-loop clients: warm and cold characterize, "
     "sweeps, fetches, a few signoffs; the only serve protocol, "
     "coalescer and store load"),
]

#: (name, unit, better, bound, meaning)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of 3 cold starts from process start to ready, less stolen "
     "time: imports, Session/tech and the stdcell library (serve_mixed: "
     "daemon start to first ping)"),
    ("peak_rss_mb", "MB", "lower", 0.2,
     "peak resident memory of the process doing the work (the daemon "
     "for serve_mixed)"),
    ("work_per_kref", "1/kref", "higher", 0.25,
     "the workload's work per 1000 reference kernel runs, see WORK"),
    ("op_cost_ref", "ref", "lower", 0.25,
     "the workload's latency op in reference kernel runs, see WORK"),
]

#: What ``work_per_kref`` and ``op_cost_ref`` measure on each workload,
#: as (work is, op is).  Both are host-relative, in runs of
#: ``harness.reference_s``, a fixed ~3 ms mix of dict/list churn and
#: 48x48 solves that a sampler process times every 0.05 s on the CPU
#: doing the work (the daemon's, for serve_mixed), the work running
#: niced beside it.  This 2-vCPU host's speed swings by up to 2x, for
#: whole runs and within them (other tenants on the same cores, beyond
#: the time stolen from the vCPU), which moves medians, means and
#: minima of raw walls by 20-50 % between runs.  An op's cost is its
#: wall over the mean kernel run timed during it (within 0.5 s around
#: a shorter op); a kind of op costs the median of its untraced ops.
#: Every run also prints the plain wall-clock metrics
#: (flow_designs_per_s, ..._ms_p50, serve_ms_p95, reference_ms_mean,
#: reference_ms_min) with sample counts.
WORK = {
    "fig3_flow": ("designs through prepare_libraries, build_sram and "
                  "run_flow: the round's 4 designs over the sum of "
                  "their costs",
                  "a design flow of the round's mix (the mean of the 4 "
                  "designs' costs)"),
    "table1_reference": ("Table-1 cells (estimate + read and write "
                         "transient): 2 over the sum of their costs",
                         "the 16x10/1x cell"),
    "sweep_scale": ("lattice points of a cold sharded sweep of the "
                    "large lattice over its cost",
                    "a cold 9-point Fig-4c sweep"),
    "signoff_mc": ("Monte Carlo samples (x3 corners) of a cold "
                   "40k-sample run over its cost",
                   "a cold 40k-sample run"),
    "serve_mixed": ("requests of 2 closed-loop clients in a 40-request "
                    "block over the block's cost",
                    "a request of the block's mix, each request type "
                    "at its cost"),
}

_S = "s/op"
_N = "count/op"
_SERVE_TYPES = ("characterize", "sweep", "fetch", "signoff")

#: (name, unit, better, workload that exercises it, metric it moves)
PER_LAYER = [
    # fig3_flow: the FLOW_PIPELINE stages, per design.
    *[(f"synth.{stage}_s", _S, "lower", "fig3_flow",
       "flow_designs_per_s")
      for stage in ("elaborate", "floorplan", "place", "route",
                    "resize_eco", "sta", "clock_tree", "power")],
    ("rtl.simulate_s", _S, "lower", "fig3_flow", "flow_designs_per_s"),
    ("rtl.build_s", _S, "lower", "fig3_flow",
     "flow_designs_per_s, setup_s"),
    ("bricks.library_s", _S, "lower", "fig3_flow",
     "flow_designs_per_s, setup_s"),
    ("synth.cells", _N, "lower", "fig3_flow", "flow_designs_per_s"),
    ("synth.nets", _N, "lower", "fig3_flow", "flow_designs_per_s"),
    # Shared cache / executor / characterization layers.
    ("perf.cache.get_s", _S, "lower", "sweep_scale, signoff_mc",
     "sweep_points_per_s, signoff_samples_per_s"),
    ("perf.cache.put_s", _S, "lower", "sweep_scale, signoff_mc",
     "sweep_points_per_s, signoff_samples_per_s"),
    ("perf.cache.hit_rate", "ratio", "higher", "all",
     "work_per_kref"),
    ("perf.cache.lookups", _N, "lower", "all", "work_per_kref"),
    ("perf.fingerprint_s", _S, "lower", "all", "work_per_kref"),
    ("perf.parallel.dispatch_s", _S, "lower", "sweep_scale, signoff_mc",
     "sweep_points_per_s, signoff_samples_per_s"),
    ("perf.parallel.tasks", _N, "lower", "sweep_scale, signoff_mc",
     "sweep_points_per_s"),
    ("perf.parallel.serial_tasks", _N, "lower",
     "sweep_scale, signoff_mc", "sweep_points_per_s"),
    ("perf.characterize.estimate_s", _S, "lower", "signoff_mc",
     "signoff_samples_per_s"),
    ("perf.characterize.probe_s", _S, "lower", "fig3_flow",
     "flow_designs_per_s"),
    ("perf.characterize.worker_s", _S, "lower", "fig3_flow",
     "flow_designs_per_s"),
    # table1_reference, per cell.
    ("bricks.compiler.compile_s", _S, "lower", "table1_reference",
     "ref_cells_per_s"),
    ("bricks.estimator.estimate_s", _S, "lower", "table1_reference",
     "ref_cells_per_s"),
    ("bricks.extract.measure_s", _S, "lower", "table1_reference",
     "ref_cells_per_s"),
    ("bricks.extract.testbench_s", _S, "lower", "table1_reference",
     "ref_cells_per_s"),
    ("circuit.spice.setup_s", _S, "lower", "table1_reference",
     "ref_cells_per_s"),
    ("circuit.spice.run_s", _S, "lower", "table1_reference",
     "ref_cells_per_s"),
    ("circuit.spice.steps", _N, "lower", "table1_reference",
     "ref_cells_per_s"),
    ("circuit.spice.factorizations", _N, "lower", "table1_reference",
     "ref_cells_per_s"),
    ("circuit.spice.factor_reuse", "ratio", "higher",
     "table1_reference", "ref_cells_per_s"),
    ("circuit.spice.nodes", "count", "lower", "table1_reference",
     "ref_cells_per_s"),
    # sweep_scale, large lattice phase, per cold sweep.
    ("explore.plan_s", _S, "lower", "sweep_scale",
     "sweep_points_per_s"),
    ("explore.engine_s", _S, "lower", "sweep_scale",
     "sweep_points_per_s"),
    ("explore.lattice_s", _S, "lower", "sweep_scale",
     "sweep_points_per_s"),
    ("explore.shard_s", _S, "lower", "sweep_scale",
     "sweep_points_per_s"),
    ("explore.pareto_s", _S, "lower", "sweep_scale",
     "sweep_points_per_s"),
    ("bricks.batch.compile_s", _S, "lower", "sweep_scale",
     "sweep_points_per_s"),
    ("bricks.batch.price_s", _S, "lower", "sweep_scale",
     "sweep_points_per_s"),
    ("explore.resume_s", _S, "lower", "sweep_scale",
     "sweep_points_per_s"),
    ("explore.shards", _N, "lower", "sweep_scale",
     "sweep_points_per_s"),
    ("explore.points_priced", _N, "higher", "sweep_scale",
     "sweep_points_per_s"),
    ("explore.frontier_size", _N, "lower", "sweep_scale",
     "sweep_points_per_s"),
    # sweep_scale, Fig-4c phase, per 9-point sweep.
    *[(f"fig4c.{layer}", _S, "lower", "sweep_scale",
       "fig4c_sweep_ms_p50, serve_ms_p50")
      for layer in ("bench.harness_s", "explore.plan_s",
                    "explore.engine_s",
                    "perf.characterize.estimate_s",
                    "perf.characterize.probe_s",
                    "perf.characterize.worker_s",
                    "perf.parallel.dispatch_s", "perf.cache.get_s",
                    "perf.cache.put_s", "perf.fingerprint_s",
                    "bricks.batch.compile_s", "bricks.batch.price_s")],
    ("fig4c.perf.parallel.tasks", _N, "lower", "sweep_scale",
     "fig4c_sweep_ms_p50"),
    ("fig4c.perf.parallel.serial_tasks", _N, "lower", "sweep_scale",
     "fig4c_sweep_ms_p50"),
    ("fig4c.perf.cache.hit_rate", "ratio", "higher", "sweep_scale",
     "fig4c_sweep_ms_p50"),
    ("fig4c.perf.cache.lookups", _N, "lower", "sweep_scale",
     "fig4c_sweep_ms_p50"),
    # signoff_mc, per 40k-sample run.
    ("signoff.engine_s", _S, "lower", "signoff_mc",
     "signoff_samples_per_s"),
    ("signoff.chunk_s", _S, "lower", "signoff_mc",
     "signoff_samples_per_s, serve_ms_p95"),
    ("signoff.sampling_s", _S, "lower", "signoff_mc",
     "signoff_samples_per_s, serve_ms_p95"),
    ("signoff.stats_s", _S, "lower", "signoff_mc",
     "signoff_samples_per_s, serve_ms_p95"),
    ("faults.inject_s", _S, "lower", "signoff_mc",
     "signoff_samples_per_s, serve_ms_p95"),
    ("faults.repair_s", _S, "lower", "signoff_mc",
     "signoff_samples_per_s, serve_ms_p95"),
    ("signoff.chunks", _N, "lower", "signoff_mc",
     "signoff_samples_per_s"),
    ("signoff.samples", _N, "higher", "signoff_mc",
     "signoff_samples_per_s"),
    ("faults.defects", _N, "lower", "signoff_mc",
     "signoff_samples_per_s"),
    # serve_mixed, per request of each type.
    *[(f"serve.{part}_ms.{rtype}", "ms", "lower", "serve_mixed",
       "serve_ms_p50, serve_ms_p95")
      for part in ("roundtrip", "handler", "wait")
      for rtype in _SERVE_TYPES],
    ("serve.client.request_s", _S, "lower", "serve_mixed",
     "serve_ms_p50 (client send, receive and wait for the reply)"),
    ("serve.protocol.frame_us", "us", "lower", "serve_mixed",
     "serve_ms_p50, serve_req_per_s"),
    ("serve.coalesce.hit_rate", "ratio", "higher", "serve_mixed",
     "serve_warm_ms_p50, serve_req_per_s"),
    ("serve.daemon.cache.hit_rate", "ratio", "higher", "serve_mixed",
     "serve_warm_ms_p50, serve_req_per_s"),
    ("serve.store.artifacts", "count", "lower", "serve_mixed",
     "serve_warm_ms_p50, peak_rss_mb"),
    ("serve.busy", "count", "lower", "serve_mixed", "serve_req_per_s"),
    # Every workload.
    ("bench.harness_s", _S, "lower", "all",
     "work_per_kref (benchmark glue inside an op)"),
    ("obs.overhead_pct", "%", "lower", "all",
     "traced vs untraced headline rate, alternating rounds"),
    ("obs.unattributed_pct", "%", "lower", "all",
     "timed wall not covered by op spans"),
]

PER_LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, keys in their documented order."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _ in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, *_ in PER_LAYER],
    }


def layer_map() -> str:
    """Human-readable layer -> end-to-end metric map."""
    lines = ["end-to-end metrics (same names on every workload):"]
    for name, unit, better, bound, meaning in END_TO_END:
        lines.append(f"  {name} [{unit}, {better} is better, bound "
                     f"{bound:.0%}]: {meaning}")
    lines.append("work_per_kref / op_cost_ref per workload:")
    for workload, (work, op) in WORK.items():
        lines.append(f"  {workload}: {work}; {op}")
    lines.append("per-layer metric [unit] (exercised by) -> moves:")
    for name, unit, _, workload, moves in PER_LAYER:
        lines.append(f"  {name} [{unit}] ({workload}) -> {moves}")
    return "\n".join(lines)


if __name__ == "__main__":
    import sys
    if sys.argv[1:] == ["--map"]:
        print(layer_map())
    else:
        print(json.dumps(benchmark_json(), indent=2))
