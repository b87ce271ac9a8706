#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints the seed, a host fingerprint,
every named metric with its unit and sample count, a digest of the
simulated outputs and the correctness checks; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer split
(``--trace 1``).  ``python3 perfbench/layers.py --map`` prints which
layer moves which end-to-end metric.

Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (traces, checkpoints, temp files).
WORK_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60.0


def child_env() -> dict:
    """Environment for processes the benchmark starts: the checkout's
    sources first, temp files and caches kept inside the checkout."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                       else []))
    env["TMPDIR"] = os.path.join(WORK_DIR, "tmp")
    # One generating process per workload: no BLAS thread pools
    # competing for the two cores the load is sized for.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def probe_setup(workload: str, cpu) -> float:
    """Seconds from starting a fresh interpreter (on this process's
    CPUs) to the workload being ready to run its first op, less the
    time stolen from ``cpu`` meanwhile."""
    from perfbench.harness import stolen_s
    stolen = stolen_s(cpu)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.probe", workload], cwd=ROOT,
        env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = (time.perf_counter() - start
                   - (stolen_s(cpu) - stolen))
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {proc.returncode})")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are not in "
              "this checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK_DIR, "tmp"), exist_ok=True)
    os.environ.update(child_env())
    tempfile.tempdir = os.environ["TMPDIR"]
    sys.path[:0] = [ROOT, SRC]

    from perfbench import harness, layers, workloads
    from perfbench.instrument import Instrumentation

    module = workloads.load(args.workload)
    data = module.inputs(args.seed)
    report = harness.Report(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    ctx = harness.Context(report, args.seconds, Instrumentation,
                          work_dir=WORK_DIR, child_env=child_env)
    ctx.cpu = harness.work_cpu()
    if getattr(module, "SETUP_IN_RUN", False):
        module.run(ctx, data)  # measures its own set-up (a daemon)
    else:
        if ctx.cpu is not None:
            harness.pin({ctx.cpu})
        setups = [probe_setup(args.workload, ctx.cpu)
                  for _ in range(SETUP_REPEATS)]
        ctx.setup_s = harness.median(setups)
        module.run(ctx, data)
    report.metric("setup_s", ctx.setup_s, "s",
                  f"median of n={SETUP_REPEATS} cold starts")
    report.metric("peak_rss_mb", ctx.peak_rss, "MB")
    report.metric("error_rate",
                  report.failed / max(report.attempted, 1), "ratio",
                  f"{report.failed} of {report.attempted} ops")
    report.end_to_end["setup_s"] = (ctx.setup_s, "s")
    report.end_to_end["peak_rss_mb"] = (ctx.peak_rss, "MB")
    if args.trace:
        ctx.finish_layers(layers.PER_LAYER_UNITS)
        ctx.recorder.write_jsonl(os.path.join(
            WORK_DIR, "traces",
            f"{args.workload}-seed{args.seed}.jsonl"))
    report.emit(harness.host_fingerprint())
    return 0


if __name__ == "__main__":
    sys.exit(main())
