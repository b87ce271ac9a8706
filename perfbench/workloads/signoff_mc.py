"""signoff_mc: cold Monte Carlo signoff runs.

A round is one cold 40,000-sample ``SignoffEngine`` run on the 8T 16x10
brick over the best/nominal/worst corners, without early stop.  Each
sample draws PVT scale factors and a defect population that is injected
and repaired; the reduction computes bootstrap confidence intervals.
The seed is the signoff's master seed.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.perf.cache import CharacterizationCache
from repro.session import Session
from repro.signoff import engine as signoff_engine

from .. import harness
from .common import Tally, ready

SAMPLES = 40_000
CORNERS = ("best", "nominal", "worst")
#: Small population whose report must not depend on the chunking.
CHECK_SAMPLES = 2000
CHECK_CHUNKS = (256, 1000)


def inputs(seed: int) -> Dict[str, Any]:
    return {"memory_type": "8T", "words": 16, "bits": 10, "stack": 1,
            "samples": SAMPLES, "corners": CORNERS,
            "seed": random.Random(f"signoff_mc:{seed}").randrange(1 << 31)}


def _signoff(tech, data, samples, chunk_size=signoff_engine.DEFAULT_CHUNK):
    session = Session(tech, jobs=1, cache=CharacterizationCache(),
                      seed=data["seed"])
    engine = signoff_engine.SignoffEngine(
        session, memory_type=data["memory_type"], words=data["words"],
        bits=data["bits"], stack=data["stack"], n_samples=samples,
        chunk_size=chunk_size, corners=data["corners"], ci_target=None)
    return engine.run(), session.cache


def _chunking_free(report) -> List[str]:
    """The rendered report without the lines that name the chunking."""
    return [line for line in report.render().splitlines()
            if not line.startswith(("  plan:", "  used:"))]


def run(ctx: harness.Context, data: Dict[str, Any]) -> None:
    tech = ready().tech
    report = ctx.report
    reports: List[Any] = []
    traced_reports: List[Any] = []
    tally = Tally()
    with ctx.sampling():
        for _, traced in ctx.rounds():
            with ctx.round(traced) as tally_round:
                with ctx.op(traced), tally.op(traced):
                    result, cache = _signoff(tech, data, data["samples"])
                tally_round["work"] += result.samples_used
            reports.append(result)
            if traced:
                tally.add_cache(cache)
                traced_reports.append(result)
    ctx.peak_rss = harness.peak_rss_mb()

    first = reports[0].render()
    for result in reports:
        report.op_done(result.render() == first
                       and result.samples_used == data["samples"]
                       and not result.failures,
                       "signoff report differs between runs, stopped "
                       "early or lost chunks")
    small = [_signoff(tech, data, CHECK_SAMPLES, size)[0]
             for size in CHECK_CHUNKS]
    report.check("signoff.render_chunk_invariant",
                 _chunking_free(small[0]) == _chunking_free(small[1]),
                 f"{CHECK_SAMPLES} samples in chunks of "
                 f"{' and '.join(map(str, CHECK_CHUNKS))}")

    walls = ctx.op_walls()
    rate = data["samples"] * len(walls) / sum(walls)
    report.metric("signoff_samples_per_s", rate, "1/s",
                  f"x{len(data['corners'])} corners, n={len(walls)} runs")
    report.metric("signoff_run_ms_p50", harness.median(walls) * 1e3,
                  "ms", f"n={len(walls)} runs of {data['samples']}")
    n = f"median of n={len(walls)} runs"
    ctx.gate(data["samples"] / ctx.cost(), ctx.cost(), n, n)
    report.digest("signoff.report", first,
                  "rendered signoff report: P50/P95/P99.9, yields, "
                  "defect counts")
    if traced_reports:
        n = len(traced_reports)
        tally.report(ctx)
        ctx.layer("signoff.chunks",
                  sum(r.chunks_used for r in traced_reports) / n)
        ctx.layer("signoff.samples",
                  sum(r.samples_used for r in traced_reports) / n)
        ctx.layer("faults.defects",
                  sum(sum(r.defect_counts.values())
                      for r in traced_reports) / n)
