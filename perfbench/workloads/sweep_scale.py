"""sweep_scale: design-space sweeps at two working-set sizes.

A round is (a) one cold sharded ``SweepEngine`` run over a seeded
204,800-point lattice, checkpointing every shard to a disk cache, then a
warm resume of the same plan from a fresh process-level cache over the
same directory, and (b) a fixed number of cold 9-point Fig-4c sweeps
(128 words x bits {8,16,32} x brick words {16,32,64}).  In (a) the batch
kernel and the Pareto reduction dominate; in (b) per-call overhead
(executor dispatch, fingerprinting, cache probes) does.
"""

from __future__ import annotations

import os
import random
import shutil
from typing import Any, Dict, List

from repro.explore import engine as explore_engine
from repro.explore.lattice import SweepSpace
from repro.perf.cache import CharacterizationCache
from repro.session import Session

from .. import harness
from .common import Tally, ready

MEMORY_TYPES = ("8T", "6T")
N_TOTAL_WORDS = 640   # distinct multiples of 64 words
N_BITS = 32           # distinct word widths
BRICK_WORDS = (4, 8, 16, 32, 64)   # all divide every total
SHARD_SIZE = 8192
FIG4C = {"total_words_options": (128,), "bits_options": (8, 16, 32),
         "brick_words_options": (16, 32, 64)}
FIG4C_PER_ROUND = 200


def inputs(seed: int) -> Dict[str, Any]:
    rng = random.Random(f"sweep_scale:{seed}")
    return {
        "memory_types": MEMORY_TYPES,
        "total_words": sorted(64 * k for k in rng.sample(range(1, 2001),
                                                         N_TOTAL_WORDS)),
        "bits": sorted(rng.sample(range(2, 97), N_BITS)),
        "brick_words": BRICK_WORDS,
    }


def _space(data: Dict[str, Any]) -> SweepSpace:
    return SweepSpace(total_words_options=tuple(data["total_words"]),
                      bits_options=tuple(data["bits"]),
                      brick_words_options=tuple(data["brick_words"]),
                      memory_types=tuple(data["memory_types"]))


def _large(tech, space, cache_dir):
    session = Session(tech, jobs=1,
                      cache=CharacterizationCache(cache_dir=cache_dir))
    engine = explore_engine.SweepEngine(session, space=space,
                                        mode="sharded",
                                        shard_size=SHARD_SIZE)
    return engine.run(), session.cache


def _fig4c(tech):
    session = Session(tech, jobs=1, cache=CharacterizationCache())
    return explore_engine.SweepEngine(session, **FIG4C).run(), \
        session.cache


def _brute_force_front(result) -> List[int]:
    """Indices of the non-dominated points, by exhaustive comparison."""
    vectors = {p.index: p.vector(result.objectives)
               for p in result.points}

    def dominated(i):
        a = vectors[i]
        return any(all(x <= y for x, y in zip(b, a)) and b != a
                   for j, b in vectors.items() if j != i)
    return sorted(i for i in vectors if not dominated(i))


def run(ctx: harness.Context, data: Dict[str, Any]) -> None:
    tech = ready().tech
    report = ctx.report
    space = _space(data)
    root = os.path.join(ctx.work_dir, "sweep_scale")
    shutil.rmtree(root, ignore_errors=True)
    ctx.wall_phases["resume"] = "explore.resume_s"
    large: List[Any] = []
    large_traced: List[bool] = []
    resumed: List[Any] = []
    #: the first Fig-4c result, and per sweep whether its frontier
    #: equals the first's (keeping thousands of results alive would
    #: slow the run's GC; dataclass equality costs 2 us a sweep where
    #: frontier_json costs 50 us of unattributed time between ops)
    fig4c: List[Any] = []
    fig4c_same: List[bool] = []
    tally = Tally()
    tally_fig4c = Tally("fig4c.")
    with ctx.sampling():
        for index, traced in ctx.rounds():
            cache_dir = os.path.join(root, f"round{index}")
            with ctx.round(traced) as tally_round:
                with ctx.op(traced), tally.op(traced):
                    result, cache = _large(tech, space, cache_dir)
                tally_round["work"] += result.n_priced
                large.append(result)
                large_traced.append(traced)
                if traced:
                    tally.add_cache(cache)
                with ctx.op(traced, "resume"):
                    resumed.append(_large(tech, space, cache_dir)[0])
                for _ in range(FIG4C_PER_ROUND):
                    with ctx.op(traced, "fig4c"), tally_fig4c.op(traced):
                        result, cache = _fig4c(tech)
                    if not fig4c:
                        fig4c.append(result)
                    fig4c_same.append(result.frontier == fig4c[0].frontier)
                    if traced:
                        tally_fig4c.add_cache(cache)
    ctx.peak_rss = harness.peak_rss_mb()
    shutil.rmtree(root, ignore_errors=True)

    cold_json = large[0].frontier_json()
    for cold, warm in zip(large, resumed):
        same = cold.frontier_json() == cold_json
        resume_ok = (warm.frontier_json() == cold.frontier_json()
                     and warm.resumed_shards == warm.shards_total)
        report.op_done(same, "large sweep frontier differs between "
                             "rounds")
        report.op_done(resume_ok, "resumed frontier differs from the "
                                  "cold run's or re-priced shards")
    fig4c_json = fig4c[0].frontier_json()
    front_ok = ([p.index for p in fig4c[0].frontier]
                == _brute_force_front(fig4c[0]))
    report.check("sweep.fig4c_pareto_vs_brute_force", front_ok,
                 f"{len(fig4c[0].frontier)} of {len(fig4c[0].points)} "
                 f"points on the front")
    for same in fig4c_same:
        report.op_done(front_ok and same,
                       "Fig-4c frontier differs from brute force or "
                       "between sweeps")
    report.check("sweep.resume_byte_identical",
                 all(w.frontier_json() == c.frontier_json()
                     for c, w in zip(large, resumed)),
                 f"{len(resumed)} resumes of {large[0].shards_total} "
                 f"shards")

    walls = ctx.op_walls()
    points = large[0].n_priced
    rate = points * len(walls) / sum(walls)
    fig4c_walls = ctx.op_walls("fig4c")
    resume_walls = ctx.op_walls("resume")
    fig4c_ms = harness.median(fig4c_walls) * 1e3
    report.metric("sweep_points_per_s", rate, "1/s",
                  f"{points} points, n={len(walls)} cold sweeps")
    report.metric("fig4c_sweep_ms_p50", fig4c_ms, "ms",
                  f"n={len(fig4c_walls)} sweeps")
    report.metric("explore_resume_ms_p50",
                  harness.median(resume_walls) * 1e3, "ms",
                  f"n={len(resume_walls)} resumes of "
                  f"{large[0].shards_total} shards")
    ctx.gate(points / ctx.cost(), ctx.cost("fig4c"),
             f"median of n={len(walls)} cold sweeps",
             f"median of n={len(fig4c_walls)} sweeps")
    report.digest("sweep.large_frontier", cold_json,
                  f"frontier of the {points}-point lattice")
    report.digest("sweep.fig4c_frontier", fig4c_json,
                  "Fig-4c 9-point frontier")
    if tally.ops:
        tally.report(ctx)
        tally_fig4c.report(ctx)
        traced_large = [r for r, t in zip(large, large_traced) if t]
        n = len(traced_large)
        ctx.layer("explore.shards",
                  sum(r.shards_total for r in traced_large) / n)
        ctx.layer("explore.points_priced",
                  sum(r.n_priced for r in traced_large) / n)
        ctx.layer("explore.frontier_size",
                  sum(len(r.frontier) for r in traced_large) / n)
