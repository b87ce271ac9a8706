"""fig3_flow: Fig-3 SRAM designs through the whole synthesis flow.

Closed loop, one caller.  A round is four 1R1W SRAM banks around the
paper's Fig-3 example (32 words of 16x10 bricks, 2x stacked), up to 128
words with 16- and 32-word bricks.  Each design pays what ``repro
sram`` pays per run: ``prepare_libraries`` into a cold cache, then
``build_sram`` and ``run_flow`` (8 stages, STA, power) with its own
stimulus and placement seed.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.bricks import spec as brick_spec
from repro.bricks import stack as brick_stack
from repro.perf.cache import CharacterizationCache
from repro.rtl import memory
from repro.rtl.simulate import LogicSimulator
from repro.session import RecordingSink, Session
from repro.synth import flow

from .. import harness
from .common import Tally, ready

#: (total words, brick words) of the designs in one round; the first is
#: the literal Fig-3 bank when its width is 10 bits (always, below).
SHAPES = ((32, 16), (64, 16), (64, 32), (128, 32))
#: Word widths the seeded designs draw from.
BITS = (8, 10, 12, 16)
CYCLES = 64          # stimulus cycles for activity-based power
ANNEAL_MOVES = 2000  # the CLI's default placement effort
CHECK_CYCLES = 200   # equivalence-check traffic per design


def inputs(seed: int) -> Dict[str, Any]:
    rng = random.Random(f"fig3_flow:{seed}")
    designs = []
    for index, (words, brick_words) in enumerate(SHAPES):
        designs.append({
            "words": words, "brick_words": brick_words,
            "bits": 10 if index == 0 else rng.choice(BITS),
            "flow_seed": rng.randrange(1 << 31),
            "stimulus_seed": rng.randrange(1 << 31),
            "check_seed": rng.randrange(1 << 31)})
    rng.shuffle(designs)
    return {"designs": designs}


def _label(design: Dict[str, Any]) -> str:
    return (f"{design['words']}x{design['bits']}b/"
            f"{design['brick_words']}w")


def _stimulus(design: Dict[str, Any], recorder):
    words, bits = design["words"], design["bits"]

    def drive(sim: LogicSimulator) -> None:
        rng = random.Random(design["stimulus_seed"])
        for _ in range(CYCLES):
            sim.set_input("raddr", rng.randrange(words))
            sim.set_input("waddr", rng.randrange(words))
            sim.set_input("din", rng.randrange(1 << bits))
            sim.set_input("we", 1)
            sim.clock()

    if recorder is None:
        return drive

    def traced(sim: LogicSimulator) -> None:
        with recorder.span("rtl.simulate"):
            drive(sim)
    return traced


def _run_design(tech, design, recorder):
    sink = RecordingSink()
    session = Session(tech, jobs=1, cache=CharacterizationCache(),
                      seed=design["flow_seed"], sink=sink)
    config = brick_stack.single_partition(
        brick_spec.BrickSpec("8T", design["brick_words"], design["bits"]),
        design["words"])
    library = flow.prepare_libraries([(config.brick, config.stack)],
                                     session=session)
    module = memory.build_sram(config)
    result = flow.run_flow(module, library,
                           stimulus=_stimulus(design, recorder),
                           anneal_moves=ANNEAL_MOVES, session=session)
    return result, session.cache, sink.stages


def _equivalent(result, design) -> bool:
    """Random read/write traffic on the flow's netlist against a dict
    memory model (read data is checked once its word was written)."""
    sim = LogicSimulator(result.netlist)
    rng = random.Random(design["check_seed"])
    model: Dict[int, int] = {}
    words, bits = design["words"], design["bits"]
    for _ in range(CHECK_CYCLES):
        raddr, waddr = rng.randrange(words), rng.randrange(words)
        din, we = rng.randrange(1 << bits), rng.random() < 0.5
        sim.set_input("raddr", raddr)
        sim.set_input("waddr", waddr)
        sim.set_input("din", din)
        sim.set_input("we", int(we))
        sim.clock()
        expect = model.get(raddr)
        if expect is not None and sim.get_output("dout") != expect:
            return False
        if we:
            model[waddr] = din
    return True


def run(ctx: harness.Context, data: Dict[str, Any]) -> None:
    tech = ready().tech
    report = ctx.report
    designs = data["designs"]
    first: List[Any] = []        # round-0 FlowResults, one per design
    summaries: List[List[Dict[str, Any]]] = []
    stages_ok = True
    tally = Tally()
    cells = nets = 0
    with ctx.sampling():
        for index, traced in ctx.rounds():
            round_summaries = []
            with ctx.round(traced) as tally_round:
                for position, design in enumerate(designs):
                    recorder = ctx.recorder if traced else None
                    with ctx.op(traced, key=position), tally.op(traced):
                        result, cache, stages = _run_design(tech, design,
                                                            recorder)
                    tally_round["work"] += 1
                    stages_ok &= stages == list(flow.FLOW_STAGE_NAMES)
                    round_summaries.append(result.summary())
                    if traced:
                        tally.add_cache(cache)
                        stats = result.netlist.stats()
                        cells += stats["cells"]
                        nets += stats["nets"]
                    if index == 0:
                        first.append(result)
            summaries.append(round_summaries)
    ctx.peak_rss = harness.peak_rss_mb()

    for position, design in enumerate(designs):
        ok = _equivalent(first[position], design)
        repeat_ok = all(s[position] == summaries[0][position]
                        for s in summaries)
        for _ in summaries:
            report.op_done(ok and repeat_ok,
                           f"{_label(design)}: equivalent={ok} "
                           f"deterministic={repeat_ok}")
    report.check("fig3.stage_events", stages_ok,
                 f"{len(flow.FLOW_STAGE_NAMES)} StageEvents per flow")

    # The latency is that of the literal Fig-3 bank, one per round: a
    # median over a mix of design sizes would sit between size clusters.
    bank = next(i for i, d in enumerate(designs)
                if (d["words"], d["brick_words"]) == SHAPES[0])
    walls = ctx.op_walls(key=bank)
    n_rounds = len(walls)
    report.metric("flow_designs_per_s", ctx.rate(False), "1/s",
                  f"{len(designs)}-design rounds, {n_rounds} untraced "
                  f"rounds")
    report.metric("fig3_bank_flow_ms_p50", harness.median(walls) * 1e3,
                  "ms", f"n={n_rounds} flows of the 32x10b bank")
    # The gated op is a design of the round's mix.  The bank's flow
    # alone, at 5-8 flows a run, spread 0.16 IQR/median between runs.
    round_cost = ctx.round_cost()
    n = f"medians of n={n_rounds} flows per design"
    ctx.gate(len(designs) / round_cost, round_cost / len(designs), n, n)
    report.digest("fig3_flow.summaries",
                  [[_label(d), s] for d, s in zip(designs, summaries[0])],
                  "flow summary per design: fmax, area, power, energy")
    if tally.ops:
        tally.report(ctx)
        ctx.layer("synth.cells", cells / tally.ops)
        ctx.layer("synth.nets", nets / tally.ops)
