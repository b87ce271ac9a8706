"""table1_reference: Table-1 cells, estimator against the transient
reference.

A round is the 16x10 and 32x12 8T bricks at 1x stacking (the 4x/8x
cells take 7-30 s each, too long for one run).  Each cell compiles the
brick, prices it with the closed-form estimator and runs the read and
write transients of ``circuit.spice``.  The seed orders the cells.

A round takes 7-9 s, so a run is a fixed number of rounds rather than
as many as fit in ``--seconds``: the sample count does not change with
the host's speed.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.bricks import compiler, estimator, extract
from repro.bricks import spec as brick_spec

from .. import harness
from .common import ready

CELLS = ((16, 10, 1), (32, 12, 1))
#: The cell whose time is the workload's latency, the paper's 16x10
#: Table-1 brick.
LATENCY_CELL = "16x10/1x"
ROUNDS = 3
#: The error bands the Table-1 benchmark asserts (percent).
BANDS = {"delay": 8.0, "read_energy": 25.0, "write_energy": 20.0}


def inputs(seed: int) -> Dict[str, Any]:
    cells = [{"words": w, "bits": b, "stack": s} for w, b, s in CELLS]
    random.Random(f"table1_reference:{seed}").shuffle(cells)
    return {"cells": cells}


def _label(cell: Dict[str, Any]) -> str:
    return f"{cell['words']}x{cell['bits']}/{cell['stack']}x"


def _run_cell(tech, cell) -> Dict[str, float]:
    stack = cell["stack"]
    compiled = compiler.compile_brick(
        brick_spec.sram_brick(cell["words"], cell["bits"]), tech,
        target_stack=stack)
    est = estimator.estimate_brick(compiled, tech, stack=stack)
    ref_delay, ref_read = extract.measure_read(compiled, tech, stack=stack)
    ref_write = extract.measure_write(compiled, tech, stack=stack)
    return {"tool_delay": est.read_delay, "ref_delay": ref_delay,
            "tool_read_energy": est.read_energy,
            "ref_read_energy": ref_read,
            "tool_write_energy": est.write_energy,
            "ref_write_energy": ref_write}


def _errors(row: Dict[str, float]) -> Dict[str, float]:
    """Signed estimator error vs the reference, percent."""
    return {"delay": (row["tool_delay"] / row["ref_delay"] - 1) * 100,
            "read_energy": (row["tool_read_energy"]
                            / row["ref_read_energy"] - 1) * 100,
            "write_energy": (row["tool_write_energy"]
                             / row["ref_write_energy"] - 1) * 100}


def run(ctx: harness.Context, data: Dict[str, Any]) -> None:
    tech = ready().tech
    report = ctx.report
    cells = data["cells"]
    rows: List[List[Dict[str, float]]] = []
    with ctx.sampling():
        for _, traced in ctx.rounds(fixed=ROUNDS):
            round_rows = []
            with ctx.round(traced) as tally:
                for cell in cells:
                    with ctx.op(traced, key=_label(cell)):
                        round_rows.append(_run_cell(tech, cell))
                    tally["work"] += 1
            rows.append(round_rows)
    ctx.peak_rss = harness.peak_rss_mb()

    worst = {name: 0.0 for name in BANDS}
    for position, cell in enumerate(cells):
        errors = _errors(rows[0][position])
        in_band = all(abs(errors[k]) < BANDS[k] for k in BANDS)
        repeat_ok = all(r[position] == rows[0][position] for r in rows)
        for name in BANDS:
            worst[name] = max(worst[name], abs(errors[name]))
        for _ in rows:
            report.op_done(in_band and repeat_ok,
                           f"{_label(cell)}: errors {errors} "
                           f"deterministic={repeat_ok}")
        report.check(f"table1.{_label(cell)}.bands", in_band,
                     "delay {delay:+.2f}%  read {read_energy:+.2f}%  "
                     "write {write_energy:+.2f}%".format(**errors))

    walls = ctx.op_walls()
    latency_walls = ctx.op_walls(key=LATENCY_CELL)
    report.metric("ref_cells_per_s", len(walls) / sum(walls), "1/s",
                  f"n={len(walls)} untraced cells")
    report.metric("ref_cell_ms_p50", harness.median(latency_walls) * 1e3,
                  "ms", f"n={len(latency_walls)} {LATENCY_CELL} cells")
    report.metric("t1_delay_err_pct_max", worst["delay"], "%",
                  f"n={len(cells)} cells, band <{BANDS['delay']:g}%")
    report.metric("t1_read_energy_err_pct_max", worst["read_energy"],
                  "%", f"n={len(cells)} cells, "
                  f"band <{BANDS['read_energy']:g}%")
    report.metric("t1_write_energy_err_pct_max", worst["write_energy"],
                  "%", f"n={len(cells)} cells, "
                  f"band <{BANDS['write_energy']:g}%")
    n = f"medians of n={len(latency_walls)} runs per cell"
    ctx.gate(len(cells) / ctx.round_cost(), ctx.cost(key=LATENCY_CELL),
             n, n)
    report.digest("table1.numbers",
                  sorted([_label(c), r] for c, r in zip(cells, rows[0])),
                  "estimate and reference delay/energies per cell")
    if ctx.trace:
        counters = ctx.recorder.counters
        steps = counters.get(("", "circuit.spice.steps"), 0.0)
        factors = counters.get(("", "circuit.spice.factorizations"), 0.0)
        transients = counters.get(("", "circuit.spice.transients"), 0.0)
        if steps:
            ctx.layer("circuit.spice.factor_reuse", 1 - factors / steps)
        if transients:
            ctx.layer("circuit.spice.nodes", counters.get(
                ("", "circuit.spice.nodes_total"), 0.0) / transients)
