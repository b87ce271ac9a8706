"""Pinned flow numbers: the whole synthesis flow, bit for bit.

``repr(FlowResult.summary())`` of two SRAM banks run through every stage
(elaborate, floorplan, place, route, resize/ECO, STA, clock tree, power
with a simulated stimulus).  Any change to placement, routing, timing,
power or the logic simulator that moves a single bit of fmax, area,
wirelength, power or energy fails here.  Output-changing work must
regenerate these on purpose and explain the diff.

The strings were taken on CPython 3.11.  CPython 3.12 made ``sum()`` of
floats compensated (Neumaier), which moves the last bits of the flow's
float totals, so on 3.12+ the values are compared to a relative 1e-12.
"""

import ast
import random
import sys

import pytest

from repro.bricks import generate_brick_library, single_partition, \
    sram_brick
from repro.rtl import build_sram
from repro.session import Session
from repro.synth import run_flow

#: (total words, bits, brick words) -> repr(FlowResult.summary()) at
#: seed 2015, anneal_moves=2000, 64 stimulus cycles.
GOLDENS = {
    (32, 10, 16):
        "{'fmax_hz': 1618971557.4853835, "
        "'min_period_s': 6.176760767516005e-10, "
        "'die_area_um2': 1083.8364703998125, "
        "'cell_area_um2': 795.1661680989189, "
        "'wirelength_um': 4442.096660435196, "
        "'power_w': 0.0018511122440672463, "
        "'energy_per_cycle_j': 1.1423026559252096e-12}",
    (128, 16, 32):
        "{'fmax_hz': 486851636.1943995, "
        "'min_period_s': 2.054013842526557e-09, "
        "'die_area_um2': 6836.455322594605, "
        "'cell_area_um2': 5109.895834617044, "
        "'wirelength_um': 40273.794061662644, "
        "'power_w': 0.0030262989080370047, "
        "'energy_per_cycle_j': 6.19095228003052e-12}",
}

EXACT_SUM = sys.version_info < (3, 12)


def _flow(tech, stdlib, words, bits, brick_words):
    config = single_partition(sram_brick(brick_words, bits), words)
    session = Session(tech, seed=2015)
    bricks, _ = generate_brick_library([(config.brick, config.stack)],
                                       session)

    def stimulus(sim):
        rng = random.Random(2015)
        for _ in range(64):
            sim.set_input("raddr", rng.randrange(words))
            sim.set_input("waddr", rng.randrange(words))
            sim.set_input("din", rng.randrange(1 << bits))
            sim.set_input("we", 1)
            sim.clock()

    return run_flow(build_sram(config), stdlib.merged_with(bricks),
                    session, stimulus=stimulus, anneal_moves=2000)


@pytest.mark.parametrize("shape", sorted(GOLDENS),
                         ids=lambda s: f"{s[0]}x{s[1]}b_{s[2]}w")
def test_flow_summary_golden(shape, tech, stdlib):
    summary = _flow(tech, stdlib, *shape).summary()
    if EXACT_SUM:
        assert repr(summary) == GOLDENS[shape]
    else:
        expected = ast.literal_eval(GOLDENS[shape])
        assert summary == pytest.approx(expected, rel=1e-12, abs=0.0)
