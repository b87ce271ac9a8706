"""Tests for the gate-level SpGEMM update datapath (Fig. 5 write-back)."""

import random

import pytest

from repro.bricks import generate_brick_library
from repro.rtl import (
    LogicSimulator,
    build_update_datapath,
    elaborate,
    update_datapath_reference,
)
from repro.session import Session


@pytest.fixture(scope="module")
def datapath(tech, stdlib):
    module, spec = build_update_datapath(words=8, value_bits=8)
    bricks, _ = generate_brick_library([(spec, 1)], Session(tech))
    flat = elaborate(module, stdlib.merged_with(bricks))
    return module, flat


def _step(sim, match, free, a, b, enable):
    sim.set_input("match_line", match)
    sim.set_input("free_line", free)
    sim.set_input("a_val", a)
    sim.set_input("b_val", b)
    sim.set_input("enable", int(enable))
    sim.clock()


class TestUpdateDatapath:
    def test_miss_inserts_bare_product(self, datapath):
        _, flat = datapath
        sim = LogicSimulator(flat)
        # Miss: no matchline; free slot 3; write 5*7.
        _step(sim, match=0, free=1 << 3, a=5, b=7, enable=True)
        assert sim.get_output("value_out") == 35
        assert sim.brick_state("value_sram")[3] == 35

    def test_hit_accumulates(self, datapath):
        _, flat = datapath
        sim = LogicSimulator(flat)
        sim.load_brick("value_sram", [0, 0, 50, 0, 0, 0, 0, 0])
        # Read phase: select entry 2, no write.
        _step(sim, match=1 << 2, free=0, a=4, b=6, enable=False)
        # Write phase: accumulate 50 + 24 into entry 2.
        _step(sim, match=1 << 2, free=0, a=4, b=6, enable=True)
        assert sim.brick_state("value_sram")[2] == 74
        assert sim.get_output("value_out") == 74

    def test_matches_python_reference_over_random_stream(self,
                                                         datapath):
        _, flat = datapath
        sim = LogicSimulator(flat)
        rng = random.Random(13)
        model = [0] * 8
        occupied = set()
        for _ in range(60):
            a, b = rng.randrange(16), rng.randrange(16)
            if occupied and rng.random() < 0.5:
                entry = rng.choice(sorted(occupied))
                hit = True
            else:
                candidates = [e for e in range(8)
                              if e not in occupied] or [0]
                entry = rng.choice(candidates)
                hit = entry in occupied
            match = (1 << entry) if hit else 0
            free = 0 if hit else (1 << entry)
            _step(sim, match, free, a, b, enable=False)  # read phase
            _step(sim, match, free, a, b, enable=True)   # write phase
            model[entry] = update_datapath_reference(
                model[entry], a, b, hit, value_bits=8)
            occupied.add(entry)
            assert sim.brick_state("value_sram")[entry] == \
                model[entry], (entry, a, b, hit)

    def test_overflow_wraps_like_fixed_width_hardware(self, datapath):
        _, flat = datapath
        sim = LogicSimulator(flat)
        sim.load_brick("value_sram", [250])
        _step(sim, match=1, free=0, a=3, b=4, enable=False)
        _step(sim, match=1, free=0, a=3, b=4, enable=True)
        assert sim.brick_state("value_sram")[0] == (250 + 12) % 256

    def test_odd_value_bits_rejected(self):
        from repro.errors import RTLError
        with pytest.raises(RTLError):
            build_update_datapath(words=4, value_bits=7)
