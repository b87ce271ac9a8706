"""Tests for smart-memory builders, the logic simulator and Verilog."""

import random

import pytest

from repro.bricks import (
    cam_brick,
    generate_brick_library,
    partitioned,
    single_partition,
    sram_brick,
)
from repro.errors import RTLError, SimulationError
from repro.rtl import (
    LogicSimulator,
    build_cam,
    build_sram,
    elaborate,
    emit_module,
    fig3_sram,
)
from repro.session import Session


def _library_for(stdlib, tech, config):
    bricks, _ = generate_brick_library(
        [(config.brick, config.stack)], Session(tech))
    return stdlib.merged_with(bricks)


def _random_check(module, config, library, n_ops=150, seed=5):
    flat = elaborate(module, library)
    sim = LogicSimulator(flat)
    rng = random.Random(seed)
    model = {}
    for step in range(n_ops):
        ra = rng.randrange(config.words)
        wa = rng.randrange(config.words)
        di = rng.randrange(1 << config.bits)
        we = rng.random() < 0.6
        sim.set_input("raddr", ra)
        sim.set_input("waddr", wa)
        sim.set_input("din", di)
        sim.set_input("we", int(we))
        sim.clock()
        got = sim.get_output("dout")
        expect = model.get(ra)
        if expect is not None:
            assert got == expect, (step, ra, got, expect)
        if we:
            model[wa] = di
    return sim


class TestFig3Sram:
    def test_fig3_structure(self, fig3_library):
        module, config = fig3_sram()
        flat = elaborate(module, fig3_library)
        stats = flat.stats()
        assert stats["bricks"] == 1  # one 2-stacked bank macro
        assert config.words == 32

    def test_fig3_functional(self, fig3_library):
        module, config = fig3_sram()
        _random_check(module, config, fig3_library)

    def test_activity_recorded(self, fig3_library):
        module, config = fig3_sram()
        sim = _random_check(module, config, fig3_library, n_ops=50)
        assert sim.activity.cycles == 50
        reads = sum(ops.get("read", 0)
                    for ops in sim.activity.cell_ops.values())
        assert reads == 50


class TestConfigurations:
    @pytest.mark.parametrize("words,partitions", [(16, 1), (64, 1),
                                                  (128, 4)])
    def test_sram_functional(self, stdlib, tech, words, partitions):
        if partitions == 1:
            config = single_partition(sram_brick(16, 10), words)
        else:
            config = partitioned(sram_brick(16, 10), words, partitions)
        library = _library_for(stdlib, tech, config)
        _random_check(build_sram(config), config, library, n_ops=120)

    def test_registered_output_delays_one_cycle(self, stdlib, tech):
        config = single_partition(sram_brick(16, 10), 16)
        library = _library_for(stdlib, tech, config)
        module = build_sram(config, registered_output=True)
        flat = elaborate(module, library)
        sim = LogicSimulator(flat)
        sim.set_input("waddr", 3)
        sim.set_input("din", 111)
        sim.set_input("we", 1)
        sim.set_input("raddr", 3)
        sim.clock()   # write lands
        sim.set_input("we", 0)
        sim.clock()   # read issued, lands in brick output
        sim.clock()   # registered output now visible
        assert sim.get_output("dout") == 111

    def test_non_power_of_two_total_rejected(self, stdlib, tech):
        from repro.bricks import BankConfig
        config = BankConfig(sram_brick(12, 8), stack=2)
        with pytest.raises(RTLError):
            build_sram(config)


class TestCam:
    def test_cam_match_semantics(self, stdlib, tech):
        config = single_partition(cam_brick(16, 10), 16)
        library = _library_for(stdlib, tech, config)
        module = build_cam(config)
        sim = LogicSimulator(elaborate(module, library))
        # Store three entries.
        for addr, key in [(0, 100), (1, 200), (2, 100)]:
            sim.set_input("waddr", addr)
            sim.set_input("wdata", key)
            sim.set_input("we", 1)
            sim.set_input("key", 0)
            sim.clock()
        sim.set_input("we", 0)
        sim.set_input("key", 100)
        sim.clock()
        ml = sim.get_output("ml")
        assert ml & 0b111 == 0b101  # entries 0 and 2 match
        assert sim.get_output("hit") == 1
        sim.set_input("key", 999)
        sim.clock()
        assert sim.get_output("hit") == 0

    def test_cam_requires_cam_brick(self):
        config = single_partition(sram_brick(16, 10), 16)
        with pytest.raises(RTLError):
            build_cam(config)


class TestSimulatorEdgeCases:
    def test_multiple_wordlines_raise(self, fig3_library):
        from repro.rtl import Module, as_bus
        m = Module("bad")
        clk = m.input("clk")
        rwl = m.input("rwl", 32)
        dout = m.output("dout", 10)
        wwl = as_bus(m.constant(0, 32))
        wbl = as_bus(m.constant(0, 10))
        we = as_bus(m.constant(0))[0]
        m.cell("bank", "brick_16_10_s2", {
            "CLK": clk, "RWL": rwl, "WWL": wwl, "WBL": wbl,
            "WE": we, "ARBL": dout})
        sim = LogicSimulator(elaborate(m, fig3_library))
        sim.set_input("rwl", 0b11)  # two wordlines at once
        with pytest.raises(SimulationError):
            sim.clock()

    def test_backdoor_load_and_state(self, fig3_library):
        module, config = fig3_sram()
        sim = LogicSimulator(elaborate(module, fig3_library))
        sim.load_brick("bank0", [7, 8, 9])
        assert sim.brick_state("bank0")[:3] == [7, 8, 9]
        sim.set_input("raddr", 1)
        sim.set_input("we", 0)
        sim.set_input("waddr", 0)
        sim.set_input("din", 0)
        sim.clock()
        assert sim.get_output("dout") == 8

    def test_missing_clock_port_rejected(self, stdlib):
        from repro.rtl import Module
        m = Module("noclk")
        a = m.input("a")
        y = m.output("y")
        m.cell("u1", "INV_X1", {"A": a, "Y": y})
        with pytest.raises(SimulationError):
            LogicSimulator(elaborate(m, stdlib))


class TestVerilog:
    def test_fig3_verilog_contains_key_structures(self):
        module, _ = fig3_sram()
        text = emit_module(module)
        assert text.startswith("module sram_32x10_p1_brick_16_10")
        assert "brick_16_10_s2 bank0" in text
        assert "input [4:0] raddr" in text
        assert "endmodule" in text

    def test_balanced_ports_and_brackets(self):
        module, _ = fig3_sram()
        text = emit_module(module)
        assert text.count("(") == text.count(")")
