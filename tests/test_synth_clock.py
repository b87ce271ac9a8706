"""Tests for the clock-tree synthesis estimate."""

import pytest

from repro.errors import SynthesisError
from repro.rtl import Module, as_bus, elaborate, fig3_sram, register
from repro.session import Session
from repro.synth import build_clock_tree, build_floorplan, place, \
    run_flow


@pytest.fixture(scope="module")
def placed_fig3(fig3_library, tech):
    module, _ = fig3_sram()
    flat = elaborate(module, fig3_library)
    fp = build_floorplan(flat, tech)
    return place(flat, fp, anneal_moves=500)


class TestClockTree:
    def test_counts_brick_as_sink(self, placed_fig3, tech):
        tree = build_clock_tree(placed_fig3, tech)
        assert tree.n_sinks == 1  # the single brick macro
        assert tree.sink_cap > 0

    def test_quantities_positive_and_consistent(self, placed_fig3,
                                                tech):
        tree = build_clock_tree(placed_fig3, tech)
        assert tree.wirelength_um > 0
        assert tree.energy_per_cycle == pytest.approx(
            (tree.sink_cap + tree.wire_cap + tree.buffer_cap)
            * tech.vdd ** 2)
        assert tree.insertion_delay > tree.skew_bound >= 0

    def test_more_flops_bigger_tree(self, stdlib, tech):
        def design(n_regs):
            m = Module(f"regs{n_regs}")
            clk = m.input("clk")
            d = as_bus(m.input("d", n_regs))
            q = m.output("q", n_regs)
            m.alias(q, as_bus(register(m, d, clk)))
            flat = elaborate(m, stdlib)
            fp = build_floorplan(flat, tech)
            return build_clock_tree(place(flat, fp, anneal_moves=0),
                                    tech)

        small = design(8)
        big = design(64)
        assert big.n_sinks == 64
        assert big.levels >= small.levels
        assert big.energy_per_cycle > small.energy_per_cycle

    def test_combinational_design_rejected(self, stdlib, tech):
        m = Module("comb")
        m.input("clk")
        a = m.input("a")
        y = m.output("y")
        m.cell("u", "INV_X1", {"A": a, "Y": y})
        flat = elaborate(m, stdlib)
        fp = build_floorplan(flat, tech)
        design = place(flat, fp, anneal_moves=0)
        with pytest.raises(SynthesisError):
            build_clock_tree(design, tech)


class TestFlowIntegration:
    def test_flow_reports_clock_network_power(self, fig3_library,
                                              tech):
        import random
        module, _ = fig3_sram()

        def stimulus(sim):
            rng = random.Random(2)
            for _ in range(30):
                sim.set_input("raddr", rng.randrange(32))
                sim.set_input("waddr", rng.randrange(32))
                sim.set_input("din", rng.randrange(1024))
                sim.set_input("we", 1)
                sim.clock()

        result = run_flow(module, fig3_library, Session(tech),
                          stimulus=stimulus, anneal_moves=300)
        assert result.clock_tree is not None
        assert "clock_network" in result.power.by_category
        assert result.power.by_category["clock_network"] > 0
