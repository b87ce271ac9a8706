"""Coverage for reports, error hierarchy, emitters and small utilities."""

import pytest

from repro.errors import (
    AcceleratorError,
    BrickError,
    LibraryError,
    PatternError,
    ReproError,
    RTLError,
    SimulationError,
    SparseError,
    SynthesisError,
    TechnologyError,
    TimingError,
)
from repro.session import Session


class TestErrorHierarchy:
    def test_every_domain_error_is_a_repro_error(self):
        for exc_type in (TechnologyError, PatternError, BrickError,
                         LibraryError, RTLError, SimulationError,
                         SynthesisError, TimingError, SparseError,
                         AcceleratorError):
            assert issubclass(exc_type, ReproError)

    def test_catch_at_flow_boundary(self, tech):
        """A flow-level caller can catch one base class."""
        from repro.bricks import BrickSpec
        with pytest.raises(ReproError):
            BrickSpec("8T", 0, 0)


class TestVerilogDetails:
    def test_escaped_identifiers_for_awkward_names(self):
        from repro.rtl.verilog import _vname
        assert _vname("plain") == "plain"
        assert _vname("a[3]") == "a_3"
        assert _vname("u.inst") == "u_inst"
        weird = _vname("3starts_with_digit")
        assert weird.startswith("\\")

    def test_constant_assigns_emitted(self, stdlib):
        from repro.rtl import Module, as_bus, emit_module
        m = Module("c")
        m.input("clk")
        y = m.output("y")
        one = as_bus(m.constant(1))[0]
        m.cell("u", "INV_X1", {"A": one, "Y": y})
        text = emit_module(m)
        assert "1'b1" in text

    def test_bus_connection_msb_first(self, fig3_library):
        from repro.rtl import emit_module, fig3_sram
        module, _ = fig3_sram()
        text = emit_module(module)
        # Verilog concatenations are MSB-first: the decoder's highest
        # output appears before its lowest in the RWL bundle.
        rwl_line = next(line for line in text.splitlines()
                        if ".RWL(" in line)
        assert rwl_line.index("rdec_o31") < rwl_line.index("rdec_o0_")


class TestReports:
    def test_timing_report_with_period(self, fig3_library, tech):
        from repro.rtl import fig3_sram
        from repro.synth import run_flow, timing_report
        module, _ = fig3_sram()
        result = run_flow(module, fig3_library, Session(tech),
                          anneal_moves=200)
        text = timing_report(result.timing,
                             period=result.timing.min_period * 2)
        assert "slack" in text
        assert "critical path" in text

    def test_power_report_categories_sorted_by_size(self, fig3_library,
                                                    tech):
        import random
        from repro.rtl import fig3_sram
        from repro.synth import power_report, run_flow
        module, _ = fig3_sram()

        def stimulus(sim):
            rng = random.Random(4)
            for _ in range(20):
                sim.set_input("raddr", rng.randrange(32))
                sim.set_input("waddr", rng.randrange(32))
                sim.set_input("din", rng.randrange(1024))
                sim.set_input("we", 1)
                sim.clock()

        result = run_flow(module, fig3_library, Session(tech),
                          stimulus=stimulus, anneal_moves=200)
        text = power_report(result.power)
        assert "dynamic" in text
        assert "brick_read" in text


class TestComponentEdgeCases:
    def test_onehot_mux_many_options(self, stdlib):
        """More than four options falls back to the OR-tree collect."""
        from repro.rtl import (
            LogicSimulator,
            Module,
            as_bus,
            elaborate,
            onehot_mux,
        )
        m = Module("wide")
        m.input("clk")
        options = [as_bus(m.input(f"d{i}", 2)) for i in range(6)]
        sel = as_bus(m.input("sel", 6))
        m.alias(m.output("y", 2), onehot_mux(m, options, sel))
        sim = LogicSimulator(elaborate(m, stdlib))
        for i in range(6):
            sim.set_input(f"d{i}", i % 4)
        for i in range(6):
            sim.set_input("sel", 1 << i)
            sim.settle()
            assert sim.get_output("y") == i % 4


class TestDramThrash:
    def test_alternating_rows_always_miss(self):
        from repro.spgemm import DRAMChannel, DRAMConfig
        config = DRAMConfig(row_bytes=128, bytes_per_access=16)
        channel = DRAMChannel(config)
        for i in range(20):
            channel.access((i % 2) * 4096)
        assert channel.hit_rate == 0.0
        assert channel.cycles == 20 * config.miss_cycles

    def test_blocked_mapping_beats_thrashing(self):
        """The [12] point: sub-block row mapping turns the same traffic
        from all-miss to mostly-hit."""
        from repro.spgemm import DRAMChannel, column_blocks, \
            erdos_renyi, stream_block
        matrix = erdos_renyi(64, 0.2, seed=3)
        good = DRAMChannel()
        for block in column_blocks(matrix, 32):
            stream_block(good, block)
        bad = DRAMChannel()
        for block in column_blocks(matrix, 32):
            # Interleave two far-apart regions access-by-access: the
            # un-mapped layout where matrix data straddles rows.
            for i in range(0, block.n_bytes, 32):
                bad.access(block.base_address + i)
                bad.access(block.base_address + (1 << 22) + i)
        assert good.hit_rate > bad.hit_rate
        assert bad.hit_rate < 0.1
