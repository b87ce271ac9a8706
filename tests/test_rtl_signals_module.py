"""Tests for RTL signals, modules and elaboration."""

import pytest

from repro.errors import RTLError
from repro.rtl import Bus, Module, as_bus, bits_to_int, elaborate, \
    int_to_bits


class TestSignals:
    def test_bus_indexing_lsb_first(self):
        m = Module("t")
        bus = m.wire("b", 4)
        assert bus[0].name == "b[0]"
        assert bus.width == 4

    def test_bus_slicing(self):
        m = Module("t")
        bus = m.wire("b", 8)
        low = bus[:4]
        assert isinstance(low, Bus)
        assert low.width == 4
        assert low[0].name == "b[0]"

    def test_int_bits_roundtrip(self):
        for value in (0, 1, 5, 127, 1023):
            assert bits_to_int(int_to_bits(value, 10)) == value

    def test_int_too_big_rejected(self):
        with pytest.raises(RTLError):
            int_to_bits(16, 4)

    def test_as_bus_wraps_net(self):
        m = Module("t")
        net = m.wire("w")
        assert as_bus(net).width == 1


class TestModule:
    def test_duplicate_net_rejected(self):
        m = Module("t")
        m.wire("a")
        with pytest.raises(RTLError):
            m.wire("a")

    def test_duplicate_port_rejected(self):
        m = Module("t")
        m.input("a")
        with pytest.raises(RTLError):
            m.output("a", 2)

    def test_duplicate_instance_rejected(self):
        m = Module("t")
        a, y = m.wire("a"), m.wire("y")
        m.cell("u1", "INV_X1", {"A": a, "Y": y})
        with pytest.raises(RTLError):
            m.cell("u1", "INV_X1", {"A": y, "Y": a})

    def test_alias_width_mismatch_rejected(self):
        m = Module("t")
        with pytest.raises(RTLError):
            m.alias(m.wire("a", 2), m.wire("b", 3))


class TestElaborate:
    def test_simple_inverter(self, stdlib):
        m = Module("t")
        a = m.input("a")
        y = m.output("y")
        m.cell("u1", "INV_X1", {"A": a, "Y": y})
        flat = elaborate(m, stdlib)
        assert flat.stats()["cells"] == 1
        assert len(flat.inputs["a"]) == 1

    def test_nets_numbered_in_first_use_order(self, stdlib):
        # Cells number their nets in order, then ports nothing else
        # references; names are the module's own, unprefixed.
        m = Module("t")
        m.input("clk")
        a = m.input("a")
        y = m.output("y")
        mid = m.wire("mid")
        m.cell("u1", "INV_X1", {"A": a, "Y": mid})
        m.cell("u2", "INV_X1", {"A": mid, "Y": y})
        flat = elaborate(m, stdlib)
        assert flat.net_names == ["a", "mid", "y", "clk"]
        assert [(c.name, c.pins) for c in flat.cells] == [
            ("u1", {"A": 0, "Y": 1}), ("u2", {"A": 1, "Y": 2})]
        assert flat.inputs == {"clk": [3], "a": [0]}
        assert flat.outputs == {"y": [2]}

    def test_aliases_merge_nets(self, stdlib):
        m = Module("t")
        a = m.input("a")
        y = m.output("y")
        mid = m.wire("mid")
        m.cell("u1", "INV_X1", {"A": a, "Y": mid})
        m.alias(y, mid)
        flat = elaborate(m, stdlib)
        assert flat.outputs["y"][0] == flat.cells[0].pins["Y"]

    def test_double_driver_detected(self, stdlib):
        m = Module("t")
        a = m.input("a")
        y = m.output("y")
        m.cell("u1", "INV_X1", {"A": a, "Y": y})
        m.cell("u2", "INV_X1", {"A": a, "Y": y})
        # Validation runs inside elaborate and must flag the clash.
        with pytest.raises(RTLError):
            elaborate(m, stdlib)

    def test_undriven_loaded_net_detected(self, stdlib):
        m = Module("t")
        y = m.output("y")
        floating = m.wire("f")
        m.cell("u1", "INV_X1", {"A": floating, "Y": y})
        with pytest.raises(RTLError):
            elaborate(m, stdlib)

    def test_constants_become_net_values(self, stdlib):
        m = Module("t")
        y = m.output("y")
        one = as_bus(m.constant(1))[0]
        m.cell("u1", "INV_X1", {"A": one, "Y": y})
        flat = elaborate(m, stdlib)
        const_net = flat.cells[0].pins["A"]
        assert flat.constants[const_net] is True

    def test_brick_bus_pins_expand(self, fig3_library):
        m = Module("t")
        clk = m.input("clk")
        rwl = m.input("rwl", 32)
        wwl = m.input("wwl", 32)
        wbl = m.input("din", 10)
        we = m.input("we")
        arbl = m.output("dout", 10)
        m.cell("bank", "brick_16_10_s2", {
            "CLK": clk, "RWL": rwl, "WWL": wwl, "WBL": wbl,
            "WE": we, "ARBL": arbl})
        flat = elaborate(m, fig3_library)
        cell = flat.cells[0]
        assert "RWL[31]" in cell.pins
        assert "ARBL[9]" in cell.pins
        assert cell.base_pin("RWL[31]") == "RWL"

    def test_stats_counts_brick_and_logic(self, fig3_library):
        from repro.rtl import fig3_sram
        m, _ = fig3_sram()
        flat = elaborate(m, fig3_library)
        stats = flat.stats()
        assert stats["bricks"] == 1
        assert stats["combinational"] > 50
