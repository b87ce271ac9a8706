"""Tests for standard-cell library characterization."""

import pytest

from repro.cells import (
    DEFAULT_DRIVES,
    make_stdcell,
    make_stdcell_library,
    unit_input_cap,
)
from repro.circuit import CATALOG, gate_type
from repro.errors import LibraryError


class TestLibraryShape:
    def test_every_gate_at_every_drive(self, stdlib):
        assert len(stdlib) == len(CATALOG) * len(DEFAULT_DRIVES)

    def test_cell_names(self, stdlib):
        assert "INV_X1" in stdlib.cells
        assert "NAND2_X4" in stdlib.cells

    def test_restricted_gate_list(self, tech):
        lib = make_stdcell_library(tech, gates=["INV", "NAND2"])
        assert len(lib) == 2 * len(DEFAULT_DRIVES)

    def test_library_records_tech(self, stdlib, tech):
        assert stdlib.tech_name == tech.name


class TestTiming:
    def test_delay_decreases_with_drive(self, stdlib, tech):
        load = 20e-15
        slew = 20e-12
        d1 = stdlib.cell("INV_X1").arc("A", "Y").delay_value(slew, load)
        d4 = stdlib.cell("INV_X4").arc("A", "Y").delay_value(slew, load)
        assert d4 < d1

    def test_delay_increases_with_load(self, stdlib):
        arc = stdlib.cell("NAND2_X1").arc("A", "Y")
        assert arc.delay_value(1e-12, 20e-15) > \
            arc.delay_value(1e-12, 2e-15)

    def test_delay_increases_with_input_slew(self, stdlib):
        arc = stdlib.cell("NAND2_X1").arc("A", "Y")
        assert arc.delay_value(100e-12, 5e-15) > \
            arc.delay_value(5e-12, 5e-15)

    def test_input_cap_scales_with_drive(self, stdlib):
        c1 = stdlib.cell("INV_X1").pin_cap("A")
        c8 = stdlib.cell("INV_X8").pin_cap("A")
        assert c8 == pytest.approx(8 * c1, rel=1e-6)

    def test_nor_slower_than_nand_at_same_drive(self, stdlib):
        # Classic logical-effort fact (PMOS stacks hurt).
        load, slew = 10e-15, 10e-12
        d_nand = stdlib.cell("NAND2_X1").pin_cap("A")
        d_nor = stdlib.cell("NOR2_X1").pin_cap("A")
        assert d_nor > d_nand  # higher g -> bigger input cap

    def test_flop_has_clk_to_q_arc_and_constraints(self, stdlib, tech):
        dff = stdlib.cell("DFF_X1")
        assert dff.sequential
        assert dff.clock_pin == "CK"
        assert dff.setup > 0
        assert dff.hold >= 0
        assert dff.setup > dff.hold
        arc = dff.arc("CK", "Y")
        assert arc.delay_value(10e-12, 5e-15) > 0


class TestDriveLadder:
    """Across the drive ladder, a bigger cell wins at a heavy load and
    X1 is cheapest at a light one, for every archetype in the catalog."""

    @pytest.mark.parametrize("gate", sorted(CATALOG))
    def test_bigger_drive_is_faster_at_heavy_load(self, stdlib, tech,
                                                  gate):
        load = 16 * max(DEFAULT_DRIVES) * unit_input_cap(tech)
        slew = 20e-12
        cells = [stdlib.cell(f"{gate}_X{d}") for d in DEFAULT_DRIVES]
        for arc in cells[0].arcs:
            delays = [c.arc(arc.from_pin, arc.to_pin).delay_value(
                slew, load) for c in cells]
            assert all(a > b for a, b in zip(delays, delays[1:])), \
                (arc.from_pin, delays)

    @pytest.mark.parametrize("gate", sorted(CATALOG))
    def test_x1_is_cheapest_at_unit_load(self, stdlib, tech, gate):
        load = unit_input_cap(tech)
        energies = [stdlib.cell(f"{gate}_X{d}").energy_of(
            "switch", 20e-12, load) for d in DEFAULT_DRIVES]
        assert all(a < b for a, b in zip(energies, energies[1:])), \
            energies


class TestEnergyAreaLeakage:
    def test_switch_energy_grows_with_load(self, stdlib):
        inv = stdlib.cell("INV_X1")
        assert inv.energy_of("switch", 1e-12, 20e-15) > \
            inv.energy_of("switch", 1e-12, 2e-15)

    def test_energy_scale_plausible(self, stdlib):
        # An X1 inverter switching a few fF at 1.2 V: single-digit fJ.
        e = stdlib.cell("INV_X1").energy_of("switch", 10e-12, 3e-15)
        assert 1e-15 < e < 2e-14

    def test_area_grows_with_drive_and_complexity(self, stdlib):
        assert stdlib.cell("INV_X4").area > stdlib.cell("INV_X1").area
        assert stdlib.cell("NAND4_X1").area > \
            stdlib.cell("NAND2_X1").area

    def test_leakage_scales_with_drive(self, stdlib):
        assert stdlib.cell("INV_X8").leakage == pytest.approx(
            8 * stdlib.cell("INV_X1").leakage, rel=1e-6)

    def test_flop_has_clock_energy(self, stdlib):
        assert stdlib.cell("DFF_X1").energy_of("clock") > 0

    def test_invalid_drive_rejected(self, tech):
        with pytest.raises(LibraryError):
            make_stdcell(gate_type("INV"), 0, tech)
