"""Tests for the Liberty parser and write/parse round trips."""

import pytest

from repro.bricks import generate_brick_library, sram_brick
from repro.errors import LibraryError
from repro.liberty import (
    LibertyWriter,
    parse_liberty_text,
    parse_library,
    read_liberty,
    write_liberty,
)
from repro.session import Session


class TestGroupParsing:
    def test_minimal_library(self):
        root = parse_liberty_text(
            'library (mini) { time_unit : "1ns"; }')
        assert root.name == "library"
        assert root.args == "mini"
        assert root.attributes["time_unit"] == "1ns"

    def test_nested_groups(self):
        root = parse_liberty_text(
            "library (l) { cell (X) { area : 2.5; pin (A) { "
            "direction : input; capacitance : 1.0; } } }")
        cell = root.child("cell")
        assert cell.args == "X"
        assert cell.attributes["area"] == "2.5"
        assert cell.child("pin").attributes["capacitance"] == "1.0"

    def test_complex_attributes(self):
        root = parse_liberty_text(
            'library (l) { cell (X) { pin (Y) { direction : output; '
            'timing () { related_pin : "A"; cell_rise (t) { '
            'index_1 ("1, 2"); index_2 ("3, 4"); '
            'values ("0.1, 0.2", "0.3, 0.4"); } } } } }')
        timing = root.child("cell").child("pin").child("timing")
        rise = timing.child("cell_rise")
        assert "index_1" in rise.complex_attributes

    def test_comments_collected(self):
        root = parse_liberty_text(
            "library (l) { /* technology : cmos65 */ }")
        assert any("cmos65" in c for c in root.comments)

    def test_non_library_root_rejected(self):
        with pytest.raises(LibraryError):
            parse_liberty_text("cell (X) { }")

    def test_unterminated_group_rejected(self):
        with pytest.raises(LibraryError):
            parse_liberty_text("library (l) { cell (X) {")


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def roundtripped(self, tech, stdlib):
        from repro.cells import make_stdcell_library
        small = make_stdcell_library(
            tech, gates=["INV", "NAND2", "NOR2", "DFF"])
        bricks, _ = generate_brick_library(
            [(sram_brick(16, 10), 2)], Session(tech))
        original = small.merged_with(bricks)
        parsed = parse_library(LibertyWriter(original).text())
        return original, parsed

    def test_all_cells_survive(self, roundtripped):
        original, parsed = roundtripped
        assert set(parsed.cells) == set(original.cells)

    def test_area_and_caps_exact(self, roundtripped):
        original, parsed = roundtripped
        for name in original.cells:
            cell_a = original.cell(name)
            cell_b = parsed.cell(name)
            assert cell_b.area == pytest.approx(cell_a.area, rel=1e-4)
            for pin in cell_a.input_pins():
                assert cell_b.pin_cap(pin) == pytest.approx(
                    cell_a.pin_cap(pin), rel=1e-4)

    def test_delay_luts_agree_on_and_off_grid(self, roundtripped):
        original, parsed = roundtripped
        arc_a = original.cell("NAND2_X2").arc("A", "Y")
        arc_b = parsed.cell("NAND2_X2").arc("A", "Y")
        for slew, load in [(1e-12, 1e-15), (1.5e-11, 7e-15),
                           (8e-11, 4e-14)]:
            assert arc_b.delay_value(slew, load) == pytest.approx(
                arc_a.delay_value(slew, load), rel=1e-3)

    def test_brick_arcs_and_energy_survive(self, roundtripped):
        original, parsed = roundtripped
        brick_a = original.cell("brick_16_10_s2")
        brick_b = parsed.cell("brick_16_10_s2")
        assert brick_b.arc("CLK", "ARBL").delay_value(
            1e-12, 2e-15) == pytest.approx(
            brick_a.arc("CLK", "ARBL").delay_value(1e-12, 2e-15),
            rel=1e-3)
        assert brick_b.energy_of("read", 1e-12, 2e-15) == \
            pytest.approx(brick_a.energy_of("read", 1e-12, 2e-15),
                          rel=1e-3)

    def test_sequential_flags_survive(self, roundtripped):
        _, parsed = roundtripped
        dff = parsed.cell("DFF_X1")
        assert dff.sequential
        assert dff.clock_pin == "CK"
        assert not parsed.cell("INV_X1").sequential

    def test_leakage_survives(self, roundtripped):
        original, parsed = roundtripped
        assert parsed.cell("INV_X4").leakage == pytest.approx(
            original.cell("INV_X4").leakage, rel=1e-3)

    def test_file_roundtrip(self, roundtripped, tmp_path):
        original, _ = roundtripped
        path = tmp_path / "lib.lib"
        write_liberty(original, str(path))
        loaded = read_liberty(str(path))
        assert set(loaded.cells) == set(original.cells)
