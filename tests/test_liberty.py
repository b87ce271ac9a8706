"""Tests for NLDM LUTs, cell models and the Liberty writer."""

import pytest

from repro.errors import LibraryError
from repro.liberty import (
    INPUT,
    LUT2D,
    OUTPUT,
    CellModel,
    LibertyWriter,
    LibraryModel,
    PinModel,
    TimingArc,
    write_liberty,
)


def _lut():
    return LUT2D(
        slews=(1.0, 2.0),
        loads=(10.0, 20.0, 30.0),
        values=((1.0, 2.0, 3.0),
                (2.0, 3.0, 4.0)),
    )


class TestLUT2D:
    def test_exact_at_grid_points(self):
        lut = _lut()
        for i, s in enumerate(lut.slews):
            for j, ld in enumerate(lut.loads):
                assert lut.value(s, ld) == pytest.approx(
                    lut.values[i][j])

    def test_bilinear_interior(self):
        lut = _lut()
        assert lut.value(1.5, 15.0) == pytest.approx(2.0)

    def test_linear_extrapolation_above(self):
        lut = _lut()
        # Slope along loads is 0.1/unit: extrapolate past 30.
        assert lut.value(1.0, 40.0) == pytest.approx(4.0)

    def test_linear_extrapolation_below(self):
        lut = _lut()
        assert lut.value(1.0, 0.0) == pytest.approx(0.0)

    def test_constant_lut(self):
        lut = LUT2D.constant(7.5)
        assert lut.value(123.0, -5.0) == 7.5

    def test_from_function(self):
        lut = LUT2D.from_function(lambda s, ld: s + ld, (0.0, 1.0),
                                  (0.0, 2.0))
        assert lut.value(1.0, 2.0) == pytest.approx(3.0)
        assert lut.value(0.5, 1.0) == pytest.approx(1.5)

    def test_axes_must_increase(self):
        with pytest.raises(LibraryError):
            LUT2D((2.0, 1.0), (0.0,), ((1.0,), (2.0,)))

    def test_grid_shape_checked(self):
        with pytest.raises(LibraryError):
            LUT2D((1.0,), (1.0, 2.0), ((1.0,),))

    def test_scaled(self):
        lut = _lut().scaled(2.0)
        assert lut.value(1.0, 10.0) == pytest.approx(2.0)

    def test_single_row_interpolates_along_loads_only(self):
        row = LUT2D((1.0,), (1.0, 2.0, 3.0), ((1.0, 4.0, 9.0),))
        assert row.value(-7.0, 2.5) == pytest.approx(6.5)
        assert row.value(9.9, 2.5) == pytest.approx(6.5)
        assert row.value(1.0, 4.0) == pytest.approx(14.0)  # extrapolated

    def test_single_column_interpolates_along_slews_only(self):
        col = LUT2D((1.0, 2.0, 3.0), (1.0,), ((1.0,), (4.0,), (9.0,)))
        assert col.value(1.5, -7.0) == pytest.approx(2.5)
        assert col.value(1.5, 9.9) == pytest.approx(2.5)
        assert col.value(0.0, 1.0) == pytest.approx(-2.0)  # extrapolated

    def test_duplicate_axis_points_rejected(self):
        with pytest.raises(LibraryError):
            LUT2D((1.0, 1.0), (0.0,), ((1.0,), (2.0,)))

    def test_characterized_brick_lut_hits_its_grid(self, fig3_library):
        arc = fig3_library.cell("brick_16_10_s2").arc("CLK", "ARBL")
        lut = arc.delay
        for i, s in enumerate(lut.slews):
            for j, ld in enumerate(lut.loads):
                assert lut.value(s, ld) == lut.values[i][j]
        mid = lut.slews[len(lut.slews) // 2]
        delays = [lut.value(mid, ld) for ld in lut.loads]
        assert delays == sorted(delays)

    def test_from_grid_matches_from_function(self):
        fn = lambda s, ld: 1.0 + 2.0 * s + 3.0 * ld  # noqa: E731
        slews, loads = (0.0, 1.0), (0.0, 2.0, 4.0)
        grid = [[fn(s, ld) for ld in loads] for s in slews]
        assert LUT2D.from_grid(slews, loads, grid) == \
            LUT2D.from_function(fn, slews, loads)


def _cell():
    delay = LUT2D.constant(1e-10)
    return CellModel(
        name="TESTCELL",
        area=2.0,
        pins={
            "A": PinModel("A", INPUT, cap=1e-15),
            "Y": PinModel("Y", OUTPUT),
        },
        arcs=[TimingArc("A", "Y", delay, delay)],
        energy={"switch": LUT2D.constant(1e-15)},
        leakage=1e-9,
    )


class TestCellModel:
    def test_pin_queries(self):
        cell = _cell()
        assert cell.input_pins() == ["A"]
        assert cell.output_pins() == ["Y"]
        assert cell.pin_cap("A") == 1e-15

    def test_arc_lookup(self):
        cell = _cell()
        assert cell.arc("A", "Y").delay_value(0, 0) == 1e-10
        with pytest.raises(LibraryError):
            cell.arc("Y", "A")

    def test_energy_lookup(self):
        cell = _cell()
        assert cell.energy_of("switch") == 1e-15
        with pytest.raises(LibraryError):
            cell.energy_of("read")

    def test_arc_to_unknown_pin_rejected(self):
        delay = LUT2D.constant(0.0)
        with pytest.raises(LibraryError):
            CellModel(name="BAD", area=1.0,
                      pins={"A": PinModel("A", INPUT, 0.0)},
                      arcs=[TimingArc("A", "Z", delay, delay)])

    def test_sequential_needs_clock_pin(self):
        with pytest.raises(LibraryError):
            CellModel(name="BAD", area=1.0, pins={}, sequential=True)

    def test_is_brick_via_attrs(self):
        cell = _cell()
        assert not cell.is_brick
        cell.attrs["memory_type"] = "8T"
        assert cell.is_brick


class TestLibraryModel:
    def test_add_and_lookup(self):
        lib = LibraryModel("lib", "tech")
        lib.add(_cell())
        assert lib.cell("TESTCELL").area == 2.0

    def test_duplicate_rejected(self):
        lib = LibraryModel("lib", "tech")
        lib.add(_cell())
        with pytest.raises(LibraryError):
            lib.add(_cell())

    def test_missing_raises(self):
        with pytest.raises(LibraryError):
            LibraryModel("lib", "tech").cell("NOPE")

    def test_merge(self):
        lib_a = LibraryModel("a", "tech")
        lib_a.add(_cell())
        lib_b = LibraryModel("b", "tech")
        other = _cell()
        other.name = "OTHER"
        lib_b.add(other)
        merged = lib_a.merged_with(lib_b)
        assert len(merged) == 2


class TestLibertyWriter:
    def test_emits_valid_looking_liberty(self, stdlib):
        text = LibertyWriter(stdlib).text()
        assert text.startswith("library (")
        assert "cell (INV_X1)" in text
        assert "pin (A)" in text
        assert 'related_pin : "A"' in text
        assert "cell_rise" in text
        assert text.count("{") == text.count("}")

    def test_brick_metadata_emitted(self, fig3_library):
        text = LibertyWriter(fig3_library).text()
        assert "brick_16_10_s2" in text
        assert "memory_type" in text

    def test_write_to_file(self, stdlib, tmp_path):
        path = tmp_path / "out.lib"
        write_liberty(stdlib, str(path))
        assert path.read_text().startswith("library (")
