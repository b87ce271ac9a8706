"""Tests for bitcell models."""

import pytest

from repro.cells import (
    CAM_10T,
    MEMORY_TYPES,
    SRAM_6T,
    SRAM_8T,
    make_bitcell,
)
from repro.errors import BrickError


class TestCatalog:
    def test_all_types_construct(self, tech):
        for memory_type in MEMORY_TYPES:
            assert make_bitcell(memory_type, tech).memory_type == \
                memory_type

    def test_unknown_type_rejected(self, tech):
        with pytest.raises(BrickError):
            make_bitcell("9T", tech)

    def test_dimensions_snap_to_pitches(self, tech):
        for memory_type in MEMORY_TYPES:
            cell = make_bitcell(memory_type, tech)
            assert cell.width_um % tech.poly_pitch_um == pytest.approx(
                0.0, abs=1e-9)
            assert cell.height_um % tech.m1_pitch_um == pytest.approx(
                0.0, abs=1e-9)


class TestElectrical:
    def test_8t_read_stack_two_series_devices(self, tech):
        cell = make_bitcell(SRAM_8T, tech)
        assert cell.r_read == pytest.approx(
            2.0 * tech.r_on_n / cell.w_read_um)

    def test_wordline_load_is_gate_cap(self, tech):
        cell = make_bitcell(SRAM_8T, tech)
        assert cell.c_rwl == pytest.approx(tech.c_gate * cell.w_read_um)

    def test_bitline_load_is_diffusion_cap(self, tech):
        cell = make_bitcell(SRAM_8T, tech)
        assert cell.c_rbl == pytest.approx(tech.c_diff * cell.w_read_um)

    def test_edram_read_is_destructive(self, tech):
        assert make_bitcell("EDRAM", tech).destructive_read


class TestCamCell:
    def test_cam_area_ratio_near_paper(self, tech):
        """Section 5: CAM brick area is 83 % bigger than SRAM brick —
        anchored at the bitcell level here (brick-level checked in the
        layout tests)."""
        sram = make_bitcell(SRAM_8T, tech)
        cam = make_bitcell(CAM_10T, tech)
        ratio = cam.area_um2 / sram.area_um2
        assert 1.5 < ratio < 2.2

    def test_cam_has_match_parameters(self, tech):
        cam = make_bitcell(CAM_10T, tech)
        assert cam.c_ml > 0
        assert cam.c_sl > 0
        assert cam.r_match > 0
        assert cam.is_cam

    def test_sram_has_no_match_parameters(self, tech):
        sram = make_bitcell(SRAM_8T, tech)
        assert sram.c_ml == 0.0
        assert not sram.is_cam

    def test_area_ordering_by_complexity(self, tech):
        a6 = make_bitcell(SRAM_6T, tech).area_um2
        a8 = make_bitcell(SRAM_8T, tech).area_um2
        acam = make_bitcell(CAM_10T, tech).area_um2
        aedram = make_bitcell("EDRAM", tech).area_um2
        assert aedram < a6 < a8 < acam
