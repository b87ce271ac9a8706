"""Tests for brick layout generation."""

import pytest

from repro.bricks import cam_brick, compile_brick, generate_layout, \
    sram_brick
from repro.errors import LayoutError
from repro.tech import PatternRuleSet, find_hotspots


class TestLayoutGeometry:
    def test_area_exceeds_bitcell_area(self, brick_16x10, tech):
        layout = generate_layout(brick_16x10, tech)
        assert layout.area_um2 > layout.bitcell_area_um2
        assert 0.2 < layout.array_efficiency < 0.95

    def test_strips_present(self, brick_16x10, tech):
        layout = generate_layout(brick_16x10, tech)
        for strip in ("wl_drivers", "sense", "control"):
            assert strip in layout.strips
            assert layout.strips[strip].area > 0

    def test_array_inside_die(self, brick_16x10, tech):
        layout = generate_layout(brick_16x10, tech)
        assert layout.array.x0 >= 0
        assert layout.array.x1 <= layout.width_um + 1e-9
        assert layout.array.y1 <= layout.height_um + 1e-9

    def test_cam_layout_has_extra_strips(self, tech):
        compiled = compile_brick(cam_brick(16, 10), tech)
        layout = generate_layout(compiled, tech)
        assert "sl_drivers" in layout.strips
        assert "ml_sense" in layout.strips

    def test_cam_brick_area_ratio_near_83_percent(self, tech):
        """Section 5: 'the CAM brick area is 83% bigger than SRAM brick
        area' for the same 16x10 array."""
        sram = generate_layout(compile_brick(sram_brick(16, 10), tech),
                               tech)
        cam = generate_layout(compile_brick(cam_brick(16, 10), tech),
                              tech)
        ratio = cam.area_um2 / sram.area_um2
        assert 1.5 < ratio < 2.2

    def test_bigger_array_bigger_layout(self, tech):
        small = generate_layout(compile_brick(sram_brick(8, 8), tech),
                                tech)
        big = generate_layout(compile_brick(sram_brick(32, 16), tech),
                              tech)
        assert big.area_um2 > small.area_um2

    def test_efficiency_improves_with_array_size(self, tech):
        """Periphery amortizes: the whole reason bricks beat compiled
        small macros on area."""
        small = generate_layout(compile_brick(sram_brick(4, 4), tech),
                                tech)
        big = generate_layout(compile_brick(sram_brick(64, 32), tech),
                              tech)
        assert big.array_efficiency > small.array_efficiency


class TestPins:
    def test_all_interface_pins_exist(self, brick_16x10, tech):
        layout = generate_layout(brick_16x10, tech)
        layout.pin("CLK")
        for w in range(16):
            assert layout.pin(f"DWL[{w}]").side == "left"
        for b in range(10):
            assert layout.pin(f"WBL[{b}]").side == "bottom"
            assert layout.pin(f"ARBL[{b}]").side == "bottom"

    def test_cam_pins(self, tech):
        layout = generate_layout(compile_brick(cam_brick(8, 8), tech),
                                 tech)
        assert layout.pin("SL[0]").side == "top"
        assert layout.pin("ML[0]").side == "right"

    def test_missing_pin_raises(self, brick_16x10, tech):
        layout = generate_layout(brick_16x10, tech)
        with pytest.raises(LayoutError):
            layout.pin("NOPE")

    def test_wordline_pins_ordered_bottom_up(self, brick_16x10, tech):
        layout = generate_layout(brick_16x10, tech)
        offsets = [layout.pin(f"DWL[{w}]").offset_um for w in range(16)]
        assert offsets == sorted(offsets)


class TestPatternLegality:
    def test_generated_layout_is_hotspot_free(self, brick_16x10, tech):
        layout = generate_layout(brick_16x10, tech)
        hotspots = find_hotspots(layout.pattern_grid,
                                 PatternRuleSet.default())
        assert hotspots == []

    def test_grid_contains_bitcell_and_periphery_tags(self,
                                                      brick_16x10,
                                                      tech):
        layout = generate_layout(brick_16x10, tech)
        counts = layout.pattern_grid.counts()
        assert counts.get("BC", 0) == 16 * 10
        assert counts.get("PH", 0) > 0
