"""Tests for brick specification and the compiler's sizing pass."""

import pytest

from repro.bricks import BrickSpec, cam_brick, compile_brick, sram_brick
from repro.errors import BrickError


class TestBrickSpec:
    def test_canonical_names_match_fig3(self):
        assert sram_brick(16, 10).name == "brick_16_10"
        assert cam_brick(16, 10).name == "cam_brick_16_10"

    def test_non_power_of_two_sizes_allowed(self):
        # "Any unconventional bit, row, and stacking numbers
        # (non-multiple of 8) are also permitted" (Section 3).
        spec = sram_brick(13, 11)
        assert spec.capacity_bits == 143

    def test_zero_words_rejected(self):
        with pytest.raises(BrickError):
            BrickSpec("8T", 0, 8)

    def test_unknown_type_rejected(self):
        with pytest.raises(BrickError):
            BrickSpec("5T", 16, 8)

    def test_oversized_rejected(self):
        with pytest.raises(BrickError):
            BrickSpec("8T", 100000, 8)

    def test_cam_flag(self):
        assert cam_brick(16, 10).is_cam
        assert not sram_brick(16, 10).is_cam


class TestCompiler:
    def test_compiles_canonical_brick(self, brick_16x10):
        assert brick_16x10.spec.words == 16
        assert brick_16x10.wl_driver.stage_caps
        assert brick_16x10.control.stage_caps

    def test_wl_driver_chain_is_odd(self, tech):
        # The wordline must pulse high out of the gating NAND.
        for words, bits in [(4, 4), (16, 10), (64, 32), (13, 7)]:
            compiled = compile_brick(sram_brick(words, bits), tech)
            assert len(compiled.wl_driver.stage_caps) % 2 == 1

    def test_control_chain_is_even_and_preb_odd(self, tech):
        compiled = compile_brick(sram_brick(16, 10), tech)
        assert len(compiled.control.stage_caps) % 2 == 0
        assert len(compiled.control.preb_stage_caps) % 2 == 1

    def test_wider_brick_gets_stronger_wl_driver(self, tech):
        narrow = compile_brick(sram_brick(16, 4), tech)
        wide = compile_brick(sram_brick(16, 64), tech)
        assert wide.wl_driver.stage_caps[-1] > \
            narrow.wl_driver.stage_caps[-1]

    def test_deeper_stack_gets_bigger_pulldown(self, tech):
        s1 = compile_brick(sram_brick(16, 10), tech, target_stack=1)
        s8 = compile_brick(sram_brick(16, 10), tech, target_stack=8)
        assert s8.sense.w_pull > s1.sense.w_pull

    def test_pulldown_sizing_bounded(self, tech):
        # The self-loading fixed point must not diverge at deep stacks.
        for stack in (1, 4, 8, 16, 32):
            compiled = compile_brick(sram_brick(16, 10), tech,
                                     target_stack=stack)
            assert compiled.sense.w_pull <= 16.0 * tech.w_min_um + 1e-12

    def test_invalid_stack_rejected(self, tech):
        with pytest.raises(BrickError):
            compile_brick(sram_brick(16, 10), tech, target_stack=0)

    def test_cam_brick_gets_match_periphery(self, tech):
        compiled = compile_brick(cam_brick(16, 10), tech)
        assert compiled.match is not None
        assert compiled.match.sl_stage_caps

    def test_sram_brick_has_no_match_periphery(self, brick_16x10, tech):
        assert brick_16x10.match is None
        with pytest.raises(BrickError):
            brick_16x10.matchline_cap(tech)

    def test_geometry_scales_with_array(self, tech):
        small = compile_brick(sram_brick(8, 8), tech)
        big = compile_brick(sram_brick(32, 16), tech)
        assert big.array_width_um > small.array_width_um
        assert big.array_height_um > small.array_height_um
        assert big.wordline_length_um() == big.array_width_um
