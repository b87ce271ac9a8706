"""Tests for dynamic brick library generation and bank composition."""

import pytest

from repro.bricks import (
    BankConfig,
    bank_cell_name,
    brick_cell_model,
    cam_brick,
    compile_brick,
    generate_brick_library,
    partitioned,
    single_partition,
    sram_brick,
)
from repro.errors import BrickError, LibraryError
from repro.session import Session


class TestBrickCellModel:
    def test_interface_pins(self, brick_16x10, tech):
        cell = brick_cell_model(brick_16x10, tech, stack=1)
        for pin in ("CLK", "RWL", "WWL", "WBL", "WE"):
            assert cell.pins[pin].direction in ("input", "clock")
        assert cell.pins["ARBL"].direction == "output"

    def test_marked_as_brick_with_metadata(self, brick_16x10, tech):
        cell = brick_cell_model(brick_16x10, tech, stack=1)
        assert cell.is_brick
        assert cell.attrs["words"] == 16
        assert cell.attrs["bits"] == 10
        assert cell.sequential
        assert cell.clock_pin == "CLK"

    def test_clk_to_arbl_arc_tracks_estimator(self, brick_16x10, tech):
        from repro.bricks import estimate_brick
        cell = brick_cell_model(brick_16x10, tech, stack=1)
        est = estimate_brick(brick_16x10, tech, stack=1)
        arc = cell.arc("CLK", "ARBL")
        # At the characterization default load and tiny slew the LUT
        # should land near the estimate.
        assert arc.delay_value(1e-12, 2e-15) == pytest.approx(
            est.read_delay, rel=0.15)

    def test_delay_lut_increases_with_load(self, brick_16x10, tech):
        arc = brick_cell_model(brick_16x10, tech).arc("CLK", "ARBL")
        assert arc.delay_value(1e-12, 40e-15) > \
            arc.delay_value(1e-12, 1e-15)

    def test_energy_ops_present(self, brick_16x10, tech):
        cell = brick_cell_model(brick_16x10, tech)
        assert cell.energy_of("read", 1e-12, 2e-15) > 0
        assert cell.energy_of("write") > 0
        assert cell.energy_of("clock") > 0

    def test_cam_model_has_match_interface(self, tech):
        compiled = compile_brick(cam_brick(8, 8), tech)
        cell = brick_cell_model(compiled, tech)
        assert "SL" in cell.pins
        assert "ML" in cell.pins
        assert cell.energy_of("match") > 0
        assert cell.arc("CLK", "ML").delay_value(0, 0) > 0


class TestGenerateLibrary:
    def test_fig4c_nine_bricks_within_two_seconds(self, tech):
        """The paper's wall-clock claim, asserted as a hard bound."""
        requests = [(sram_brick(w, b), 128 // w)
                    for w in (16, 32, 64) for b in (8, 16, 32)]
        library, elapsed = generate_brick_library(requests, Session(tech))
        assert len(library) == 9
        assert elapsed < 2.0

    def test_names_follow_convention(self, tech):
        library, _ = generate_brick_library(
            [(sram_brick(16, 10), 2)], Session(tech))
        assert bank_cell_name(sram_brick(16, 10), 2) in library.cells

    def test_empty_request_rejected(self, tech):
        with pytest.raises(LibraryError):
            generate_brick_library([], Session(tech))


class TestBankConfig:
    def test_fig3_configuration(self):
        config = single_partition(sram_brick(16, 10), 32)
        assert config.stack == 2
        assert config.words == 32
        assert "32x10b" in config.describe()

    def test_partitioned_config_e(self):
        config = partitioned(sram_brick(16, 10), 128, 4)
        assert config.partitions == 4
        assert config.stack == 2
        assert config.words_per_partition == 32
        assert config.n_bricks == 8

    def test_indivisible_words_rejected(self):
        with pytest.raises(BrickError):
            single_partition(sram_brick(16, 10), 40)

    def test_indivisible_partitions_rejected(self):
        with pytest.raises(BrickError):
            partitioned(sram_brick(16, 10), 128, 3)

    def test_invalid_counts_rejected(self):
        with pytest.raises(BrickError):
            BankConfig(sram_brick(16, 10), stack=0)
        with pytest.raises(BrickError):
            BankConfig(sram_brick(16, 10), stack=1, partitions=0)
