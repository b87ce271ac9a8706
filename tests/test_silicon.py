"""Tests for process variation and test-chip measurement emulation."""

import pytest

from repro.errors import SiliconError
from repro.session import Session
from repro.silicon import (
    CONFIG_NAMES,
    VariationModel,
    build_config,
    config_bank,
    measure_chips,
    run_config_flow,
    simulate_corners,
)


class TestVariation:
    def test_sampling_deterministic(self):
        model = VariationModel()
        a = model.sample(4, seed=1)
        b = model.sample(4, seed=1)
        assert a == b

    def test_different_seeds_differ(self):
        model = VariationModel()
        assert model.sample(4, seed=1) != model.sample(4, seed=2)

    def test_scales_near_unity(self):
        for chip in VariationModel().sample(16, seed=3):
            assert 0.7 < chip.r_scale < 1.4
            assert 0.85 < chip.c_scale < 1.2
            assert 0.94 < chip.vdd_scale < 1.07

    def test_fast_silicon_leaks_more(self):
        chips = VariationModel().sample(32, seed=4)
        fast = min(chips, key=lambda c: c.r_scale)
        slow = max(chips, key=lambda c: c.r_scale)
        assert fast.leak_scale > slow.leak_scale

    def test_apply_produces_perturbed_tech(self, tech):
        chip = VariationModel().sample(1, seed=5)[0]
        die = chip.apply(tech)
        assert die.r_on_n == pytest.approx(tech.r_on_n * chip.r_scale)

    def test_zero_chips_rejected(self):
        with pytest.raises(SiliconError):
            VariationModel().sample(0)


class TestTestchipConfigs:
    def test_config_geometries_match_fig4a(self):
        assert config_bank("A").words == 16
        assert config_bank("B").words == 32
        assert config_bank("C").words == 64
        assert config_bank("D").words == 128
        e = config_bank("E")
        assert e.words == 128 and e.partitions == 4 and e.stack == 2

    def test_all_configs_use_16x10_brick(self):
        for name in CONFIG_NAMES:
            bank = config_bank(name)
            assert bank.brick.words == 16
            assert bank.brick.bits == 10

    def test_unknown_config_rejected(self):
        with pytest.raises(SiliconError):
            config_bank("F")

    def test_build_config_produces_merged_library(self, tech):
        module, library, bank = build_config("A", Session(tech))
        assert "INV_X1" in library.cells
        assert any(c.is_brick for c in library)

    def test_run_config_flow_a(self, tech):
        result = run_config_flow("A", Session(tech), anneal_moves=300)
        assert result.fmax > 0
        assert result.power.energy_per_cycle > 0


class TestMeasurement:
    def test_measurements_spread_and_track_corners(self, tech):
        measured = measure_chips(["A"], Session(tech), n_chips=3,
                                 anneal_moves=200)
        corners = simulate_corners(["A"], Session(tech), anneal_moves=200)
        m = measured["A"]
        c = corners["A"]
        assert m.min_fmax <= m.mean_fmax <= m.max_fmax
        # The corner bracket must be ordered.
        assert c.fmax_worst < c.fmax_nominal < c.fmax_best
        # Nominal simulation lands within a generous factor of the mean
        # measurement (the Fig. 4b tracking claim at smoke scale).
        assert 0.6 < c.fmax_nominal / m.mean_fmax < 1.6
