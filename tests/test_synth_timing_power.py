"""Tests for STA, power analysis, mapping and the full flow."""

import random

import pytest

from repro.errors import PowerError, SynthesisError, TimingError
from repro.rtl import LogicSimulator, Module, elaborate, fig3_sram
from repro.session import Session
from repro.synth import (
    analyze_power,
    build_floorplan,
    flow_report,
    place,
    resize_for_load,
    route,
    run_flow,
)
from repro.units import GHZ, MHZ


def _flow(module, library, tech, **kwargs):
    return run_flow(module, library, Session(tech), anneal_moves=500,
                    **kwargs)


class TestSTA:
    def test_fig3_timing_plausible(self, fig3_library, tech):
        module, _ = fig3_sram()
        result = _flow(module, fig3_library, tech)
        assert 200 * MHZ < result.fmax < 10 * GHZ
        assert result.timing.critical_path

    def test_brick_launch_path_visible(self, fig3_library, tech):
        module, _ = fig3_sram()
        result = _flow(module, fig3_library, tech)
        # Some endpoint must be downstream of the brick or at its pins.
        slacks = result.timing.endpoint_slacks
        assert any("dout" in name or "bank0" in name
                   for name in slacks)

    def test_min_period_bounds_all_endpoints(self, fig3_library, tech):
        module, _ = fig3_sram()
        result = _flow(module, fig3_library, tech)
        worst = max(result.timing.endpoint_slacks.values())
        assert result.timing.min_period == pytest.approx(worst)

    def test_slack_sign(self, fig3_library, tech):
        module, _ = fig3_sram()
        result = _flow(module, fig3_library, tech)
        period = result.timing.min_period
        assert result.timing.slack(period * 1.1) > 0
        assert result.timing.slack(period * 0.9) < 0

    def test_empty_design_rejected(self, stdlib, tech):
        m = Module("empty")
        m.input("clk")
        with pytest.raises((TimingError, SynthesisError)):
            _flow(m, stdlib, tech)

    def test_hold_is_clean(self, fig3_library, tech):
        module, _ = fig3_sram()
        result = _flow(module, fig3_library, tech)
        assert result.timing.worst_hold_slack > 0


class TestResize:
    def test_resize_upsizes_loaded_cells(self, fig3_library, tech):
        module, _ = fig3_sram()
        flat = elaborate(module, fig3_library)
        fp = build_floorplan(flat, tech)
        design = place(flat, fp, anneal_moves=0)
        parasitics = route(design, tech)
        changed = resize_for_load(flat, fig3_library, parasitics, tech)
        assert changed > 0
        drives = {c.model.attrs.get("drive") for c in flat.cells
                  if not c.model.is_brick}
        assert drives - {1}  # something got upsized

    def test_die_fits_resized_cells(self, fig3_library, tech):
        """The ECO pass must leave the die larger than the final cell
        area (resizing cannot silently overflow the floorplan)."""
        module, _ = fig3_sram()
        result = run_flow(module, fig3_library, Session(tech),
                          anneal_moves=500)
        assert result.area_um2 > result.cell_area_um2

    def test_resize_improves_timing(self, fig3_library, tech):
        module, _ = fig3_sram()
        base = run_flow(module, fig3_library, Session(tech),
                        anneal_moves=0, resize=False)
        module2, _ = fig3_sram()
        sized = run_flow(module2, fig3_library, Session(tech),
                         anneal_moves=0, resize=True)
        assert sized.timing.min_period <= base.timing.min_period * 1.02


class TestPower:
    def _stimulated_flow(self, fig3_library, tech):
        module, config = fig3_sram()

        def stimulus(sim):
            rng = random.Random(9)
            for _ in range(60):
                sim.set_input("raddr", rng.randrange(32))
                sim.set_input("waddr", rng.randrange(32))
                sim.set_input("din", rng.randrange(1024))
                sim.set_input("we", 1)
                sim.clock()

        return _flow(module, fig3_library, tech, stimulus=stimulus)

    def test_power_report_structure(self, fig3_library, tech):
        result = self._stimulated_flow(fig3_library, tech)
        power = result.power
        assert power.dynamic_w > 0
        assert power.leakage_w > 0
        assert power.total_w == pytest.approx(
            power.dynamic_w + power.leakage_w)
        assert "brick_read" in power.by_category
        assert power.energy_per_cycle > 0

    def test_power_scales_with_frequency(self, fig3_library, tech):
        module, _ = fig3_sram()

        def stimulus(sim):
            rng = random.Random(9)
            for _ in range(40):
                sim.set_input("raddr", rng.randrange(32))
                sim.set_input("waddr", rng.randrange(32))
                sim.set_input("din", rng.randrange(1024))
                sim.set_input("we", 1)
                sim.clock()

        slow = _flow(module, fig3_library, tech, stimulus=stimulus,
                     freq_hz=100 * MHZ)
        assert slow.power.dynamic_w == pytest.approx(
            slow.power.energy_per_cycle * 100 * MHZ)

    def test_zero_cycles_rejected(self, fig3_library, tech):
        module, _ = fig3_sram()
        flat = elaborate(module, fig3_library)
        sim = LogicSimulator(flat)
        fp = build_floorplan(flat, tech)
        design = place(flat, fp, anneal_moves=0)
        parasitics = route(design, tech)
        with pytest.raises(PowerError):
            analyze_power(flat, sim.activity, parasitics, tech,
                          freq_hz=1 * GHZ)

    def test_flow_report_renders(self, fig3_library, tech):
        result = self._stimulated_flow(fig3_library, tech)
        text = flow_report(result)
        assert "Flow summary" in text
        assert "min period" in text
        assert "energy/cycle" in text
