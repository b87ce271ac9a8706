"""Tests for the parametric leaf cells (WL driver, sense, control)."""

import pytest

from repro.cells import ControlBlock, LocalSense, WordlineDriver, \
    inverter_widths
from repro.circuit import SpiceCircuit, TransientSimulator, ramp
from repro.errors import BrickError
from repro.units import FF, NS, PS


class TestInverterWidths:
    def test_total_gate_cap_matches_request(self, tech):
        c_in = 2e-15
        w_n, w_p = inverter_widths(c_in, tech)
        assert tech.c_gate * (w_n + w_p) == pytest.approx(c_in)

    def test_beta_ratio_applied(self, tech):
        w_n, w_p = inverter_widths(1e-15, tech)
        assert w_p / w_n == pytest.approx(tech.inverter_beta())

    def test_nonpositive_rejected(self, tech):
        with pytest.raises(BrickError):
            inverter_widths(0.0, tech)


class TestWordlineDriver:
    def _driver(self):
        return WordlineDriver(nand_input_cap=1e-15,
                              stage_caps=(1e-15, 4e-15, 16e-15))

    def test_input_caps(self):
        drv = self._driver()
        assert drv.enable_cap() == 1e-15

    def test_area_scales_with_stage_sizes(self, tech):
        small = WordlineDriver(1e-15, (1e-15,))
        big = WordlineDriver(1e-15, (1e-15, 8e-15, 64e-15))
        assert big.area_um2(tech, 0.6) > small.area_um2(tech, 0.6)

    def test_even_stage_count_rejected_in_spice(self, tech):
        drv = WordlineDriver(1e-15, (1e-15, 4e-15))
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        with pytest.raises(BrickError):
            drv.build_spice(ckt, "w", "dwl", "en", "wl", "vdd", tech)

    def test_spice_wordline_fires_on_enable(self, tech):
        drv = WordlineDriver(0.5e-15, (0.5e-15, 2e-15, 8e-15))
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        ckt.add_vsource("dwl", "dwl", tech.vdd)
        ckt.add_vsource("en", "en",
                        ramp(0.1 * NS, 10 * PS, 0.0, tech.vdd))
        drv.build_spice(ckt, "w", "dwl", "en", "wl", "vdd", tech)
        ckt.add_capacitor("cwl", "wl", 5 * FF)
        result = TransientSimulator(ckt, tech).run(t_stop=1 * NS,
                                                   dt=1 * PS)
        assert result.waveform("wl").v[-1] == pytest.approx(
            tech.vdd, abs=0.05)


class TestLocalSense:
    def _sense(self, tech):
        w = tech.w_min_um
        return LocalSense(w_sense_n=2 * w, w_sense_p=3 * w,
                          w_pull=8 * w, w_precharge=4 * w)

    def test_spice_senses_falling_lbl(self, tech):
        sense = self._sense(tech)
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        ckt.add_vsource("preb", "preb", tech.vdd)  # precharge off
        ckt.add_vsource("lbl", "lbl",
                        ramp(0.1 * NS, 20 * PS, tech.vdd, 0.0))
        sense.build_spice(ckt, "s", "lbl", "arbl", "preb", "vdd", tech)
        ckt.add_capacitor("carbl", "arbl", 10 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=1 * NS, dt=1 * PS, v_init={"arbl": tech.vdd})
        # LBL falls -> sense fires -> ARBL pulled low.
        assert result.waveform("arbl").v[-1] == pytest.approx(0.0,
                                                              abs=0.05)


class TestControlBlock:
    def _ctrl(self):
        return ControlBlock(stage_caps=(1e-15, 4e-15),
                            preb_stage_caps=(1e-15, 3e-15, 9e-15))

    def test_clock_cap_is_first_stage(self):
        assert self._ctrl().clock_cap() == 1e-15

    def test_odd_enable_chain_rejected(self, tech):
        ctrl = ControlBlock(stage_caps=(1e-15,), preb_stage_caps=(1e-15,))
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        with pytest.raises(BrickError):
            ctrl.build_spice(ckt, "c", "clk", "en", "preb", "vdd", tech)

    def test_even_preb_chain_rejected(self, tech):
        ctrl = ControlBlock(stage_caps=(1e-15, 4e-15),
                            preb_stage_caps=(1e-15, 2e-15))
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        with pytest.raises(BrickError):
            ctrl.build_spice(ckt, "c", "clk", "en", "preb", "vdd", tech)

    def test_spice_polarities(self, tech):
        """Clock high -> enable high AND precharge-bar high (off)."""
        ctrl = self._ctrl()
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        ckt.add_vsource("clk", "clk",
                        ramp(0.1 * NS, 10 * PS, 0.0, tech.vdd))
        ctrl.build_spice(ckt, "c", "clk", "en", "preb", "vdd", tech)
        ckt.add_capacitor("cen", "en", 5 * FF)
        ckt.add_capacitor("cpreb", "preb", 5 * FF)
        result = TransientSimulator(ckt, tech).run(t_stop=1.5 * NS,
                                                   dt=1 * PS)
        assert result.waveform("en").v[-1] == pytest.approx(tech.vdd,
                                                            abs=0.05)
        assert result.waveform("preb").v[-1] == pytest.approx(
            tech.vdd, abs=0.05)
