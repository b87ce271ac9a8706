"""Tests for wire RC models and the switch-level transistor model."""

import pytest

from repro.errors import TechnologyError
from repro.tech import NMOS, PMOS, Transistor, WireLayer


class TestWireLayer:
    def setup_method(self):
        self.layer = WireLayer("M1", r_per_um=2.0, c_per_um=0.3e-15,
                               pitch_um=0.2)

    def test_rc_scales_linearly(self):
        r1, c1 = self.layer.rc(10.0)
        r2, c2 = self.layer.rc(20.0)
        assert r2 == pytest.approx(2 * r1)
        assert c2 == pytest.approx(2 * c1)

    def test_zero_length(self):
        assert self.layer.rc(0.0) == (0.0, 0.0)

    def test_negative_length_rejected(self):
        with pytest.raises(TechnologyError):
            self.layer.rc(-1.0)

    def test_scaled(self):
        derated = self.layer.scaled(r_scale=1.5, c_scale=0.5)
        assert derated.r_per_um == pytest.approx(3.0)
        assert derated.c_per_um == pytest.approx(0.15e-15)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TechnologyError):
            WireLayer("bad", r_per_um=-1.0, c_per_um=0.1e-15,
                      pitch_um=0.2)


class TestTransistor:
    def test_resistance_inverse_in_width(self, tech):
        narrow = Transistor(NMOS, 0.12)
        wide = Transistor(NMOS, 0.24)
        assert narrow.r_on(tech) == pytest.approx(2 * wide.r_on(tech))

    def test_pmos_weaker_than_nmos(self, tech):
        n = Transistor(NMOS, 0.2)
        p = Transistor(PMOS, 0.2)
        assert p.r_on(tech) == pytest.approx(
            tech.beta_p * n.r_on(tech))

    def test_caps_linear_in_width(self, tech):
        t = Transistor(NMOS, 0.5)
        assert t.c_gate(tech) == pytest.approx(tech.c_gate * 0.5)
        assert t.c_drain(tech) == pytest.approx(tech.c_diff * 0.5)

    def test_conductance_zero_below_threshold(self, tech):
        t = Transistor(NMOS, 0.2)
        assert t.conductance(tech.v_th * 0.9, tech) == 0.0

    def test_conductance_full_at_saturation_drive(self, tech):
        t = Transistor(NMOS, 0.2)
        g_sat = t.conductance(tech.v_sat_frac * tech.vdd, tech)
        assert g_sat == pytest.approx(1.0 / t.r_on(tech))

    def test_conductance_clamps_above_saturation(self, tech):
        t = Transistor(NMOS, 0.2)
        assert t.conductance(tech.vdd, tech) == pytest.approx(
            t.conductance(tech.v_sat_frac * tech.vdd, tech))

    def test_conductance_monotonic(self, tech):
        t = Transistor(NMOS, 0.2)
        drives = [0.1 * i * tech.vdd for i in range(11)]
        values = [t.conductance(v, tech) for v in drives]
        assert values == sorted(values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TechnologyError):
            Transistor("pnp", 0.2)

    def test_zero_width_rejected(self):
        with pytest.raises(TechnologyError):
            Transistor(NMOS, 0.0)

    def test_leakage_pmos_scaled_down(self, tech):
        n = Transistor(NMOS, 0.2)
        p = Transistor(PMOS, 0.2)
        assert p.i_leak(tech) < n.i_leak(tech)
