"""Tests for the device netlist container and the transient simulator."""

import hashlib

import numpy as np
import pytest

from repro.bricks import measure_read, measure_write
from repro.circuit import GND, SpiceCircuit, TransientSimulator, ramp
from repro.errors import NetlistError, SimulationError
from repro.units import FF, KOHM, NS, PS


class TestSpiceCircuit:
    def test_duplicate_element_name_rejected(self):
        ckt = SpiceCircuit()
        ckt.add_resistor("r1", "a", "b", 100.0)
        with pytest.raises(NetlistError):
            ckt.add_capacitor("r1", "a", 1 * FF)

    def test_resistor_short_rejected(self):
        with pytest.raises(NetlistError):
            SpiceCircuit().add_resistor("r1", "a", "a", 1.0)

    def test_zero_cap_is_noop(self):
        ckt = SpiceCircuit()
        ckt.add_capacitor("c0", "a", 0.0)
        assert not ckt.capacitors

    def test_mosfet_validation(self):
        ckt = SpiceCircuit()
        with pytest.raises(NetlistError):
            ckt.add_mosfet("m1", "nmos", "g", "d", "d", 0.2)
        with pytest.raises(NetlistError):
            ckt.add_mosfet("m2", "jfet", "g", "d", "s", 0.2)
        with pytest.raises(NetlistError):
            ckt.add_mosfet("m3", "nmos", "g", "d", "s", -0.2)

    def test_double_source_on_node_rejected(self):
        ckt = SpiceCircuit()
        ckt.add_vsource("v1", "a", 1.0)
        with pytest.raises(NetlistError):
            ckt.add_vsource("v2", "a", 2.0)

    def test_gnd_cannot_be_driven(self):
        with pytest.raises(NetlistError):
            SpiceCircuit().add_vsource("v1", GND, 1.0)

    def test_free_nodes_excludes_driven(self):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", 1.0)
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 1 * FF)
        assert ckt.free_nodes() == ["out"]

    def test_validate_catches_capless_node(self):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", 1.0)
        ckt.add_resistor("r1", "in", "mid", 1.0)
        ckt.add_resistor("r2", "mid", GND, 1.0)
        with pytest.raises(NetlistError):
            ckt.validate()

    def test_stats(self):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        stats = ckt.stats()
        assert stats["resistors"] == 1
        assert stats["sources"] == 1


class TestTransient:
    def test_rc_step_matches_analytic(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", ramp(0.1 * NS, 1 * PS, 0.0, 1.0))
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 100 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.5 * NS, dt=0.5 * PS)
        t50 = result.waveform("out").crossing(0.5, rising=True)
        analytic = 0.1 * NS + 0.5 * PS + 0.693 * 1e3 * 100e-15
        assert t50 == pytest.approx(analytic, rel=0.01)

    def test_rc_final_value(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", 1.0)
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 10 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=0.5 * NS, dt=0.5 * PS)
        assert result.waveform("out").final == pytest.approx(1.0,
                                                             abs=1e-3)

    def test_supply_energy_of_full_charge(self, tech):
        # Charging C through R from an ideal source draws C*V^2.
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", ramp(10 * PS, 5 * PS, 0.0, 1.0))
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 50 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.0 * NS, dt=0.25 * PS)
        assert result.energy("vin") == pytest.approx(50e-15, rel=0.03)

    def test_energy_window_sums_to_total(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in", ramp(10 * PS, 5 * PS, 0.0, 1.0))
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 20 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.0 * NS, dt=0.5 * PS)
        first = result.energy_in_window("vin", 0.0, 0.5 * NS)
        second = result.energy_in_window("vin", 0.5 * NS, 1.0 * NS)
        assert first + second == pytest.approx(result.energy("vin"),
                                               rel=1e-6)

    def test_inverter_switches_rail_to_rail(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        ckt.add_vsource("vin", "a",
                        ramp(0.1 * NS, 20 * PS, 0.0, tech.vdd))
        ckt.add_mosfet("mn", "nmos", "a", "y", GND, 0.5)
        ckt.add_mosfet("mp", "pmos", "a", "y", "vdd", 1.0)
        ckt.add_capacitor("cl", "y", 5 * FF)
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.0 * NS, dt=0.5 * PS, v_init={"y": tech.vdd})
        wf = result.waveform("y")
        assert wf.value_at(0.05 * NS) == pytest.approx(tech.vdd,
                                                       abs=0.02)
        assert wf.final == pytest.approx(0.0, abs=0.02)

    def test_inverter_chain_propagates_and_inverts(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        ckt.add_vsource("vin", "n0",
                        ramp(50 * PS, 10 * PS, 0.0, tech.vdd))
        for i in range(3):
            a, y = f"n{i}", f"n{i+1}"
            ckt.add_mosfet(f"mn{i}", "nmos", a, y, GND, 0.3)
            ckt.add_mosfet(f"mp{i}", "pmos", a, y, "vdd", 0.6)
            ckt.add_capacitor(f"cl{i}", y, 2 * FF)
        init = {"n1": tech.vdd, "n2": 0.0, "n3": tech.vdd}
        result = TransientSimulator(ckt, tech).run(
            t_stop=1.5 * NS, dt=0.5 * PS, v_init=init)
        # Odd number of inversions: final output low.
        assert result.waveform("n3").final == pytest.approx(0.0,
                                                            abs=0.05)
        # Delay accumulates monotonically along the chain.
        t1 = result.waveform("n1").crossing(tech.vdd / 2, rising=False)
        t3 = result.waveform("n3").crossing(tech.vdd / 2, rising=False)
        assert t3 > t1

    def test_bad_timestep_rejected(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        sim = TransientSimulator(ckt, tech)
        with pytest.raises(SimulationError):
            sim.run(t_stop=1 * NS, dt=2 * NS)

    def test_unknown_vinit_node_rejected(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        sim = TransientSimulator(ckt, tech)
        with pytest.raises(SimulationError):
            sim.run(t_stop=1 * NS, dt=1 * PS, v_init={"ghost": 1.0})

    def test_diverging_stimulus_fails_at_first_bad_step(self, tech):
        # The stimulus turns NaN after 0.2 ns; the run used to return a
        # NaN energy next to a plausible-looking crossing time.
        ckt = SpiceCircuit()
        ckt.add_vsource("vin", "in",
                        lambda t: float("nan") if t > 0.2 * NS else 1.0)
        ckt.add_resistor("r1", "in", "out", 1 * KOHM)
        ckt.add_capacitor("c1", "out", 10 * FF)
        sim = TransientSimulator(ckt, tech)
        with pytest.raises(SimulationError, match=r"at step 401 \("):
            sim.run(t_stop=0.5 * NS, dt=0.5 * PS)

    def test_nonfinite_initial_state_rejected(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        sim = TransientSimulator(ckt, tech)
        with pytest.raises(SimulationError, match="at step 0 "):
            sim.run(t_stop=1 * NS, dt=1 * PS, v_init={"b": float("inf")})

    def test_singular_pivot_warns(self):
        from scipy.linalg import LinAlgWarning

        from repro.circuit.spice import lu_factor
        with pytest.warns(LinAlgWarning, match="exactly zero"):
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_unrecorded_node_raises(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        result = TransientSimulator(ckt, tech).run(t_stop=0.1 * NS,
                                                   dt=1 * PS)
        with pytest.raises(SimulationError):
            result.waveform("ghost")


# --- bit-identity goldens ---------------------------------------------------
#
# The transient reference is Table 1's SPICE column, so its output bits are
# pinned: a faster assembly of the same backward-Euler scheme must leave
# every voltage and energy sample unchanged.  The digests below were taken
# from the per-device stamping loop the simulator used to run, with numpy
# 2.4 / scipy 1.17 and their bundled OpenBLAS on x86-64; the last bits of
# a dense LU or a dot product may differ under another BLAS build.


def _rc_step(tech):
    ckt = SpiceCircuit()
    ckt.add_vsource("vin", "in", ramp(0.1 * NS, 1 * PS, 0.0, 1.0))
    ckt.add_resistor("r1", "in", "out", 1 * KOHM)
    ckt.add_capacitor("c1", "out", 100 * FF)
    return ckt, {"t_stop": 1.5 * NS, "dt": 0.5 * PS}


def _rc_coupled(tech):
    """No MOS devices; a coupling cap ties a free node to a driven one."""
    ckt = SpiceCircuit()
    ckt.add_vsource("vin", "in", ramp(50 * PS, 20 * PS, 0.0, 1.0))
    ckt.add_vsource("vagg", "agg", ramp(0.3 * NS, 10 * PS, 1.0, 0.0))
    ckt.add_resistor("r1", "in", "mid", 2 * KOHM)
    ckt.add_resistor("r2", "mid", "out", 1 * KOHM)
    ckt.add_capacitor("c1", "mid", 5 * FF)
    ckt.add_capacitor("c2", "out", 10 * FF)
    ckt.add_capacitor("cc", "out", 3 * FF, b="agg")
    return ckt, {"t_stop": 0.6 * NS, "dt": 0.5 * PS}


def _inverter_chain(tech):
    ckt = SpiceCircuit()
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("vin", "n0", ramp(50 * PS, 10 * PS, 0.0, tech.vdd))
    for i in range(3):
        a, y = f"n{i}", f"n{i+1}"
        ckt.add_mosfet(f"mn{i}", "nmos", a, y, GND, 0.3)
        ckt.add_mosfet(f"mp{i}", "pmos", a, y, "vdd", 0.6)
        ckt.add_capacitor(f"cl{i}", y, 2 * FF)
    init = {"n1": tech.vdd, "n2": 0.0, "n3": tech.vdd}
    return ckt, {"t_stop": 1.5 * NS, "dt": 0.5 * PS, "v_init": init}


def _grounded_terminals(tech):
    """Devices with a grounded drain and a grounded gate."""
    ckt = SpiceCircuit()
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("vin", "a", ramp(0.1 * NS, 20 * PS, 0.0, tech.vdd))
    ckt.add_mosfet("mn", "nmos", "a", GND, "y", 0.5)
    ckt.add_mosfet("mp", "pmos", "a", "vdd", "y", 1.0)
    ckt.add_mosfet("mk", "pmos", GND, "y", "vdd", 0.12)
    ckt.add_capacitor("cl", "y", 5 * FF)
    return ckt, {"t_stop": 0.5 * NS, "dt": 0.5 * PS,
                 "v_init": {"y": tech.vdd}}


def _sourceless(tech):
    """No sources: stored charge decays through a device and a resistor."""
    ckt = SpiceCircuit()
    ckt.add_capacitor("cg", "g", 1 * FF)
    ckt.add_resistor("rg", "g", GND, 20 * KOHM)
    ckt.add_mosfet("mn", "nmos", "g", "y", GND, 0.4)
    ckt.add_capacitor("cl", "y", 4 * FF)
    return ckt, {"t_stop": 0.4 * NS, "dt": 0.5 * PS,
                 "v_init": {"g": tech.vdd, "y": tech.vdd}}


def _all_driven(tech):
    """No free node: every step's solve is empty."""
    ckt = SpiceCircuit()
    ckt.add_vsource("vin", "in", ramp(0.1 * NS, 20 * PS, 0.0, 1.0))
    ckt.add_resistor("r1", "in", GND, 1 * KOHM)
    ckt.add_capacitor("c1", "in", 10 * FF)
    return ckt, {"t_stop": 0.3 * NS, "dt": 0.5 * PS}


def _history_digest(result) -> str:
    """sha256 over every sample the run produced, in a fixed order."""
    h = hashlib.sha256(result.t.tobytes())
    for node in sorted(result.voltages):
        h.update(node.encode())
        h.update(result.voltages[node].tobytes())
    for name in sorted(result.source_energy_history):
        h.update(name.encode())
        h.update(result.source_energy_history[name].tobytes())
        h.update(repr((result.source_energy[name],
                       result.source_charge[name])).encode())
    return h.hexdigest()


_CIRCUITS = {
    "all_driven": _all_driven,
    "rc_step": _rc_step,
    "rc_coupled": _rc_coupled,
    "inverter_chain": _inverter_chain,
    "grounded_terminals": _grounded_terminals,
    "sourceless": _sourceless,
}

_HISTORY_DIGESTS = {
    "all_driven":
        "341e19cb1eb0bb92706631d6ad1424120be7d89550ba6a000555e20d082d6682",
    "rc_step":
        "dc1c08fd8c7b2d2f832cd8f3851c568a8159bd725df338ebdae06d2c51247d7b",
    "rc_coupled":
        "a1c1f66cb616d1fbea6e03f7816031f1981aefaedd1b2fe443acd86847d35626",
    "inverter_chain":
        "a1dc552895462bd6bc3c2d56f7d4562fd8b85ca5d7bed6fd1a6e1ba205bc1d63",
    "grounded_terminals":
        "50eb0ed1652b2a16e116a6404a44ac83e13daf31638f6ad47fb756edc31b3576",
    "sourceless":
        "dfc9426af84ee0b68ae69d263b61cd64174321fa3cb6d97a91e34dbe40d5731c",
}

#: ``repr`` of (measure_read, measure_write) at 1x stacking.
_BRICK_GOLDENS = {
    (4, 4): ("(1.7169942976750195e-10, 6.951370600956245e-14)",
             "4.426857267044136e-14"),
    (16, 10): ("(2.482873042702754e-10, 2.5255214969490884e-13)",
               "1.2080940240706327e-13"),
}


class TestReferenceGoldens:
    @pytest.mark.parametrize("name", sorted(_CIRCUITS))
    def test_history_is_bit_identical(self, tech, name):
        ckt, kwargs = _CIRCUITS[name](tech)
        result = TransientSimulator(ckt, tech).run(**kwargs)
        assert _history_digest(result) == _HISTORY_DIGESTS[name]

    def test_rerun_on_one_simulator_is_identical(self, tech):
        ckt, kwargs = _inverter_chain(tech)
        sim = TransientSimulator(ckt, tech)
        first = _history_digest(sim.run(**kwargs))
        assert _history_digest(sim.run(**kwargs)) == first

    def test_small_brick(self, tech, small_brick):
        read, write = _BRICK_GOLDENS[(4, 4)]
        assert repr(measure_read(small_brick, tech, stack=1)) == read
        assert repr(measure_write(small_brick, tech, stack=1)) == write

    def test_table1_16x10_1x_cell(self, tech, brick_16x10):
        read, write = _BRICK_GOLDENS[(16, 10)]
        assert repr(measure_read(brick_16x10, tech, stack=1)) == read
        assert repr(measure_write(brick_16x10, tech, stack=1)) == write
