"""Tests for the device netlist container and the transient simulator."""

import hashlib

import numpy as np
import pytest

from repro.bricks import build_match_testbench, build_read_testbench, \
    build_write_testbench, cam_brick, compile_brick, measure_read, \
    measure_write, sram_brick
from repro.circuit import GND, SpiceCircuit, TransientSimulator, \
    VSource, ramp
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
        assert result.waveform("out").v[-1] == pytest.approx(1.0,
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
        assert wf.v[-1] == pytest.approx(0.0, abs=0.02)

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
        assert result.waveform("n3").v[-1] == pytest.approx(0.0,
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_state_turning_nonfinite_between_refactors(self, tech,
                                                       monkeypatch, bad):
        """The input of the inverter chain turns non-finite at step 120,
        inside a stretch without factorizations (115 to 132 in the clean
        run) and inside a finiteness-check block; the error still names
        step 120, whatever the loop computes on the bad state after it."""
        from repro.circuit import spice
        ckt, kwargs = _inverter_chain(tech)
        events = []
        factor, solve = spice.lu_factor, spice.lu_solve
        monkeypatch.setattr(spice, "lu_factor",
                            lambda band: events.append("f") or factor(band))
        monkeypatch.setattr(spice, "lu_solve",
                            lambda f, b: events.append("s") or solve(f, b))
        TransientSimulator(ckt, tech).run(**kwargs)
        refactor_steps = [events[:k].count("s") + 1
                          for k, e in enumerate(events) if e == "f"]
        assert 115 in refactor_steps and 132 in refactor_steps
        assert not set(range(116, 132)) & set(refactor_steps)

        clean = ckt.sources[1].stimulus
        t_bad = 119.5 * kwargs["dt"]  # between the grid's steps 119 and 120
        ckt.sources[1] = VSource("vin", "n0",
                                 lambda t: bad if t > t_bad else clean(t))
        with pytest.raises(SimulationError, match=r"at step 120 \("):
            TransientSimulator(ckt, tech).run(**kwargs)

    def test_nonfinite_initial_state_rejected(self, tech):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        sim = TransientSimulator(ckt, tech)
        with pytest.raises(SimulationError, match="at step 0 "):
            sim.run(t_stop=1 * NS, dt=1 * PS, v_init={"b": float("inf")})

    @pytest.mark.parametrize("matrix", [
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 2.0], [2.0, 1.0]],
        [[0.0, 0.0], [0.0, 1.0]],
        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0]],
    ], ids=["singular", "indefinite", "zero-pivot", "wide-band-singular"])
    def test_non_positive_definite_system_raises(self, matrix):
        """Tridiagonal matrices go to ``pttrf``, the 3x3 full band to
        ``pbtrf``; both refuse a matrix that is not positive definite."""
        from repro.circuit.spice import lu_factor
        a = np.array(matrix)
        n = len(a)
        band = np.array([np.append(np.diag(a, -k), np.zeros(k))
                         for k in range(n)])
        with pytest.raises(SimulationError, match="not positive definite"):
            lu_factor(band)

    def test_one_solve_per_step_on_a_brick_bench(self, tech, small_brick,
                                                 monkeypatch):
        """perfbench counts steps as ``lu_solve`` calls."""
        from repro.circuit import spice
        solve, calls = spice.lu_solve, []
        monkeypatch.setattr(spice, "lu_solve",
                            lambda f, b: calls.append(1) or solve(f, b))
        bench = build_read_testbench(small_brick, tech, stack=1)
        result = TransientSimulator(bench.circuit, tech).run(
            t_stop=bench.window[1], dt=1 * PS)
        assert len(calls) == len(result.t) - 1 > 0

    @pytest.mark.parametrize("kwargs", [
        {"t_stop": float("nan"), "dt": 1 * PS},
        {"t_stop": 1 * NS, "dt": float("nan")},
        {"t_stop": float("inf"), "dt": 1 * PS},
        {"t_stop": float("inf"), "dt": float("inf")},
        {"t_stop": 1e300, "dt": 1e-300},
        {"t_stop": 1 * NS, "dt": 0.0},
        {"t_stop": -1 * NS, "dt": 1 * PS},
        {"t_stop": 1 * NS, "dt": 1 * PS, "refactor_tol": float("nan")},
        {"t_stop": 1 * NS, "dt": 1 * PS, "refactor_tol": float("inf")},
        {"t_stop": 1 * NS, "dt": 1 * PS, "refactor_tol": -1e-3},
    ], ids=["nan-t_stop", "nan-dt", "inf-t_stop", "inf-both",
            "overflowing-steps", "zero-dt", "negative-t_stop",
            "nan-refactor_tol", "inf-refactor_tol",
            "negative-refactor_tol"])
    def test_bad_run_arguments_rejected(self, tech, kwargs):
        ckt = SpiceCircuit()
        ckt.add_vsource("v", "a", 1.0)
        ckt.add_resistor("r", "a", "b", 1.0)
        ckt.add_capacitor("c", "b", 1 * FF)
        with pytest.raises(SimulationError):
            TransientSimulator(ckt, tech).run(**kwargs)

    def test_zero_refactor_tol_refactors_more_often(self, tech,
                                                    monkeypatch):
        from repro.circuit import spice
        factor, calls = spice.lu_factor, []
        monkeypatch.setattr(spice, "lu_factor",
                            lambda band: calls.append(1) or factor(band))
        ckt, kwargs = _inverter_chain(tech)
        sim = TransientSimulator(ckt, tech)
        sim.run(**kwargs)
        default = len(calls)
        sim.run(**kwargs, refactor_tol=0.0)
        assert len(calls) - default > default > 1

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
# pinned: a faster assembly of the same scheme that moves any voltage or
# energy sample fails here, and must be shown equal to the dense-LU oracle
# (``tests/test_fast_paths_vs_reference.py``, within 1e-9) before the
# goldens are recaptured.  The digests were taken from the simulator's
# tridiagonal LAPACK ``pttrf``/``pttrs`` kernel with numpy 2.4 / scipy 1.17
# and their bundled OpenBLAS on x86-64; the last bits of a solve or a dot
# product may differ under another BLAS build.


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
        "2c408da7d346785fbb8659aa077f530f81d8b1e81e2247ce5d91da031823d219",
    "rc_step":
        "13a7393e7a740a32745088ce2af3998804e78a1c19f48537c855bcb6f1609a9e",
    "rc_coupled":
        "ffc26a1c4850660d76c9814fdbe8144b89e12c87314c9124fc9905e634ce0053",
    "inverter_chain":
        "67045829bbdd17960d2f47dfb35280290dd149906e7bc7a47067775682702b24",
    "grounded_terminals":
        "b3e466b73a529e5a7e39f87c4757a137207e15932b57ca164776eae677aa35fa",
    "sourceless":
        "26a4fa4a2b9f4dbde8e2e0cb538daba3027583c4f526fcf4db812ee15d369295",
}

#: ``repr`` of (measure_read, measure_write) per (words, bits, stack).
_BRICK_GOLDENS = {
    (4, 4, 1): ("(1.7169942976944293e-10, 6.951370600806134e-14)",
                "4.4268572670897967e-14"),
    (16, 10, 1): ("(2.482873042707589e-10, 2.5255214969409277e-13)",
                  "1.208094024066787e-13"),
    (16, 10, 8): ("(2.9558894572567145e-10, 8.868958068876142e-13)",
                  "7.413518429111338e-13"),
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

    def test_rerun_of_a_brick_testbench_is_identical(self, tech,
                                                     small_brick):
        bench = build_read_testbench(small_brick, tech, stack=1)
        sim = TransientSimulator(bench.circuit, tech)
        kwargs = {"t_stop": bench.window[1], "dt": 1 * PS}
        first = _history_digest(sim.run(**kwargs))
        assert _history_digest(sim.run(**kwargs)) == first

    def test_small_brick(self, tech, small_brick):
        read, write = _BRICK_GOLDENS[(4, 4, 1)]
        assert repr(measure_read(small_brick, tech, stack=1)) == read
        assert repr(measure_write(small_brick, tech, stack=1)) == write

    def test_table1_16x10_1x_cell(self, tech, brick_16x10):
        read, write = _BRICK_GOLDENS[(16, 10, 1)]
        assert repr(measure_read(brick_16x10, tech, stack=1)) == read
        assert repr(measure_write(brick_16x10, tech, stack=1)) == write

    def test_table1_16x10_8x_cell(self, tech):
        """The stacked path: a 395-node write bench, idle-brick control."""
        compiled = compile_brick(sram_brick(16, 10), tech, target_stack=8)
        read, write = _BRICK_GOLDENS[(16, 10, 8)]
        assert repr(measure_read(compiled, tech, stack=8)) == read
        assert repr(measure_write(compiled, tech, stack=8)) == write


class TestBandStructure:
    """The node order keeps every brick testbench's free block inside a
    narrow band, the premise of the banded factorization."""

    @pytest.mark.parametrize("stack", [1, 4, 8])
    @pytest.mark.parametrize("words,bits", [(16, 10), (32, 12)])
    @pytest.mark.parametrize("build", [build_read_testbench,
                                       build_write_testbench],
                             ids=["read", "write"])
    def test_table1_testbenches(self, tech, build, words, bits, stack):
        compiled = compile_brick(sram_brick(words, bits), tech,
                                 target_stack=stack)
        bench = build(compiled, tech, stack=stack)
        assert TransientSimulator(bench.circuit, tech).bandwidth <= 2

    def test_cam_match_testbench(self, tech):
        compiled = compile_brick(cam_brick(16, 10), tech)
        bench = build_match_testbench(compiled, tech)
        assert TransientSimulator(bench.circuit, tech).bandwidth <= 2
