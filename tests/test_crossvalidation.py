"""Cross-validation between independent model layers.

The package contains several models of the same physics at different
abstraction levels.  These tests check they agree where they overlap:

* NLDM standard-cell delays vs switch-level transient measurements,
* STA path delay vs a transient simulation of the same gate chain,
* brick library LUTs vs the estimator they were characterized from,
* logic-simulator activity vs hand-counted toggles.
"""

import pytest

from repro.cells import inverter_widths, unit_input_cap
from repro.circuit import GND, SpiceCircuit, TransientSimulator, ramp
from repro.units import FF, NS, PS


def _one_edge(tech, w_n, w_p, c_load, slew_in, input_rising):
    ckt = SpiceCircuit()
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    t0 = 0.2 * NS
    v0, v1 = (0.0, tech.vdd) if input_rising else (tech.vdd, 0.0)
    ckt.add_vsource("vin", "a", ramp(t0, max(slew_in, 1 * PS), v0, v1))
    ckt.add_mosfet("mn", "nmos", "a", "y", GND, w_n)
    ckt.add_mosfet("mp", "pmos", "a", "y", "vdd", w_p)
    ckt.add_capacitor("cl", "y", c_load)
    init = {"y": tech.vdd if input_rising else 0.0}
    result = TransientSimulator(ckt, tech).run(
        t_stop=2.5 * NS, dt=0.5 * PS, v_init=init)
    t_in = result.waveform("a").crossing(tech.vdd / 2,
                                         rising=input_rising)
    t_out = result.waveform("y").crossing(tech.vdd / 2,
                                          rising=not input_rising)
    return t_out - t_in


def _inverter_transient_delay(tech, drive, c_load, slew_in):
    """Rise/fall-averaged inverter delay from the transient reference
    (the quantity a single NLDM table represents)."""
    c_in = drive * unit_input_cap(tech)
    w_n, w_p = inverter_widths(c_in, tech)
    fall = _one_edge(tech, w_n, w_p, c_load, slew_in,
                     input_rising=True)
    rise = _one_edge(tech, w_n, w_p, c_load, slew_in,
                     input_rising=False)
    return 0.5 * (rise + fall)


class TestStdcellVsTransient:
    @pytest.mark.parametrize("drive,load_ff", [(1, 2), (2, 8), (4, 20)])
    def test_inverter_nldm_tracks_transient(self, tech, stdlib, drive,
                                            load_ff):
        """The characterized INV delay must track the switch-level
        measurement across drives and loads (coarse bound: the library
        is analytic, not per-cell fitted)."""
        slew = 20 * PS
        load = load_ff * FF
        nldm = stdlib.cell(f"INV_X{drive}").arc("A", "Y").delay_value(
            slew, load)
        measured = _inverter_transient_delay(tech, drive, load, slew)
        assert nldm == pytest.approx(measured, rel=0.40)

    def test_relative_scaling_matches(self, tech, stdlib):
        """Ratios (the DSE currency) must agree much tighter than
        absolutes."""
        slew = 20 * PS
        nldm_ratio = (
            stdlib.cell("INV_X1").arc("A", "Y").delay_value(slew,
                                                            16 * FF)
            / stdlib.cell("INV_X4").arc("A", "Y").delay_value(slew,
                                                              16 * FF))
        measured_ratio = (
            _inverter_transient_delay(tech, 1, 16 * FF, slew)
            / _inverter_transient_delay(tech, 4, 16 * FF, slew))
        assert nldm_ratio == pytest.approx(measured_ratio, rel=0.25)


class TestStaVsTransient:
    def test_inverter_chain_path_delay(self, tech, stdlib):
        """STA over a mapped 4-inverter chain vs a transient of the
        same chain at the same drives and loads."""
        from repro.rtl import Module, elaborate
        from repro.synth import Parasitics, analyze_timing

        n_stages = 4
        drive = 2
        load = 6 * FF

        # STA side: chain of INV_X2 ending in a DFF (the endpoint).
        m = Module("chain")
        clk = m.input("clk")
        a = m.input("a")
        nets = [a]
        for i in range(n_stages):
            y = m.wire(f"n{i}")
            m.cell(f"u{i}", f"INV_X{drive}", {"A": nets[-1], "Y": y})
            nets.append(y)
        q = m.output("q")
        m.cell("capture", "DFF_X1", {"D": nets[-1], "CK": clk, "Y": q})
        flat = elaborate(m, stdlib)
        timing = analyze_timing(flat, Parasitics(), tech)
        dff = stdlib.cell("DFF_X1")
        sta_path = timing.min_period - dff.setup

        # Transient side: the same chain, last stage loaded with the
        # DFF's D-pin capacitance.
        c_in = drive * unit_input_cap(tech)
        w_n, w_p = inverter_widths(c_in, tech)
        ckt = SpiceCircuit()
        ckt.add_vsource("vdd", "vdd", tech.vdd)
        t0 = 0.2 * NS
        slew_in = 10.0 * tech.tau  # the STA's default input slew
        ckt.add_vsource("vin", "s0", ramp(t0, slew_in, 0.0, tech.vdd))
        for i in range(n_stages):
            ckt.add_mosfet(f"mn{i}", "nmos", f"s{i}", f"s{i + 1}", GND,
                           w_n)
            ckt.add_mosfet(f"mp{i}", "pmos", f"s{i}", f"s{i + 1}",
                           "vdd", w_p)
        ckt.add_capacitor("cl", f"s{n_stages}", dff.pin_cap("D"))
        init = {f"s{i}": (tech.vdd if i % 2 == 1 else 0.0)
                for i in range(1, n_stages + 1)}
        result = TransientSimulator(ckt, tech).run(
            t_stop=3 * NS, dt=0.5 * PS, v_init=init)
        t_in = result.waveform("s0").crossing(tech.vdd / 2,
                                              rising=True)
        final = result.waveform(f"s{n_stages}")
        # Even stage count: output follows the input direction.
        t_out = final.crossing(tech.vdd / 2, rising=True)
        measured = t_out - t_in
        # The sign-off contract: STA must never be optimistic against
        # the detailed reference, and its pessimism must stay bounded
        # (slew propagation and the rise/fall-average convention cost
        # ~1.5x on this lightly loaded chain).
        assert sta_path >= measured * 0.95
        assert sta_path <= measured * 1.8


class TestBrickLibraryVsEstimator:
    def test_lut_reproduces_estimator_everywhere(self, tech,
                                                 brick_16x10):
        """The brick LUT was characterized from the estimator; checking
        interior points guards the interpolation plumbing."""
        from repro.bricks import brick_cell_model
        from repro.bricks.batch import brick_rows, estimate_batch
        cell = brick_cell_model(brick_16x10, tech, stack=1)
        arc = cell.arc("CLK", "ARBL")
        loads = (1.5 * FF, 4.7 * FF, 13 * FF)
        ests = estimate_batch(brick_rows(brick_16x10, 1, loads), tech)
        for load, est in zip(loads, ests):
            assert arc.delay_value(1 * PS, load) == pytest.approx(
                est.read_delay, rel=0.03)


class TestActivityVsHandCount:
    def test_toggle_counts_for_known_sequence(self, stdlib):
        from repro.rtl import LogicSimulator, Module, elaborate
        m = Module("t")
        m.input("clk")
        a = m.input("a")
        y = m.output("y")
        mid = m.wire("mid")
        m.cell("u1", "INV_X1", {"A": a, "Y": mid})
        m.cell("u2", "INV_X1", {"A": mid, "Y": y})
        sim = LogicSimulator(elaborate(m, stdlib))
        pattern = [0, 1, 1, 0, 1, 0, 0, 1]
        for value in pattern:
            sim.set_input("a", value)
            sim.clock()
        expected_toggles = sum(
            1 for i in range(1, len(pattern))
            if pattern[i] != pattern[i - 1])
        mid_net = sim.netlist.cells[0].pins["Y"]
        # mid starts at False=INV(0)... settle flips it on first clock:
        # count transitions of INV(pattern) from the initial False.
        inv_pattern = [1 - v for v in pattern]
        expected_mid = sum(
            1 for i in range(len(inv_pattern))
            if inv_pattern[i] != ([0] + inv_pattern)[i])
        assert sim.activity.toggles.get(mid_net, 0) == expected_mid
