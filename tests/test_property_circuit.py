"""Property-based tests for device laws, gates, LUTs and pareto fronts."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import gate_type
from repro.explore import dominates, pareto_front
from repro.liberty import LUT2D
from repro.tech import NMOS, PMOS, Transistor, cmos65
from repro.tech.transistor import conductances

_settings = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestDeviceLawProperties:
    """The array device law the transient reference runs equals the
    scalar ``Transistor.conductance`` bit for bit."""

    _TECH = cmos65()
    _V_TH = _TECH.v_th
    _V_SAT = _TECH.v_sat_frac * _TECH.vdd
    _drives = st.one_of(
        st.sampled_from([_V_TH, _V_SAT, 0.0, -0.0, _TECH.vdd,
                         -_TECH.vdd]),
        st.floats(-2 * _TECH.vdd, 2 * _TECH.vdd, allow_nan=False))

    @given(st.lists(st.tuples(_drives, st.sampled_from([NMOS, PMOS]),
                              st.floats(0.12, 10.0)),
                    min_size=1, max_size=16))
    @_settings
    def test_array_law_equals_scalar_law(self, devices):
        tech = self._TECH
        transistors = [Transistor(kind, w) for _, kind, w in devices]
        drive = np.array([d for d, _, _ in devices])
        r_on = np.array([t.r_on(tech) for t in transistors])
        got = conductances(drive, r_on, tech)
        for g, t, d in zip(got, transistors, drive):
            assert g == t.conductance(float(d), tech)

    def test_threshold_and_saturation_edges(self):
        tech = self._TECH
        device = Transistor(NMOS, 1.0)
        drive = np.array([self._V_TH, np.nextafter(self._V_TH, 1.0),
                          self._V_SAT, -1.0])
        got = conductances(drive, np.full(4, device.r_on(tech)), tech)
        assert got[0] == 0.0 and got[3] == 0.0
        assert 0.0 < got[1] < got[2] == 1.0 / device.r_on(tech)


class TestLUTProperties:
    @st.composite
    @staticmethod
    def lut_strategy(draw):
        n_s = draw(st.integers(1, 4))
        n_l = draw(st.integers(1, 4))
        slews = sorted(draw(st.lists(
            st.floats(0.0, 100.0), min_size=n_s, max_size=n_s,
            unique=True)))
        loads = sorted(draw(st.lists(
            st.floats(0.0, 100.0), min_size=n_l, max_size=n_l,
            unique=True)))
        values = tuple(
            tuple(draw(st.floats(-100, 100)) for _ in loads)
            for _ in slews)
        return LUT2D(tuple(slews), tuple(loads), values)

    @given(lut_strategy())
    @_settings
    def test_exact_at_grid(self, lut):
        for i, s in enumerate(lut.slews):
            for j, ld in enumerate(lut.loads):
                assert lut.value(s, ld) == pytest.approx(
                    lut.values[i][j], rel=1e-9, abs=1e-9)

    @given(lut_strategy(), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @_settings
    def test_interpolation_within_bounds(self, lut, s, ld):
        """Inside the grid the bilinear value never escapes the value
        range of the table."""
        if not (lut.slews[0] <= s <= lut.slews[-1]
                and lut.loads[0] <= ld <= lut.loads[-1]):
            return
        flat = [v for row in lut.values for v in row]
        value = lut.value(s, ld)
        assert min(flat) - 1e-6 <= value <= max(flat) + 1e-6


class TestGateProperties:
    @given(st.sampled_from(["INV", "NAND2", "NAND3", "NOR2", "AND2",
                            "OR2", "XOR2", "AOI21", "OAI21", "MUX2"]),
           st.data())
    @_settings
    def test_inverting_flag_consistent(self, name, data):
        """For inverting gates, the all-true or all-false corner output
        must differ from an AND/OR-like monotone expectation only in
        polarity; concretely: flipping every input of a monotone
        inverting gate from all-False to all-True flips the output."""
        gate = gate_type(name)
        if name in ("XOR2", "MUX2"):
            return  # non-monotone
        low = gate.evaluate([False] * len(gate.pins))
        high = gate.evaluate([True] * len(gate.pins))
        assert low != high


class TestParetoProperties:
    points_strategy = st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=24)

    @given(points_strategy)
    @_settings
    def test_front_members_not_dominated(self, points):
        front = pareto_front(points, lambda p: p)
        for member in front:
            assert not any(dominates(other, member)
                           for other in points)

    @given(points_strategy)
    @_settings
    def test_every_point_dominated_by_front_or_in_it(self, points):
        front = pareto_front(points, lambda p: p)
        for point in points:
            assert point in front or any(
                dominates(member, point) for member in front)

    @given(points_strategy)
    @_settings
    def test_front_idempotent(self, points):
        front = pareto_front(points, lambda p: p)
        assert pareto_front(front, lambda p: p) == front
