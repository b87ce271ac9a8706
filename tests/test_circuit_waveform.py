"""Tests for waveform measurement utilities."""

import numpy as np
import pytest

from repro.circuit import Waveform, ramp
from repro.errors import SimulationError


def _wave(t, v):
    return Waveform(np.asarray(t, dtype=float),
                    np.asarray(v, dtype=float))


class TestWaveform:
    def test_value_interpolates(self):
        wf = _wave([0, 1, 2], [0, 10, 20])
        assert wf.value_at(0.5) == pytest.approx(5.0)

    def test_rising_crossing_interpolated(self):
        wf = _wave([0, 1, 2], [0.0, 1.0, 1.0])
        assert wf.crossing(0.5, rising=True) == pytest.approx(0.5)

    def test_falling_crossing(self):
        wf = _wave([0, 1, 2], [1.0, 1.0, 0.0])
        assert wf.crossing(0.5, rising=False) == pytest.approx(1.5)

    def test_crossing_direction_filter(self):
        wf = _wave([0, 1, 2, 3], [0.0, 1.0, 0.0, 1.0])
        # Second rising crossing, skipping the falling one.
        t = wf.crossing(0.5, rising=True, after=1.0)
        assert t == pytest.approx(2.5)

    def test_after_skips_early_crossings(self):
        wf = _wave([0, 1, 2, 3, 4], [0, 1, 0, 1, 0])
        assert wf.crossing(0.5, rising=True, after=1.5) == \
            pytest.approx(2.5)

    def test_missing_crossing_raises(self):
        wf = _wave([0, 1], [0.0, 0.1])
        with pytest.raises(SimulationError):
            wf.crossing(0.5)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(SimulationError):
            Waveform(np.zeros(3), np.zeros(4))

    def test_single_sample_rejected(self):
        with pytest.raises(SimulationError):
            Waveform(np.zeros(1), np.zeros(1))


class TestStimuli:
    def test_ramp_endpoints(self):
        v = ramp(1.0, 2.0, 0.0, 1.2)
        assert v(0.5) == 0.0
        assert v(2.0) == pytest.approx(0.6)
        assert v(10.0) == 1.2

    def test_ramp_zero_rise_rejected(self):
        with pytest.raises(SimulationError):
            ramp(0.0, 0.0, 0.0, 1.0)
