"""Waveform capture and measurement.

The transient simulator produces node-voltage waveforms; Table 1 needs 50 %
crossing delays and per-operation energies measured from them, exactly the
way one would place ``.measure`` statements in a SPICE deck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SimulationError


@dataclass
class Waveform:
    """A sampled voltage (or current) waveform."""

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.t.shape != self.v.shape or self.t.ndim != 1:
            raise SimulationError("waveform arrays must be 1-D and equal")
        if self.t.size < 2:
            raise SimulationError("waveform needs at least two samples")

    def value_at(self, time: float) -> float:
        """Linearly interpolated value at ``time``."""
        return float(np.interp(time, self.t, self.v))

    @property
    def final(self) -> float:
        return float(self.v[-1])

    def crossing(self, level: float, rising: Optional[bool] = None,
                 after: float = 0.0) -> float:
        """First time the waveform crosses ``level`` after time ``after``.

        ``rising`` restricts the crossing direction; ``None`` accepts both.
        Raises :class:`SimulationError` when no crossing exists, because a
        missing transition in a delay measurement is always a setup bug.
        """
        t, v = self.t, self.v
        above = v >= level
        # Intervals where ``above`` flips, in the requested direction (a
        # flip is rising exactly when its right end is above).
        flips = above[1:] != above[:-1]
        if rising is not None:
            flips &= above[1:] == rising
        i = np.flatnonzero(flips) + 1
        # Linear interpolation inside each bracketing interval; its ends
        # differ, so the divisor is never 0 (it is NaN next to a NaN).
        with np.errstate(invalid="ignore"):
            frac = (level - v[i - 1]) / (v[i] - v[i - 1])
            times = t[i - 1] + frac * (t[i] - t[i - 1])
        first = np.flatnonzero(~(times < after))
        if first.size:
            return float(times[first[0]])
        raise SimulationError(
            f"waveform never crosses {level} (rising={rising}) after "
            f"{after}")

    def slew(self, v_low: float, v_high: float, rising: bool = True,
             after: float = 0.0) -> float:
        """Transition time between two levels (e.g. 10 % and 90 % of Vdd)."""
        if v_low >= v_high:
            raise SimulationError("slew levels must satisfy v_low < v_high")
        if rising:
            t0 = self.crossing(v_low, rising=True, after=after)
            t1 = self.crossing(v_high, rising=True, after=t0)
        else:
            t0 = self.crossing(v_high, rising=False, after=after)
            t1 = self.crossing(v_low, rising=False, after=t0)
        return t1 - t0

    def integral(self) -> float:
        """Trapezoidal integral of the waveform (used for charge/energy)."""
        return float(np.trapezoid(self.v, self.t))


def ramp(t_start: float, t_rise: float, v0: float, v1: float):
    """Return a piecewise-linear ramp stimulus ``v(t)`` callable."""
    if t_rise <= 0:
        raise SimulationError("ramp rise time must be positive")

    def v_of_t(time: float) -> float:
        if time <= t_start:
            return v0
        if time >= t_start + t_rise:
            return v1
        return v0 + (v1 - v0) * (time - t_start) / t_rise

    return v_of_t


def pulse(t_start: float, width: float, t_edge: float, v0: float, v1: float):
    """Return a pulse stimulus callable with symmetric edges."""
    if width <= 0 or t_edge <= 0:
        raise SimulationError("pulse width and edge time must be positive")
    rise = ramp(t_start, t_edge, v0, v1)
    fall = ramp(t_start + t_edge + width, t_edge, 0.0, 1.0)

    def v_of_t(time: float) -> float:
        return rise(time) + (v0 - v1) * fall(time)

    return v_of_t
