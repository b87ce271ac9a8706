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
