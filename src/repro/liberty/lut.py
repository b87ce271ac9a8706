"""NLDM-style lookup tables with bilinear interpolation.

Section 3 of the paper: "The gate components within the brick netlist are
each represented by look-up table (LUT) models based on bilinear
interpolation and curve fitting for delay and energy as a function of
fanout and slew rate."  This module is the table half of that
representation, shared by the standard-cell library, the dynamically
generated brick libraries and the static timing engine.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from ..errors import LibraryError


@dataclass(frozen=True)
class LUT2D:
    """A 2-D table indexed by (input slew, output load).

    Lookups bilinearly interpolate inside the grid and clamp-extrapolate
    linearly outside it (the behaviour commercial STA tools default to).
    """

    slews: Tuple[float, ...]
    loads: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]  # values[i][j] at slews[i], loads[j]

    def __post_init__(self) -> None:
        if len(self.slews) < 1 or len(self.loads) < 1:
            raise LibraryError("LUT axes must be non-empty")
        if list(self.slews) != sorted(self.slews) or \
                list(self.loads) != sorted(self.loads):
            raise LibraryError("LUT axes must be strictly increasing")
        if len(set(self.slews)) != len(self.slews) or \
                len(set(self.loads)) != len(self.loads):
            raise LibraryError("LUT axes must not contain duplicates")
        if len(self.values) != len(self.slews) or any(
                len(row) != len(self.loads) for row in self.values):
            raise LibraryError("LUT value grid does not match axes")

    @classmethod
    def from_function(cls, func: Callable[[float, float], float],
                      slews: Sequence[float],
                      loads: Sequence[float]) -> "LUT2D":
        """Characterize ``func(slew, load)`` on a grid."""
        values = tuple(
            tuple(float(func(s, ld)) for ld in loads) for s in slews)
        return cls(tuple(slews), tuple(loads), values)

    @classmethod
    def from_grid(cls, slews: Sequence[float], loads: Sequence[float],
                  values) -> "LUT2D":
        """Build from an already-computed ``len(slews) x len(loads)``
        value grid (nested sequences or a 2-D numpy array)."""
        grid = tuple(tuple(float(v) for v in row) for row in values)
        return cls(tuple(float(s) for s in slews),
                   tuple(float(ld) for ld in loads), grid)

    @classmethod
    def constant(cls, value: float) -> "LUT2D":
        """A degenerate single-point LUT (returns ``value`` everywhere)."""
        return cls((0.0,), (0.0,), ((float(value),),))

    def _axis_segment(self, axis: Tuple[float, ...], x: float
                      ) -> Tuple[int, float]:
        """Return (lower index, fraction) for interpolation along an axis."""
        n = len(axis)
        if n == 1:
            return 0, 0.0
        # bisect_right finds np.searchsorted(side="right")'s index, NaN
        # included (NaN compares greater than nothing, so it lands at n).
        lo = min(max(bisect_right(axis, x) - 1, 0), n - 2)
        span = axis[lo + 1] - axis[lo]
        frac = (x - axis[lo]) / span
        return lo, frac  # frac < 0 or > 1 implements linear extrapolation

    def value(self, slew: float, load: float) -> float:
        """Bilinearly interpolated (or extrapolated) table value."""
        i, fi = self._axis_segment(self.slews, slew)
        j, fj = self._axis_segment(self.loads, load)
        v = self.values
        if len(self.slews) == 1 and len(self.loads) == 1:
            return v[0][0]
        if len(self.slews) == 1:
            return v[0][j] * (1 - fj) + v[0][j + 1] * fj
        if len(self.loads) == 1:
            return v[i][0] * (1 - fi) + v[i + 1][0] * fi
        v00, v01 = v[i][j], v[i][j + 1]
        v10, v11 = v[i + 1][j], v[i + 1][j + 1]
        top = v00 * (1 - fj) + v01 * fj
        bot = v10 * (1 - fj) + v11 * fj
        return top * (1 - fi) + bot * fi

    def scaled(self, factor: float) -> "LUT2D":
        """Return a copy with all values multiplied by ``factor``."""
        values = tuple(tuple(x * factor for x in row) for row in self.values)
        return LUT2D(self.slews, self.loads, values)


def default_slew_axis(tech_tau: float) -> Tuple[float, ...]:
    """Standard 5-point slew axis scaled to the node's tau."""
    base = 5.0 * tech_tau
    return tuple(base * m for m in (0.2, 1.0, 3.0, 8.0, 20.0))


def default_load_axis(c_unit: float) -> Tuple[float, ...]:
    """Standard 6-point load axis in multiples of a unit input cap."""
    return tuple(c_unit * m for m in (0.25, 1.0, 2.0, 4.0, 8.0, 16.0))
