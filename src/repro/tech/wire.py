"""Wire (interconnect) parasitic models.

Wires matter twice in the paper: *inside* bricks, where local bitline and
wordline RC set the brick critical path (Table 1 grows with stacking because
the array read bitline gets longer), and *between* bricks, where the routed
parasitics feed static timing analysis the way a .spef file feeds PrimeTime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from ..errors import TechnologyError


@dataclass(frozen=True)
class WireLayer:
    """Per-unit-length electrical parameters of one routing layer.

    Parameters
    ----------
    name:
        Layer name (``"M1"``, ``"M2"``, ...).
    r_per_um:
        Sheet-derived wire resistance per um of length (ohm / um).
    c_per_um:
        Total (ground + coupling average) wire capacitance per um (F / um).
    pitch_um:
        Routing pitch of the layer, used by the router for track counting.
    """

    name: str
    r_per_um: float
    c_per_um: float
    pitch_um: float

    def __post_init__(self) -> None:
        if self.r_per_um < 0 or self.c_per_um < 0 or self.pitch_um <= 0:
            raise TechnologyError(
                f"invalid wire layer parameters for {self.name!r}")

    def rc(self, length_um: float) -> Tuple[float, float]:
        """Total lumped (R, C) of ``length_um`` of this layer."""
        if length_um < 0:
            raise TechnologyError("wire length must be non-negative")
        return self.r_per_um * length_um, self.c_per_um * length_um

    def scaled(self, r_scale: float = 1.0, c_scale: float = 1.0) -> "WireLayer":
        """Return a copy with R and C scaled (corner application)."""
        return replace(self, r_per_um=self.r_per_um * r_scale,
                       c_per_um=self.c_per_um * c_scale)
