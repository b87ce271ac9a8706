"""Switch-level transistor electrical model.

Everything above the technology file sees transistors through this tiny
facade: an on-resistance, a gate capacitance, a diffusion capacitance and a
leakage current, all linear in drawn width.  The same model feeds both the
closed-form estimator (through logical effort) and the transient reference
simulator (as a voltage-controlled switch), which is what makes Table 1 an
apples-to-apples comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TechnologyError
from .technology import Technology

NMOS = "nmos"
PMOS = "pmos"


@dataclass(frozen=True)
class Transistor:
    """A single MOS device of a given polarity and width.

    Parameters
    ----------
    kind:
        ``"nmos"`` or ``"pmos"``.
    w_um:
        Drawn width in micrometres.
    """

    kind: str
    w_um: float

    def __post_init__(self) -> None:
        if self.kind not in (NMOS, PMOS):
            raise TechnologyError(f"unknown transistor kind {self.kind!r}")
        if self.w_um <= 0:
            raise TechnologyError(
                f"transistor width must be positive, got {self.w_um}")

    def r_on(self, tech: Technology) -> float:
        """Effective on-resistance in ohms."""
        per_um = tech.r_on_n if self.kind == NMOS else tech.r_on_p
        return per_um / self.w_um

    def c_gate(self, tech: Technology) -> float:
        """Gate capacitance in farads."""
        return tech.c_gate * self.w_um

    def c_drain(self, tech: Technology) -> float:
        """Drain (diffusion) capacitance in farads."""
        return tech.c_diff * self.w_um

    def i_leak(self, tech: Technology) -> float:
        """Off-state leakage in amperes."""
        scale = 1.0 if self.kind == NMOS else 1.0 / tech.beta_p
        return tech.i_leak_n * self.w_um * scale

    def conductance(self, v_gs: float, tech: Technology) -> float:
        """Channel conductance (S) as a function of gate drive.

        A piecewise-linear switch model in the effective-resistance
        convention: zero below threshold, rising linearly to the full
        ``1 / r_on`` at the saturation drive ``v_sat_frac * vdd`` (not at
        the full rail) — short-channel devices are velocity-saturated and
        deliver their full effective drive well before Vgs reaches Vdd.
        ``v_gs`` is the gate-source voltage for NMOS and source-gate
        voltage for PMOS (i.e. pass the magnitude of the drive).
        """
        v_th = tech.v_th
        if v_gs <= v_th:
            return 0.0
        v_sat = tech.v_sat_frac * tech.vdd
        overdrive = min((v_gs - v_th) / max(v_sat - v_th, 1e-12), 1.0)
        return overdrive / self.r_on(tech)


def conductances(drive: np.ndarray, r_on: np.ndarray,
                 tech: Technology) -> np.ndarray:
    """Array form of :meth:`Transistor.conductance`.

    ``drive`` holds each device's gate-drive magnitude and ``r_on`` its
    on-resistance.  The law runs the scalar method's IEEE operations in the
    same order, so every element equals the scalar result bit for bit.
    """
    v_th = tech.v_th
    v_sat = tech.v_sat_frac * tech.vdd
    overdrive = np.minimum((drive - v_th) / max(v_sat - v_th, 1e-12), 1.0)
    return np.where(drive <= v_th, 0.0, overdrive / r_on)
