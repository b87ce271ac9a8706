"""Closed-form brick performance estimation (the paper's estimation tool).

This is the fast half of Table 1: "their corresponding library files are
generated by a performance estimation tool ... based on logical effort
calculations and RC delay estimations".  Given a compiled brick and a stack
count it produces delay, energy, constraint and leakage numbers in
microseconds of wall-clock — fast enough that the Fig. 4c design-space
exploration of nine bricks "finalized within 2 seconds".

The formulas live in one place, the batch kernel
:func:`repro.bricks.batch.estimate_metric_columns`; :func:`estimate_brick`
prices one compiled brick as a one-row batch.  The slow half (the
transient reference over the extracted RC network) lives in
:mod:`repro.bricks.extract`; the two share only the technology
parameters, never the formulas, so comparing them measures real
estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import BrickError
from ..tech.technology import Technology
from .compiler import CompiledBrick

#: 50%-crossing delay factor.  The ideal single-pole value is ln(2) =
#: 0.69; the constant below was fitted once against the switch-level
#: transient reference (the paper's "curve fitting" step) to absorb the
#: slew-dependent turn-on lag the closed forms do not track.
_K50 = 0.735

#: Crowbar overlap window at the precharge/evaluate handoff, in FO4 units.
_CROWBAR_FO4 = 3.0


@dataclass(frozen=True)
class BrickPerformance:
    """Estimated figures of merit for a brick stacked ``stack`` times.

    All delays are 50 %-crossing estimates from the clock rising edge; all
    energies are per-operation at the bank level (one active brick,
    ``stack - 1`` idle bricks sharing the ARBL/WBL and clock).
    """

    brick_name: str
    stack: int
    read_delay: float
    read_energy: float
    write_energy: float
    setup: float
    hold: float
    clock_cap: float
    dwl_cap: float
    wbl_cap: float
    area_um2: float
    #: One brick's layout area (``area_um2`` is the bank's, ``x stack``).
    brick_area_um2: float
    leakage_w: float
    match_delay: Optional[float] = None
    match_energy: Optional[float] = None
    #: Per-component breakdown of delays/energies (diagnostics, reports).
    components: Optional[dict] = None

    def read_power(self, freq_hz: float) -> float:
        """Average power (W) when reading every cycle at ``freq_hz``."""
        return self.read_energy * freq_hz + self.leakage_w

    def match_power(self, freq_hz: float) -> float:
        if self.match_energy is None:
            raise BrickError("match power on a non-CAM brick")
        return self.match_energy * freq_hz + self.leakage_w

    def max_read_frequency(self, margin: float = 0.05) -> float:
        """1 / (read critical path + setup), derated by ``margin``."""
        period = (self.read_delay + self.setup) * (1.0 + margin)
        return 1.0 / period


def estimate_brick(compiled: CompiledBrick, tech: Technology,
                   stack: Optional[int] = None) -> BrickPerformance:
    """Estimate a brick's bank-level performance at ``stack`` bricks.

    A one-row batch (:func:`~repro.bricks.batch.brick_rows`) through the
    batch kernel, at the default ARBL output load of four unit input
    caps.  The brick's sizing is frozen at compile time (for
    ``compiled.target_stack``) and priced at ``stack``, which defaults
    to the target; ``tech`` must be the technology it was compiled in.
    """
    from .batch import brick_rows, estimate_batch  # batch imports us
    stack = compiled.target_stack if stack is None else stack
    return estimate_batch(brick_rows(compiled, stack), tech)[0]
