"""Seed-derived manufacturing-defect sampling over brick geometry.

Four mechanisms, each scoped to the physical structure it breaks:

========================  ======================  =====================
mechanism                 site population         effect
========================  ======================  =====================
``stuck_at_0/1``          every bitcell           one cell reads 0/1
``wordline_bridge``       adjacent row pairs      both rows dead
``weak_sense``            one sense amp per col   column delay derate
``open_via``              one via stack per col   column dead
========================  ======================  =====================

Defect counts are Poisson in (rate x sites) — the standard spot-defect
yield model — and positions are drawn without replacement, all from a
caller-supplied :class:`random.Random` so a
:meth:`Session.rng <repro.session.Session.rng>` stream makes the whole
population a pure function of the master seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

import random

from ..bricks.spec import BrickSpec
from ..errors import FaultError
from ..tech.technology import Technology

STUCK_AT_0 = "stuck_at_0"
STUCK_AT_1 = "stuck_at_1"
WORDLINE_BRIDGE = "wordline_bridge"
WEAK_SENSE = "weak_sense"
OPEN_VIA = "open_via"

DEFECT_KINDS: Tuple[str, ...] = (
    STUCK_AT_0, STUCK_AT_1, WORDLINE_BRIDGE, WEAK_SENSE, OPEN_VIA)


@dataclass(frozen=True)
class Defect:
    """One sampled defect.  ``row``/``bit`` are -1 when not applicable:
    a bridge has no column, a sense/via defect has no row."""

    kind: str
    row: int = -1
    bit: int = -1

    def __post_init__(self) -> None:
        if self.kind not in DEFECT_KINDS:
            raise FaultError(
                f"unknown defect kind {self.kind!r}; known: "
                f"{DEFECT_KINDS}")


def _poisson(rng: random.Random, threshold: Optional[float]) -> int:
    """Knuth's product-of-uniforms Poisson sampler (lam is small).

    ``threshold`` is ``exp(-lam)``, or ``None`` when ``lam <= 0``: then
    the count is 0 and nothing is drawn from ``rng``.
    """
    if threshold is None:
        return 0
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


@functools.lru_cache(maxsize=64)
def _thresholds(model: "DefectModel",
                spec: BrickSpec) -> Tuple[Optional[float], ...]:
    """Poisson thresholds of the four mechanisms of one brick geometry:
    stuck cells, bridged row pairs, weak sense amps, open vias."""
    rates = ((model.p_stuck_at, spec.words * spec.bits),
             (model.p_wordline_bridge, spec.words - 1),
             (model.p_weak_sense, spec.bits),
             (model.p_open_via, spec.bits))
    return tuple(math.exp(-(rate * sites)) if rate * sites > 0.0
                 else None for rate, sites in rates)


@dataclass(frozen=True)
class DefectModel:
    """Per-site defect rates (probability per site per die).

    Defaults are deliberately pessimistic — two to three orders worse
    than production 65 nm — so populations of a few hundred bricks
    exercise every mechanism in tests and demos.
    """

    p_stuck_at: float = 2e-4        # per bitcell (0 and 1 equally)
    p_wordline_bridge: float = 2e-4  # per adjacent-row pair
    p_weak_sense: float = 1e-3      # per column sense amp
    p_open_via: float = 5e-4        # per column via stack
    weak_sense_derate: float = 1.6  # delay multiplier of a weak column

    def __post_init__(self) -> None:
        for name in ("p_stuck_at", "p_wordline_bridge",
                     "p_weak_sense", "p_open_via"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise FaultError(
                    f"{name} must be in [0, 1), got {rate}")
        if self.weak_sense_derate < 1.0:
            raise FaultError("weak_sense_derate must be >= 1")

    def sample(self, spec: BrickSpec,
               rng: random.Random) -> Tuple[Defect, ...]:
        """Draw one brick's defects.  Deterministic in ``rng`` state.

        A mechanism whose Poisson count is 0 draws no positions, which
        is exactly what ``rng.sample(population, 0)`` would consume.
        """
        defects = []
        stuck, bridge, weak, via = _thresholds(self, spec)
        n_cells = spec.words * spec.bits
        for _ in range(min(_poisson(rng, stuck), n_cells)):
            cell = rng.randrange(n_cells)
            kind = STUCK_AT_1 if rng.random() < 0.5 else STUCK_AT_0
            defects.append(Defect(kind, row=cell // spec.bits,
                                  bit=cell % spec.bits))
        n_pairs = spec.words - 1
        count = min(_poisson(rng, bridge), n_pairs)
        if count:
            for pair in sorted(rng.sample(range(n_pairs), count)):
                defects.append(Defect(WORDLINE_BRIDGE, row=pair))
        count = min(_poisson(rng, weak), spec.bits)
        if count:
            for bit in sorted(rng.sample(range(spec.bits), count)):
                defects.append(Defect(WEAK_SENSE, bit=bit))
        count = min(_poisson(rng, via), spec.bits)
        if count:
            for bit in sorted(rng.sample(range(spec.bits), count)):
                defects.append(Defect(OPEN_VIA, bit=bit))
        return tuple(defects)


@dataclass(frozen=True)
class FaultyBrick:
    """A brick spec plus its sampled defects — the *perturbed view* the
    repair and yield layers reason about."""

    spec: BrickSpec
    defects: Tuple[Defect, ...]

    @property
    def is_perfect(self) -> bool:
        return not self.defects

    @property
    def stuck_cells(self) -> Dict[Tuple[int, int], int]:
        """``(row, bit) -> stuck value`` for bitcell defects."""
        return {(d.row, d.bit): (1 if d.kind == STUCK_AT_1 else 0)
                for d in self.defects
                if d.kind in (STUCK_AT_0, STUCK_AT_1)}

    @property
    def dead_rows(self) -> FrozenSet[int]:
        """Rows unusable outright: each bridge kills both its rows."""
        rows = set()
        for d in self.defects:
            if d.kind == WORDLINE_BRIDGE:
                rows.add(d.row)
                rows.add(d.row + 1)
        return frozenset(rows)

    @property
    def dead_cols(self) -> FrozenSet[int]:
        return frozenset(d.bit for d in self.defects
                         if d.kind == OPEN_VIA)

    @property
    def weak_cols(self) -> FrozenSet[int]:
        return frozenset(d.bit for d in self.defects
                         if d.kind == WEAK_SENSE)

    def delay_derate(self, model: DefectModel) -> float:
        """Read-path slowdown if the brick is used *unrepaired*."""
        return model.weak_sense_derate if self.weak_cols else 1.0

    def perturbed_tech(self, tech: Technology,
                       model: DefectModel) -> Technology:
        """Technology view of the unrepaired brick: weak sense amps
        show up as a device-resistance derate on the read path."""
        derate = self.delay_derate(model)
        if derate == 1.0:
            return tech
        return tech.scaled(r_scale=derate, name_suffix="@weak-sense")


def inject(spec: BrickSpec, model: DefectModel,
           rng: random.Random) -> FaultyBrick:
    """Sample one brick instance's defects into a :class:`FaultyBrick`."""
    return FaultyBrick(spec=spec, defects=model.sample(spec, rng))
