"""Manufacturing-defect populations over brick geometry.

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
yield model — capped at the site count.  Every draw comes from the
splitmix64 counter streams of :mod:`repro.signoff.rng`, under a defect
sub-key of the caller's stream key, at a counter fixed by the die's
index, the mechanism and a slot::

    counter = die << 32 | mechanism << 24 | slot

Slot 0 is the uniform whose inverse Poisson CDF is the mechanism's
count; slots 1..count place its defects.  A stuck cell and its stuck
value come from one scaled uniform, with replacement; bridged row
pairs, weak sense amps and open vias are distinct sites, drawn without
replacement by Floyd's algorithm.  Die ``i``'s defects therefore depend
only on ``(key, i)``: :meth:`DefectModel.population` draws dies
``[start, stop)`` as array operations, and any chunking of ``[0, N)``
draws the same dies.  A :class:`DefectPopulation` holds the count
columns of every die and the positions of the few defective ones;
:func:`inject` is its one-die view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

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

#: Mechanism columns of a :class:`DefectPopulation`, in counter order.
STUCK, BRIDGE, WEAK, VIA = range(4)


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

    def population(self, spec: BrickSpec, key: int, start: int,
                   stop: int) -> "DefectPopulation":
        """Draw the defects of dies ``[start, stop)`` of stream ``key``.

        Die ``i``'s draws sit at counters fixed by ``i`` alone (see the
        module docstring), so the population of ``[0, N)`` equals the
        concatenation of any chunking of it.
        """
        # Deferred import: repro.signoff imports this package.
        from ..signoff.rng import stream_key
        if not 0 <= start <= stop:
            raise FaultError(f"bad die range [{start}, {stop})")
        dkey = stream_key(key, "defect")
        sites = _sites(spec)
        dies = np.arange(start, stop, dtype=np.uint64)
        u = _uniforms(dkey, _counters(dies[:, None],
                                      np.arange(len(sites))[None, :], 0))
        counts = np.empty(u.shape, dtype=np.int64)
        for m, cdf in enumerate(_count_cdfs(self, spec)):
            counts[:, m] = np.searchsorted(cdf, u[:, m])
        rows = np.flatnonzero(counts[:, STUCK])
        stuck = _with_replacement(dkey, STUCK, sites[STUCK], start + rows,
                                  counts[rows, STUCK])
        # The distinct-site mechanisms draw as one batch of (die,
        # mechanism) pairs, mechanism by mechanism, die by die.
        mechanisms, rows = np.nonzero(counts[:, BRIDGE:].T)
        mechanisms += BRIDGE
        distinct = _floyd(dkey, mechanisms,
                          np.take(sites, mechanisms), start + rows,
                          counts[rows, mechanisms])
        ends = np.cumsum(counts[:, BRIDGE:].sum(axis=0))
        return DefectPopulation(
            spec=spec, model=self, counts=counts,
            positions=(stuck, *np.split(distinct, ends[:-1])))


def _sites(spec: BrickSpec) -> Tuple[int, int, int, int]:
    """Site counts of the four mechanisms: bitcells, adjacent row
    pairs, sense amps, via stacks.  At most 1024 x 256 bitcells, so a
    die's slots never overflow the 2^24 of its mechanism."""
    return (spec.words * spec.bits, spec.words - 1, spec.bits,
            spec.bits)


def _poisson_cdf(lam: float, cap: int) -> np.ndarray:
    """``P(count <= k)`` for ``k < cap`` under Poisson(``lam``).

    The table stops where the tail no longer changes the sum, so a
    uniform above its last entry (probability < 1e-15) draws the count
    of that entry's length.  ``lam == 0`` gives an empty table: every
    count is 0.  Terms come from ``lgamma`` in log space, so a large
    ``lam`` does not underflow ``exp(-lam)``.
    """
    cdf: List[float] = []
    if lam > 0.0:
        log_lam, total = math.log(lam), 0.0
        for k in range(cap):
            p = math.exp(k * log_lam - lam - math.lgamma(k + 1))
            if k > lam and total + p == total:
                break
            total += p
            cdf.append(total)
    return np.array(cdf, dtype=np.float64)


@functools.lru_cache(maxsize=64)
def _count_cdfs(model: "DefectModel",
                spec: BrickSpec) -> Tuple[np.ndarray, ...]:
    """Count CDF tables of the four mechanisms of one brick geometry."""
    rates = (model.p_stuck_at, model.p_wordline_bridge,
             model.p_weak_sense, model.p_open_via)
    return tuple(_poisson_cdf(rate * sites, sites)
                 for rate, sites in zip(rates, _sites(spec)))


def _uniforms(dkey: int, counters: np.ndarray) -> np.ndarray:
    # Deferred import: repro.signoff imports this package.
    from ..signoff.rng import uniforms
    return uniforms(dkey, counters)


def _counters(dies, mechanism, slot) -> np.ndarray:
    """Stream counters of ``(die, mechanism, slot)`` (broadcasting)."""
    return ((np.asarray(dies, dtype=np.uint64) << np.uint64(32))
            + (np.asarray(mechanism, dtype=np.uint64) << np.uint64(24))
            + np.asarray(slot, dtype=np.uint64))


def _with_replacement(dkey: int, mechanism: int, n_sites: int,
                      dies: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Stuck-cell codes ``2 * cell + value`` of the given dies, die by
    die in draw order: slot ``s`` of a die is its ``s``-th stuck cell."""
    total = int(counts.sum())
    first = np.repeat(np.cumsum(counts) - counts, counts)
    slot = np.arange(1, total + 1, dtype=np.int64) - first
    u = _uniforms(dkey, _counters(np.repeat(dies, counts), mechanism,
                                  slot))
    return np.floor((1.0 - u) * (2 * n_sites)).astype(np.int64)


def _floyd(dkey: int, mechanisms: np.ndarray, n_sites: np.ndarray,
           dies: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Distinct sites of ``(die, mechanism)`` pairs, pair by pair in
    ascending order (``n_sites`` sites for each pair).

    Floyd's algorithm, one step across all pairs at a time: a pair of
    count ``k`` takes, at step ``s``, ``t = floor(u * (j + 1))`` with
    ``j = n_sites - k + s``, or ``j`` itself when ``t`` is taken.
    """
    if not counts.size:
        return np.zeros(0, dtype=np.int64)
    # Unfilled slots hold a sentinel above every pair's sites.
    sentinel = int(n_sites.max())
    picks = np.full((counts.size, int(counts.max())), sentinel,
                    dtype=np.int64)
    for s in range(picks.shape[1]):
        live = np.flatnonzero(counts > s)
        j = n_sites[live] - counts[live] + s
        u = _uniforms(dkey, _counters(dies[live], mechanisms[live], s + 1))
        t = np.floor((1.0 - u) * (j + 1)).astype(np.int64)
        taken = (picks[live, :s] == t[:, None]).any(axis=1)
        picks[live, s] = np.where(taken, j, t)
    picks.sort(axis=1)
    return picks[picks < sentinel]


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


@dataclass(frozen=True)
class DefectPopulation:
    """The defects of ``n`` consecutive dies of one stream.

    ``counts`` is ``(n, 4)``: per die, the stuck cells, bridged row
    pairs, weak sense amps and open vias (columns :data:`STUCK`,
    :data:`BRIDGE`, :data:`WEAK`, :data:`VIA`).  ``positions[m]`` holds
    mechanism ``m``'s sites of every die, die by die (stuck cells as
    ``2 * cell + value``).  Yield, derate and repair
    (:func:`~repro.faults.repair.repair_population`) are column
    operations; :meth:`brick` is one die's view.
    """

    spec: BrickSpec
    model: DefectModel
    counts: np.ndarray
    positions: Tuple[np.ndarray, ...]

    @property
    def perfect(self) -> np.ndarray:
        """Bool column: the die has no defect at all."""
        return ~self.counts.any(axis=1)

    def derate(self) -> np.ndarray:
        """Unrepaired read-path derate column
        (:meth:`FaultyBrick.delay_derate` of every die)."""
        return np.where(self.counts[:, WEAK] > 0,
                        self.model.weak_sense_derate, 1.0)

    def kind_counts(self) -> Dict[str, int]:
        """Defects sampled per kind, over kinds that occurred."""
        ones = int((self.positions[STUCK] & 1).sum())
        totals = self.counts.sum(axis=0)
        counts = {STUCK_AT_0: int(totals[STUCK]) - ones,
                  STUCK_AT_1: ones,
                  WORDLINE_BRIDGE: int(totals[BRIDGE]),
                  WEAK_SENSE: int(totals[WEAK]),
                  OPEN_VIA: int(totals[VIA])}
        return {kind: n for kind, n in counts.items() if n}

    @functools.cached_property
    def _ends(self) -> np.ndarray:
        """Per die and mechanism, the end of its run in ``positions``."""
        return np.cumsum(self.counts, axis=0)

    def brick(self, row: int) -> FaultyBrick:
        """Die ``row`` of the population as a :class:`FaultyBrick`:
        stuck cells in draw order, then bridges, weak sense amps and
        open vias, each in ascending site order."""
        hi = self._ends[row]
        lo = hi - self.counts[row]
        bits = self.spec.bits
        sites = [self.positions[m][lo[m]:hi[m]].tolist()
                 for m in range(len(self.positions))]
        defects = [Defect(STUCK_AT_1 if code & 1 else STUCK_AT_0,
                          row=(code >> 1) // bits, bit=(code >> 1) % bits)
                   for code in sites[STUCK]]
        defects += [Defect(WORDLINE_BRIDGE, row=pair)
                    for pair in sites[BRIDGE]]
        defects += [Defect(WEAK_SENSE, bit=bit) for bit in sites[WEAK]]
        defects += [Defect(OPEN_VIA, bit=bit) for bit in sites[VIA]]
        return FaultyBrick(spec=self.spec, defects=tuple(defects))


def inject(spec: BrickSpec, model: DefectModel, key: int,
           index: int) -> FaultyBrick:
    """Die ``index`` of stream ``key`` as a :class:`FaultyBrick`: the
    one-row view of :meth:`DefectModel.population`."""
    return model.population(spec, key, index, index + 1).brick(0)
