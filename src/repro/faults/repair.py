"""Redundancy allocation: spare rows/columns and optional SEC-DED.

A :class:`RepairPlan` declares the repair resources built into every
brick; :func:`apply_repair` decides whether one sampled
:class:`~repro.faults.defects.FaultyBrick` is salvageable with them,
and :func:`repair_population` applies the same rule to every die of a
:class:`~repro.faults.defects.DefectPopulation` as array operations
(the one-die function is its oracle).  The allocation rules mirror
industrial laser-fuse repair:

* every dead or weak *column* (open via, weak sense amp) burns one
  spare column;
* every bridged *row pair* burns two spare rows;
* stuck bitcells are first absorbed by replaced columns, then — with
  ECC enabled — any row carrying exactly one surviving stuck bit rides
  on single-error correction, and only multi-error rows burn spare
  rows.  Without ECC every row with a stuck bit burns a spare row.

:func:`repaired_spec` is the geometry the redundant brick actually
occupies (data array + spares + check bits), which is what the yield
report charges as area/delay/energy overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..bricks.spec import BrickSpec
from ..errors import YieldError
from ..rtl.ecc import secded_parity_bits
from .defects import BRIDGE, STUCK, VIA, WEAK, DefectPopulation, FaultyBrick


@dataclass(frozen=True)
class RepairPlan:
    """Repair resources provisioned per brick."""

    spare_rows: int = 2
    spare_cols: int = 1
    ecc: bool = False

    def __post_init__(self) -> None:
        if self.spare_rows < 0 or self.spare_cols < 0:
            raise YieldError("spare counts must be >= 0")

    def describe(self) -> str:
        ecc = "+SECDED" if self.ecc else ""
        return f"{self.spare_rows}R/{self.spare_cols}C{ecc}"


@dataclass(frozen=True)
class RepairOutcome:
    """What it took to salvage one brick (or why it could not be)."""

    ok: bool
    rows_used: int = 0
    cols_used: int = 0
    ecc_words: int = 0  # words left relying on SEC-DED correction
    reason: str = ""


def _outcome(plan: RepairPlan, bad_cols: int, bad_rows: int,
             ecc_words: int) -> RepairOutcome:
    """The verdict on a die needing ``bad_cols`` spare columns and
    ``bad_rows`` spare rows, with ``ecc_words`` rows left on SEC."""
    if bad_cols > plan.spare_cols:
        return RepairOutcome(
            ok=False, cols_used=plan.spare_cols,
            reason=f"{bad_cols} bad columns > "
                   f"{plan.spare_cols} spare(s)")
    if bad_rows > plan.spare_rows:
        return RepairOutcome(
            ok=False, rows_used=plan.spare_rows, cols_used=bad_cols,
            ecc_words=ecc_words,
            reason=f"{bad_rows} bad rows > {plan.spare_rows} spare(s)")
    return RepairOutcome(ok=True, rows_used=bad_rows, cols_used=bad_cols,
                         ecc_words=ecc_words)


def apply_repair(faulty: FaultyBrick, plan: RepairPlan) -> RepairOutcome:
    """Allocate the plan's redundancy against one brick's defects."""
    bad_cols = set(faulty.dead_cols) | set(faulty.weak_cols)
    if len(bad_cols) > plan.spare_cols:
        return _outcome(plan, len(bad_cols), 0, 0)
    stuck_by_row: Dict[int, List[int]] = {}
    for (row, bit), _ in sorted(faulty.stuck_cells.items()):
        if bit in bad_cols:
            continue  # the whole column was replaced anyway
        stuck_by_row.setdefault(row, []).append(bit)
    rows_needed = set(faulty.dead_rows)
    ecc_words = 0
    for row, bits in sorted(stuck_by_row.items()):
        if row in rows_needed:
            continue
        if plan.ecc and len(bits) == 1:
            ecc_words += 1  # SEC covers a single stuck bit per word
        else:
            rows_needed.add(row)
    return _outcome(plan, len(bad_cols), len(rows_needed), ecc_words)


@dataclass(frozen=True)
class PopulationRepair:
    """:func:`apply_repair` over every die of a population, as columns.

    Per die: ``bad_cols`` distinct dead or weak columns, ``bad_rows``
    rows that need a spare row, and ``ecc_words`` rows left riding on
    SEC (0 on a perfect die).  A die whose columns already exceed the
    plan is counted in full here, although :func:`apply_repair` stops
    at its columns; :meth:`outcome` gives that function's result.
    """

    plan: RepairPlan
    bad_cols: np.ndarray
    bad_rows: np.ndarray
    ecc_words: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        """Bool column: the die is salvageable under the plan."""
        return ((self.bad_cols <= self.plan.spare_cols)
                & (self.bad_rows <= self.plan.spare_rows))

    def outcome(self, die: int) -> RepairOutcome:
        """Die ``die``'s :class:`RepairOutcome`, reason included."""
        return _outcome(self.plan, int(self.bad_cols[die]),
                        int(self.bad_rows[die]),
                        int(self.ecc_words[die]))


def _isin(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.isin`` for a sorted, distinct ``table`` (small arrays)."""
    if not table.size:
        return np.zeros(keys.shape, dtype=bool)
    return table.take(np.searchsorted(table, keys), mode="clip") == keys


def repair_population(population: DefectPopulation,
                      plan: RepairPlan) -> PopulationRepair:
    """Allocate the plan's redundancy against every die of
    ``population`` at once: :func:`apply_repair`'s rule on keys that
    put the die first (``die * bits + col``, ``die * words + row``).

    Only the drawn defects are touched, so the cost follows the few
    defective dies.  Bad columns are the distinct weak sense amps and
    open vias; stuck cells are deduplicated and those in a bad column
    dropped; a bridged pair ``p`` kills rows ``p`` and ``p + 1``; with
    ECC, a live row holding exactly one stuck bit rides on SEC and
    every other stuck row needs a spare.
    """
    words, bits = population.spec.words, population.spec.bits
    counts, positions = population.counts, population.positions
    n = counts.shape[0]
    owner = [np.repeat(np.arange(n), counts[:, m])
             for m in range(len(positions))]
    cols = np.unique(np.concatenate((
        owner[WEAK] * bits + positions[WEAK],
        owner[VIA] * bits + positions[VIA])))
    cells = np.unique(owner[STUCK] * (words * bits)
                      + (positions[STUCK] >> 1))
    die, cell = np.divmod(cells, words * bits)
    row, bit = np.divmod(cell, bits)
    live = ~_isin(die * bits + bit, cols)
    stuck_rows, stuck_bits = np.unique(die[live] * words + row[live],
                                       return_counts=True)
    pairs = owner[BRIDGE] * words + positions[BRIDGE]
    dead_rows = np.unique(np.concatenate((pairs, pairs + 1)))
    alive = ~_isin(stuck_rows, dead_rows)
    on_sec = (alive & (stuck_bits == 1) if plan.ecc
              else np.zeros_like(alive))
    spare = np.concatenate((dead_rows, stuck_rows[alive & ~on_sec]))
    return PopulationRepair(
        plan=plan,
        bad_cols=np.bincount(cols // bits, minlength=n),
        bad_rows=np.bincount(spare // words, minlength=n),
        ecc_words=np.bincount(stuck_rows[on_sec] // words, minlength=n))


def repaired_spec(spec: BrickSpec, plan: RepairPlan) -> BrickSpec:
    """The physical geometry of a brick carrying the plan's redundancy.

    ECC widens every word by its SEC-DED check bits; spares widen and
    deepen the array.  The result is a normal :class:`BrickSpec`, so
    the standard estimator prices the overhead with no special cases.
    """
    extra_bits = plan.spare_cols + (
        secded_parity_bits(spec.bits) if plan.ecc else 0)
    return spec.expanded(extra_words=plan.spare_rows,
                         extra_bits=extra_bits)
