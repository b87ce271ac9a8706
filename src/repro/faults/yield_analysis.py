"""Population yield analysis before and after repair.

:func:`analyze_yield` samples a population of brick instances from the
session's master seed, scores each against a :class:`RepairPlan`, and
rolls the results up to bank granularity (a bank needs *all* its
``stack x partitions`` bricks good).  The price of the repair
resources — spare rows/columns and optional SEC-DED check bits — is
charged through one :func:`repro.perf.characterize.estimate_points`
batch (nominal + expanded geometry priced by the vectorized kernel in
one serial chunk, under a ``jobs=1`` child of the session), plus the
elaborated standard-cell area of the ECC encoder/decoder, so overhead
numbers come from the same models as every other figure in the flow.

Determinism: the same ``(seed, spec, stack, model, plan, n_bricks)``
produces a byte-identical :meth:`YieldReport.render` — a tier-1 test
runs ``repro faults`` twice in-process and diffs the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..bricks.spec import BrickSpec
from ..errors import YieldError
from ..perf.characterize import cached_stdcell_library, estimate_points
from ..session import Session
from .defects import DefectModel
from .repair import RepairPlan, repair_population, repaired_spec


def _ecc_logic_area(data_bits: int, session: Session) -> float:
    """Elaborated stdcell area of the SEC-DED encoder + corrector."""
    from ..rtl.ecc import build_secded_decoder, build_secded_encoder
    from ..rtl.module import elaborate
    library = cached_stdcell_library(session.tech, cache=session.cache)
    total = 0.0
    for module in (build_secded_encoder(data_bits),
                   build_secded_decoder(data_bits)):
        netlist = elaborate(module, library)
        total += sum(cell.model.area for cell in netlist.cells)
    return total


@dataclass(frozen=True)
class YieldReport:
    """Everything the yield study measured, rendered deterministically."""

    spec: BrickSpec
    stack: int
    partitions: int
    n_bricks: int
    n_banks: int
    seed: int
    model: DefectModel
    plan: RepairPlan
    defect_counts: Dict[str, int]
    raw_yield: float
    repaired_yield: float
    raw_bank_yield: float
    repaired_bank_yield: float
    rows_used: int
    cols_used: int
    ecc_words: int
    unrepairable: Tuple[str, ...]  # first few failure reasons
    area_overhead: float
    delay_overhead: float
    energy_overhead: float
    leakage_overhead: float
    ecc_logic_area_um2: float = 0.0

    @property
    def yield_gain(self) -> float:
        return self.repaired_yield - self.raw_yield

    def as_dict(self) -> Dict[str, object]:
        return {
            "brick": self.spec.name,
            "stack": self.stack,
            "partitions": self.partitions,
            "n_bricks": self.n_bricks,
            "n_banks": self.n_banks,
            "seed": self.seed,
            "plan": self.plan.describe(),
            "defect_counts": dict(sorted(self.defect_counts.items())),
            "raw_yield": round(self.raw_yield, 6),
            "repaired_yield": round(self.repaired_yield, 6),
            "raw_bank_yield": round(self.raw_bank_yield, 6),
            "repaired_bank_yield": round(self.repaired_bank_yield, 6),
            "rows_used": self.rows_used,
            "cols_used": self.cols_used,
            "ecc_words": self.ecc_words,
            "area_overhead": round(self.area_overhead, 6),
            "delay_overhead": round(self.delay_overhead, 6),
            "energy_overhead": round(self.energy_overhead, 6),
            "leakage_overhead": round(self.leakage_overhead, 6),
            "ecc_logic_area_um2": round(self.ecc_logic_area_um2, 3),
        }

    def render(self) -> str:
        """Fixed-format report; byte-identical for identical inputs."""
        lines = [
            f"yield report: {self.spec.name} x{self.stack} stack, "
            f"{self.partitions} partition(s)",
            f"  population: {self.n_bricks} bricks "
            f"({self.n_banks} banks), seed {self.seed}",
            f"  repair plan: {self.plan.describe()}",
            "  defects sampled:",
        ]
        for kind, count in sorted(self.defect_counts.items()):
            lines.append(f"    {kind:<16} {count}")
        lines += [
            f"  brick yield: raw {self.raw_yield:.4f} -> "
            f"repaired {self.repaired_yield:.4f} "
            f"(+{self.yield_gain:.4f})",
            f"  bank yield:  raw {self.raw_bank_yield:.4f} -> "
            f"repaired {self.repaired_bank_yield:.4f}",
            f"  repairs: {self.rows_used} spare-row, "
            f"{self.cols_used} spare-col, "
            f"{self.ecc_words} ECC-carried word(s)",
            f"  overhead: area +{self.area_overhead * 100:.2f}%  "
            f"delay +{self.delay_overhead * 100:.2f}%  "
            f"energy +{self.energy_overhead * 100:.2f}%  "
            f"leakage +{self.leakage_overhead * 100:.2f}%",
        ]
        if self.plan.ecc:
            lines.append(f"  ECC logic: "
                         f"{self.ecc_logic_area_um2:.3f} um^2 "
                         f"encoder+corrector per bank")
        for reason in self.unrepairable:
            lines.append(f"  unrepairable: {reason}")
        return "\n".join(lines)


def analyze_yield(spec: BrickSpec, stack: int = 1, partitions: int = 1,
                  n_bricks: int = 1000,
                  model: Optional[DefectModel] = None,
                  plan: Optional[RepairPlan] = None,
                  *, session: Session) -> YieldReport:
    """Monte-Carlo yield of a brick population under a repair plan.

    Brick ``i`` is die ``i`` of the defect population keyed by
    ``stream_key(session.seed, f"faults:{spec.name}:s{stack}")``
    (:meth:`DefectModel.population`): a pure function of the master
    seed, the analyzed geometry and ``i``, so reruns (and parallel
    callers with the same session) agree exactly, and a larger
    population extends a smaller one.  Raw yield is the population's
    zero-defect column and repaired yield the ``ok`` column of
    :func:`~repro.faults.repair.repair_population`; the spare and ECC
    totals sum its columns over the repaired bricks, and the first
    three unrepairable bricks give the report's reasons.  Raw and
    repaired yields score the *same* population, which guarantees
    repair can only help.
    """
    model = model or DefectModel()
    plan = plan or RepairPlan()
    if n_bricks < 1:
        raise YieldError("population must be >= 1 brick")
    if stack < 1 or partitions < 1:
        raise YieldError(f"stack and partitions must be >= 1, got "
                         f"stack={stack}, partitions={partitions}")
    bricks_per_bank = stack * partitions
    # Deferred import: repro.signoff imports this package.
    from ..signoff.rng import stream_key
    key = stream_key(session.seed, f"faults:{spec.name}:s{stack}")

    with session.span(f"yield:{spec.name}", kind="phase",
                      stack=stack, n_bricks=n_bricks):
        with session.span("sample_population", kind="phase",
                          n_bricks=n_bricks):
            population = model.population(spec, key, 0, n_bricks)
            repair = repair_population(population, plan)
            brick_raw, brick_repaired = population.perfect, repair.ok
            unrepairable = tuple(
                repair.outcome(die).reason
                for die in np.flatnonzero(~brick_repaired)[:3])

        with session.span("bank_rollup", kind="phase"):
            n_banks = max(1, n_bricks // bricks_per_bank)
            raw_banks = repaired_banks = 0
            for b in range(n_banks):
                members = slice(b * bricks_per_bank,
                                (b + 1) * bricks_per_bank)
                raw_banks += bool(brick_raw[members].all())
                repaired_banks += bool(brick_repaired[members].all())

        with session.span("price_overheads", kind="phase",
                          ecc=plan.ecc):
            nominal, expanded = estimate_points(
                [(spec, stack), (repaired_spec(spec, plan), stack)],
                session.derive(jobs=1))
            ecc_area = (_ecc_logic_area(spec.bits, session)
                        if plan.ecc else 0.0)
    bank_area = nominal.area_um2 * stack
    return YieldReport(
        spec=spec, stack=stack, partitions=partitions,
        n_bricks=n_bricks, n_banks=n_banks, seed=session.seed,
        model=model, plan=plan,
        defect_counts=population.kind_counts(),
        raw_yield=int(brick_raw.sum()) / n_bricks,
        repaired_yield=int(brick_repaired.sum()) / n_bricks,
        raw_bank_yield=raw_banks / n_banks,
        repaired_bank_yield=repaired_banks / n_banks,
        rows_used=int(repair.bad_rows[brick_repaired].sum()),
        cols_used=int(repair.bad_cols[brick_repaired].sum()),
        ecc_words=int(repair.ecc_words[brick_repaired].sum()),
        unrepairable=unrepairable,
        area_overhead=(expanded.area_um2 * stack + ecc_area)
        / bank_area - 1.0,
        delay_overhead=expanded.read_delay / nominal.read_delay - 1.0,
        energy_overhead=expanded.read_energy / nominal.read_energy - 1.0,
        leakage_overhead=expanded.leakage_w / nominal.leakage_w - 1.0,
        ecc_logic_area_um2=ecc_area,
    )
