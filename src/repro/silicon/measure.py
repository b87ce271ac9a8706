"""Chip "measurement" harness for Fig. 4b.

For every test-chip configuration this module produces the two sides the
paper overlays:

* *measurements*: the detailed model evaluated at each sampled die's
  perturbed technology (plus tester noise), aggregated as mean with
  min/max bars — the role of the multi-chip silicon data;
* *simulations*: the flow evaluated with libraries generated at the
  best/nominal/worst corner technologies — the role of the PrimeTime
  runs on estimated brick libraries.

Fig. 4b's claim is that the second tracks the first across
configurations; the benchmark asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Dict, List, Optional, Sequence

from ..errors import SiliconError
from ..session import Session
from ..tech.corners import BEST, WORST
from .testchip import run_config_flow
from .variation import VariationModel


@dataclass(frozen=True)
class ChipMeasurement:
    """One die's measured operating point for one configuration."""

    chip_id: int
    fmax_hz: float
    power_w: float
    energy_per_cycle_j: float


@dataclass
class ConfigMeasurements:
    """All dies' measurements for one configuration.

    ``dead_chips`` lists dies screened out by manufacturing defects
    (wafer sort) before speed/power testing; aggregates cover the
    surviving population only.
    """

    config: str
    chips: List[ChipMeasurement]
    dead_chips: List[int] = dataclass_field(default_factory=list)

    @property
    def mean_fmax(self) -> float:
        return sum(c.fmax_hz for c in self.chips) / len(self.chips)

    @property
    def min_fmax(self) -> float:
        return min(c.fmax_hz for c in self.chips)

    @property
    def max_fmax(self) -> float:
        return max(c.fmax_hz for c in self.chips)

    @property
    def mean_energy(self) -> float:
        return sum(c.energy_per_cycle_j for c in self.chips) / \
            len(self.chips)


@dataclass(frozen=True)
class CornerSimulation:
    """Library-based flow results at best/nominal/worst corners."""

    config: str
    fmax_best: float
    fmax_nominal: float
    fmax_worst: float
    energy_nominal: float


def measure_chips(configs: Sequence[str],
                  session: Session,
                  n_chips: int = 8,
                  variation: Optional[VariationModel] = None,
                  seed: int = 65,
                  anneal_moves: int = 2000,
                  defect_model=None,
                  seed_stream: bool = False
                  ) -> Dict[str, ConfigMeasurements]:
    """Emulate multi-chip measurement of the test-chip configurations.

    With a :class:`~repro.faults.DefectModel` passed as
    ``defect_model``, each die's brick population is first screened at
    wafer sort: the die's bricks are a defect population keyed by the
    session master seed, the configuration and the die
    (:meth:`~repro.faults.DefectModel.population`), the default
    :class:`~repro.faults.RepairPlan` is allocated over all of them
    (:func:`~repro.faults.repair.repair_population`), and dies with an
    unrepairable brick are recorded in
    :attr:`ConfigMeasurements.dead_chips` instead of being measured.

    Every die re-runs the full flow (library regeneration included) at
    its perturbed technology — dies are physical objects, and their
    periphery, bricks and wires all shift together.  Each die's flow
    runs under a per-die child of ``session`` (same cache and
    sink, the die's technology): the tech fingerprints differently per
    die, so the characterization cache reuses nothing *across* dies
    (correct: their bricks really differ) while configurations sharing
    a brick point *within* one die reuse it.  ``seed`` is the variation
    sampling seed, distinct from the session's flow master seed.

    ``seed_stream=True`` switches die sampling to the counter-based
    signoff streams salted from the *session* master seed
    (:meth:`VariationModel.sample_stream`), so the population is a
    pure function of ``session.seed`` per die index — chunkable and
    order-independent.  The default stays the legacy sequential
    sampler, whose seed-65 output existing goldens pin.
    """
    if variation is None:
        variation = VariationModel()
    if seed_stream:
        samples = variation.sample_stream(n_chips, seed=session.seed)
    else:
        samples = variation.sample(n_chips, seed=seed)
    results: Dict[str, ConfigMeasurements] = {}
    for config in configs:
        chips: List[ChipMeasurement] = []
        dead: List[int] = []
        with session.span(f"measure:{config}", kind="flow",
                          n_chips=n_chips) as mspan:
            if defect_model is not None:
                from ..faults import RepairPlan, repair_population
                from ..signoff.rng import stream_key
                from .testchip import config_bank
                bank = config_bank(config)
                plan = RepairPlan()
                for sample in samples:
                    key = stream_key(
                        session.seed,
                        f"silicon:{config}:chip{sample.chip_id}")
                    bricks = defect_model.population(
                        bank.brick, key, 0, bank.n_bricks)
                    if not repair_population(bricks, plan).ok.all():
                        dead.append(sample.chip_id)
            for sample in samples:
                if sample.chip_id in dead:
                    continue
                die_session = session.derive(
                    tech=sample.apply(session.tech))
                with die_session.span(f"chip{sample.chip_id}",
                                      kind="die"):
                    flow = run_config_flow(config,
                                           anneal_moves=anneal_moves,
                                           session=die_session)
                fmax = flow.fmax * sample.measurement_noise
                chips.append(ChipMeasurement(
                    chip_id=sample.chip_id,
                    fmax_hz=fmax,
                    power_w=flow.power.total_w,
                    energy_per_cycle_j=flow.power.energy_per_cycle,
                ))
            if mspan is not None:
                mspan.attrs.update(dead_chips=len(dead),
                                   measured=len(chips))
        if not chips:
            raise SiliconError(
                f"config {config}: every die failed wafer sort "
                f"({len(dead)} dead)")
        results[config] = ConfigMeasurements(config, chips,
                                             dead_chips=dead)
    return results


def simulate_corners(configs: Sequence[str],
                     session: Session,
                     anneal_moves: int = 2000
                     ) -> Dict[str, CornerSimulation]:
    """Library-based corner simulations (the Fig. 4b overlay).

    Each corner runs under a child session carrying the derated
    technology; the cache and sink are shared across corners.
    """
    results: Dict[str, CornerSimulation] = {}
    for config in configs:
        with session.span("best", kind="corner", config=config):
            best = run_config_flow(config, with_power=False,
                                   anneal_moves=anneal_moves,
                                   session=session.derive(
                                       tech=BEST.apply(session.tech)))
        with session.span("nominal", kind="corner", config=config):
            nominal = run_config_flow(config,
                                      anneal_moves=anneal_moves,
                                      session=session)
        with session.span("worst", kind="corner", config=config):
            worst = run_config_flow(config, with_power=False,
                                    anneal_moves=anneal_moves,
                                    session=session.derive(
                                        tech=WORST.apply(session.tech)))
        results[config] = CornerSimulation(
            config=config,
            fmax_best=best.fmax,
            fmax_nominal=nominal.fmax,
            fmax_worst=worst.fmax,
            energy_nominal=nominal.power.energy_per_cycle,
        )
    return results
