"""Defect injection, SEC-DED ECC, repair allocation and yield analysis."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bricks import sram_brick
from repro.errors import FaultError, YieldError
from repro.faults import (
    Defect,
    DefectModel,
    RepairPlan,
    analyze_yield,
    apply_repair,
    inject,
    repaired_spec,
)
from repro.faults.defects import (
    BRIDGE,
    OPEN_VIA,
    STUCK,
    STUCK_AT_0,
    STUCK_AT_1,
    VIA,
    WEAK,
    WEAK_SENSE,
    WORDLINE_BRIDGE,
    FaultyBrick,
)
from repro.perf import CharacterizationCache
from repro.rtl import (
    LogicSimulator,
    build_secded_decoder,
    build_secded_encoder,
    elaborate,
    secded_decode,
    secded_encode,
    secded_parity_bits,
)
from repro.session import Session
from repro.signoff.rng import stream_key

#: A hot defect model so small populations exercise every mechanism.
HOT = DefectModel(p_stuck_at=2e-3, p_wordline_bridge=2e-3,
                  p_weak_sense=5e-3, p_open_via=2e-3)


@pytest.fixture
def session(tech):
    return Session(tech, seed=2015,
                   cache=CharacterizationCache(cache_dir=None))


class TestDefectSampling:
    def test_deterministic_in_rng_stream(self):
        spec = sram_brick(32, 16)
        a = HOT.population(spec, stream_key(1, "s"), 0, 50)
        b = HOT.population(spec, stream_key(1, "s"), 0, 50)
        assert [a.brick(i) for i in range(50)] == \
            [b.brick(i) for i in range(50)]
        c = HOT.population(spec, stream_key(1, "t"), 0, 50)
        assert not np.array_equal(a.counts, c.counts)

    def test_inject_wraps_sampled_defects(self):
        spec = sram_brick(32, 16)
        key = stream_key(1, "x")
        population = HOT.population(spec, key, 0, 40)
        for i in range(40):
            brick = inject(spec, HOT, key, i)
            assert brick.spec is spec
            assert brick == population.brick(i)

    def test_defects_land_inside_geometry(self):
        spec = sram_brick(16, 8)
        population = HOT.population(spec, stream_key(7, "geom"), 0, 200)
        for i in range(200):
            for d in population.brick(i).defects:
                if d.kind in (STUCK_AT_0, STUCK_AT_1):
                    assert 0 <= d.row < spec.words
                    assert 0 <= d.bit < spec.bits
                elif d.kind == WORDLINE_BRIDGE:
                    assert 0 <= d.row < spec.words - 1
                else:
                    assert 0 <= d.bit < spec.bits

    def test_bridge_kills_both_rows(self):
        brick = FaultyBrick(sram_brick(16, 8),
                            (Defect(WORDLINE_BRIDGE, row=5),))
        assert brick.dead_rows == frozenset({5, 6})

    def test_weak_sense_derates_read_path(self, tech):
        brick = FaultyBrick(sram_brick(16, 8),
                            (Defect(WEAK_SENSE, bit=3),))
        model = DefectModel(weak_sense_derate=1.5)
        assert brick.delay_derate(model) == 1.5
        perturbed = brick.perturbed_tech(tech, model)
        assert perturbed.r_on_n == pytest.approx(tech.r_on_n * 1.5)
        perfect = FaultyBrick(sram_brick(16, 8), ())
        assert perfect.perturbed_tech(tech, model) is tech

    def test_rate_validation(self):
        with pytest.raises(FaultError):
            DefectModel(p_stuck_at=1.5)
        with pytest.raises(FaultError):
            DefectModel(weak_sense_derate=0.5)
        with pytest.raises(FaultError):
            Defect("gamma_ray", row=1)


#: Dies per distribution check, and the (brick, model) cases: the
#: default model on the Fig-3 brick, the hot model on a wide brick.
N_DIES = 200_000
POPULATION_CASES = {
    "default-16x10": (sram_brick(16, 10), DefectModel()),
    "hot-64x32": (sram_brick(64, 32), HOT),
}


@pytest.fixture(scope="module", params=sorted(POPULATION_CASES))
def drawn(request):
    spec, model = POPULATION_CASES[request.param]
    key = stream_key(2015, f"distribution:{request.param}")
    return spec, model, key, model.population(spec, key, 0, N_DIES)


def _sites_and_rates(spec, model):
    return ((spec.words * spec.bits, model.p_stuck_at),
            (spec.words - 1, model.p_wordline_bridge),
            (spec.bits, model.p_weak_sense), (spec.bits, model.p_open_via))


def _die_of(population, mechanism):
    """The population row of every entry of ``positions[mechanism]``."""
    counts = population.counts[:, mechanism]
    return np.repeat(np.arange(counts.size), counts)


class TestDefectPopulationDistribution:
    """The counter-stream sampler against the spot-defect model it
    draws from, over 200k dies per case (4-sigma bounds)."""

    def test_mean_counts_match_rate_times_sites(self, drawn):
        spec, model, _, population = drawn
        for m, (sites, rate) in enumerate(_sites_and_rates(spec, model)):
            lam = rate * sites
            mean = population.counts[:, m].mean()
            assert abs(mean - lam) <= 4.0 * math.sqrt(lam / N_DIES), m

    def test_raw_yield_matches_poisson_zero_term(self, drawn):
        spec, model, _, population = drawn
        p = math.exp(-sum(rate * sites for sites, rate
                          in _sites_and_rates(spec, model)))
        raw = population.perfect.mean()
        assert abs(raw - p) <= 4.0 * math.sqrt(p * (1.0 - p) / N_DIES)

    def test_stuck_values_balanced(self, drawn):
        _, _, _, population = drawn
        codes = population.positions[STUCK]
        ones = (codes & 1).mean()
        assert abs(ones - 0.5) <= 4.0 * math.sqrt(0.25 / codes.size)

    def test_every_site_reachable(self, drawn):
        spec, model, _, population = drawn
        sites = [n for n, _ in _sites_and_rates(spec, model)]
        assert set((population.positions[STUCK] >> 1).tolist()) == \
            set(range(sites[STUCK]))
        for m in (BRIDGE, WEAK, VIA):
            assert set(population.positions[m].tolist()) == \
                set(range(sites[m])), m

    def test_distinct_sites_never_repeat_within_a_die(self, drawn):
        _, _, _, population = drawn
        for m in (BRIDGE, WEAK, VIA):
            die, sites = _die_of(population, m), population.positions[m]
            same_die = die[1:] == die[:-1]
            assert (np.diff(sites)[same_die] > 0).all(), m
        assert (population.counts[:, [BRIDGE, WEAK, VIA]] > 1).any()

    def test_chunked_draws_concatenate_to_the_whole(self, drawn):
        spec, model, key, population = drawn
        bounds = (0, 1, 777, 50_000, 123_457, N_DIES)
        parts = [model.population(spec, key, lo, hi)
                 for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(
            np.concatenate([p.counts for p in parts]), population.counts)
        for m in range(4):
            assert np.array_equal(
                np.concatenate([p.positions[m] for p in parts]),
                population.positions[m]), m

    def test_one_word_brick_never_bridges(self):
        spec = sram_brick(1, 8)
        population = HOT.population(spec, stream_key(2015, "one-word"),
                                    0, N_DIES)
        assert not population.counts[:, BRIDGE].any()
        assert population.positions[BRIDGE].size == 0
        assert population.counts[:, WEAK].any()


class TestSecded:
    def test_check_bit_count(self):
        # Classic Hamming sizes: 4->3, 8->4, 16->5, 32->6 (+1 overall).
        assert secded_parity_bits(4) == 4
        assert secded_parity_bits(8) == 5
        assert secded_parity_bits(16) == 6
        assert secded_parity_bits(32) == 7

    @pytest.mark.parametrize("width", [4, 8, 11])
    def test_corrects_all_single_flips(self, width):
        rng = random.Random(width)
        data = [rng.randrange(2) for _ in range(width)]
        code = data + list(secded_encode(data))
        assert secded_decode(code[:width], code[width:]).status == "ok"
        for i in range(len(code)):
            bad = list(code)
            bad[i] ^= 1
            res = secded_decode(bad[:width], bad[width:])
            assert res.corrected and list(res.data) == data

    @pytest.mark.parametrize("width", [4, 8])
    def test_detects_all_double_flips(self, width):
        rng = random.Random(width)
        data = [rng.randrange(2) for _ in range(width)]
        code = data + list(secded_encode(data))
        for i, j in itertools.combinations(range(len(code)), 2):
            bad = list(code)
            bad[i] ^= 1
            bad[j] ^= 1
            res = secded_decode(bad[:width], bad[width:])
            assert res.uncorrectable

    def test_structural_matches_reference(self, stdlib):
        width = 8
        sims = []
        for build in (build_secded_encoder, build_secded_decoder):
            module = build(width)
            module.input("clk")
            sims.append(LogicSimulator(elaborate(module, stdlib)))
        enc, dec = sims
        rng = random.Random(99)
        for _ in range(40):
            data = [rng.randrange(2) for _ in range(width)]
            code = data + list(secded_encode(data))
            for flip in rng.sample(range(len(code)),
                                   rng.choice([0, 1, 1, 2])):
                code[flip] ^= 1
            d_word = sum(b << i for i, b in enumerate(code[:width]))
            enc.set_input("d", d_word)
            enc.settle()
            dec.set_input("d", d_word)
            dec.set_input("c", sum(b << i for i, b in
                                   enumerate(code[width:])))
            dec.settle()
            ref = secded_decode(code[:width], code[width:])
            assert enc.get_output("c") == sum(
                b << i for i, b in enumerate(secded_encode(code[:width])))
            assert dec.get_output("q") == sum(
                b << i for i, b in enumerate(ref.data))
            assert bool(dec.get_output("err")) == (ref.status != "ok")
            assert bool(dec.get_output("ded")) == ref.uncorrectable


class TestRepair:
    def test_perfect_brick_needs_nothing(self):
        outcome = apply_repair(FaultyBrick(sram_brick(16, 8), ()),
                               RepairPlan())
        assert outcome.ok
        assert (outcome.rows_used, outcome.cols_used,
                outcome.ecc_words) == (0, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(spare_rows=st.integers(0, 64), spare_cols=st.integers(0, 64),
           ecc=st.booleans(), words=st.integers(1, 128),
           bits=st.integers(1, 64))
    def test_every_plan_repairs_a_perfect_brick(self, spare_rows,
                                                spare_cols, ecc, words,
                                                bits):
        """Signoff scores a die without defects as repaired without
        calling ``apply_repair``; this is the property that allows it."""
        plan = RepairPlan(spare_rows=spare_rows, spare_cols=spare_cols,
                          ecc=ecc)
        brick = FaultyBrick(sram_brick(words, bits), ())
        assert apply_repair(brick, plan).ok

    def test_bad_columns_use_spares_then_fail(self):
        spec = sram_brick(16, 8)
        one_bad = FaultyBrick(spec, (Defect(OPEN_VIA, bit=2),))
        assert apply_repair(one_bad, RepairPlan(spare_cols=1)).ok
        two_bad = FaultyBrick(spec, (Defect(OPEN_VIA, bit=2),
                                     Defect(WEAK_SENSE, bit=5)))
        outcome = apply_repair(two_bad, RepairPlan(spare_cols=1))
        assert not outcome.ok
        assert "column" in outcome.reason

    def test_stuck_cell_in_replaced_column_is_free(self):
        spec = sram_brick(16, 8)
        brick = FaultyBrick(spec, (Defect(OPEN_VIA, bit=2),
                                   Defect(STUCK_AT_1, row=3, bit=2)))
        outcome = apply_repair(brick,
                               RepairPlan(spare_rows=0, spare_cols=1))
        assert outcome.ok and outcome.rows_used == 0

    def test_ecc_absorbs_single_stuck_bit_per_word(self):
        spec = sram_brick(16, 8)
        brick = FaultyBrick(spec, (Defect(STUCK_AT_0, row=3, bit=1),
                                   Defect(STUCK_AT_1, row=9, bit=6)))
        without = apply_repair(brick, RepairPlan(spare_rows=1,
                                                 spare_cols=0))
        assert not without.ok  # two bad rows, one spare
        with_ecc = apply_repair(brick, RepairPlan(spare_rows=1,
                                                  spare_cols=0,
                                                  ecc=True))
        assert with_ecc.ok and with_ecc.ecc_words == 2
        # Two stuck bits in ONE word exceed SEC and need the spare row.
        double = FaultyBrick(spec, (Defect(STUCK_AT_0, row=3, bit=1),
                                    Defect(STUCK_AT_1, row=3, bit=6)))
        outcome = apply_repair(double, RepairPlan(spare_rows=1,
                                                  spare_cols=0,
                                                  ecc=True))
        assert outcome.ok and outcome.rows_used == 1

    def test_repaired_spec_geometry(self):
        spec = sram_brick(16, 8)
        plan = RepairPlan(spare_rows=2, spare_cols=1, ecc=True)
        grown = repaired_spec(spec, plan)
        assert grown.words == 18
        assert grown.bits == 8 + 1 + secded_parity_bits(8)
        assert grown.memory_type == spec.memory_type
        with pytest.raises(YieldError):
            RepairPlan(spare_rows=-1)


class TestYieldAnalysis:
    def test_same_seed_byte_identical_report(self, session):
        spec = sram_brick(32, 16)
        kwargs = dict(stack=4, n_bricks=300, model=HOT,
                      plan=RepairPlan(spare_rows=2, spare_cols=2,
                                      ecc=True))
        first = analyze_yield(spec, session=session, **kwargs)
        second = analyze_yield(spec, session=session, **kwargs)
        assert first.render() == second.render()
        assert first.as_dict() == second.as_dict()

    def test_different_seed_different_population(self, session):
        spec = sram_brick(32, 16)
        other = session.derive(seed=7)
        a = analyze_yield(spec, n_bricks=300, model=HOT, session=session)
        b = analyze_yield(spec, n_bricks=300, model=HOT, session=other)
        assert a.defect_counts != b.defect_counts or \
            a.raw_yield != b.raw_yield

    def test_repair_strictly_improves_with_overhead(self, session):
        """Acceptance: repair improves yield on a seeded population
        while reporting nonzero area overhead."""
        report = analyze_yield(sram_brick(32, 16), stack=4,
                               n_bricks=400, model=HOT,
                               plan=RepairPlan(spare_rows=2,
                                               spare_cols=2, ecc=True),
                               session=session)
        assert report.raw_yield < 1.0  # the model actually bites
        assert report.repaired_yield > report.raw_yield
        assert report.repaired_bank_yield >= report.raw_bank_yield
        assert report.area_overhead > 0.0
        assert report.ecc_logic_area_um2 > 0.0

    def test_bank_yield_never_exceeds_brick_yield(self, session):
        report = analyze_yield(sram_brick(32, 16), stack=4,
                               n_bricks=400, model=HOT,
                               session=session)
        assert report.raw_bank_yield <= report.raw_yield
        assert report.repaired_bank_yield <= report.repaired_yield

    def test_population_validation(self, session):
        with pytest.raises(YieldError):
            analyze_yield(sram_brick(16, 8), n_bricks=0,
                          session=session)

    @pytest.mark.parametrize("geometry", [
        dict(stack=0), dict(stack=-1), dict(partitions=0),
        dict(partitions=-2)])
    def test_bank_geometry_validation(self, session, geometry):
        with pytest.raises(YieldError, match="must be >= 1"):
            analyze_yield(sram_brick(16, 8), n_bricks=10,
                          session=session, **geometry)


class TestWaferSort:
    def test_dead_chips_excluded_from_measurement(self, session):
        from repro.silicon import measure_chips
        lethal = DefectModel(p_stuck_at=0.02, p_wordline_bridge=0.02,
                             p_weak_sense=0.02, p_open_via=0.02)
        measured = measure_chips(["A"], n_chips=4, anneal_moves=50,
                                 defect_model=lethal, session=session)
        config = measured["A"]
        assert config.dead_chips  # a model this hot must kill dies
        assert len(config.chips) + len(config.dead_chips) == 4
        alive = {c.chip_id for c in config.chips}
        assert alive.isdisjoint(config.dead_chips)
