"""The sharded million-point explorer (repro.explore.scale/lattice).

Covers the lattice's enumeration order, the streaming
Pareto/top-K accumulators against full materialization (property
tests), batch-only shard pricing and its independence from the shard
size, checkpoint/resume golden identity, and successive-halving
refinement.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cells.bitcells import MEMORY_TYPES
from repro.errors import ExplorationError
from repro.explore import (
    Lattice,
    LatticePoint,
    ParetoAccumulator,
    SweepSpace,
    TopKAccumulator,
    pareto_front,
    pareto_mask,
    price_shard,
    refine_candidates,
    shard_bounds,
)
from repro.explore import scale
from repro.perf.cache import CharacterizationCache
from repro.perf.parallel import checkpoint_key
from repro.session import Session

_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[
                         HealthCheck.too_slow,
                         HealthCheck.function_scoped_fixture])

_vectors = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    min_size=1, max_size=40)

#: Small axes over values whose divisibility varies: some spaces have
#: no total-words value any brick size divides.
_spaces = st.builds(
    SweepSpace,
    total_words_options=st.lists(st.integers(1, 96), min_size=1,
                                 max_size=6).map(tuple),
    bits_options=st.lists(st.integers(1, 64), min_size=1,
                          max_size=3).map(tuple),
    brick_words_options=st.lists(st.integers(1, 48), min_size=1,
                                 max_size=4).map(tuple),
    memory_types=st.lists(st.sampled_from(MEMORY_TYPES), min_size=1,
                          max_size=3).map(tuple))


@st.composite
def _sliced_spaces(draw):
    space = draw(_spaces)
    n = len(_enumerate(space))
    slices = []
    for _ in range(4):
        start = draw(st.integers(0, n))
        slices.append((start, draw(st.integers(start, n))))
    return space, slices


def _enumerate(space):
    """Brute-force lattice: type -> bits -> brick_words -> total_words,
    keeping the sizes a brick divides."""
    combos = [(mt, tw, bits, bw) for mt, bits, bw, tw in itertools.product(
        space.memory_types, space.bits_options, space.brick_words_options,
        space.total_words_options) if tw % bw == 0]
    return [LatticePoint(index=i, memory_type=mt, total_words=tw,
                         bits=bits, brick_words=bw, stack=tw // bw)
            for i, (mt, tw, bits, bw) in enumerate(combos)]


class TestSweepSpace:
    def test_from_options_single_type(self):
        space = SweepSpace.from_options((128,), (8,), (16, 32))
        assert space.memory_types == ("8T",)

    def test_plural_memory_types_win(self):
        space = SweepSpace.from_options(
            (128,), (8,), (16,), memory_type="8T",
            memory_types=("8T", "6T"))
        assert space.memory_types == ("8T", "6T")

    def test_repeated_axis_values_keep_first_seen_order(self):
        space = SweepSpace(total_words_options=(256, 128, 256, 64, 128),
                           bits_options=(16, 8, 16),
                           brick_words_options=(32, 32),
                           memory_types=("6T", "8T", "6T"))
        assert space == SweepSpace((256, 128, 64), (16, 8), (32,),
                                   ("6T", "8T"))
        assert len(Lattice(space)) == 2 * 2 * 3

    def test_space_without_repeats_keeps_its_tuples(self):
        space = SweepSpace.from_options((128, 64), (32, 8, 16),
                                        (64, 16, 32))
        assert (space.total_words_options, space.bits_options,
                space.brick_words_options) == \
            ((128, 64), (32, 8, 16), (64, 16, 32))

    def test_rejects_empty_axis(self):
        with pytest.raises(ExplorationError):
            SweepSpace.from_options((), (8,), (16,))

    @pytest.mark.parametrize("mode", ["cached", "sharded"])
    def test_rejects_bricks_outside_spec_domain(self, tech, mode):
        from repro.bricks.spec import MAX_BITS, MAX_WORDS
        for bits, brick_words in (((8, MAX_BITS + 44), (16,)),
                                  ((8,), (16, 2 * MAX_WORDS))):
            with pytest.raises(ExplorationError, match="must be <="):
                _session(tech).sweep_engine(
                    mode=mode, total_words_options=(4096,),
                    bits_options=bits,
                    brick_words_options=brick_words).run()

    def test_rejects_unknown_memory_type(self):
        with pytest.raises(ExplorationError):
            SweepSpace.from_options((128,), (8,), (16,),
                                    memory_type="9T")

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ExplorationError):
            SweepSpace.from_options((0,), (8,), (16,))


class TestLattice:
    def test_matches_legacy_grid_order(self):
        """Points run bits -> brick_words -> total_words, skipping
        memory sizes a brick does not divide (the Fig. 4c row order)."""
        space = SweepSpace.from_options(
            (64, 128, 100), (8, 16), (16, 32, 64))
        lattice = Lattice(space)
        expected = [(8, 16, 64, 4), (8, 16, 128, 8), (8, 32, 64, 2),
                    (8, 32, 128, 4), (8, 64, 64, 1), (8, 64, 128, 2),
                    (16, 16, 64, 4), (16, 16, 128, 8), (16, 32, 64, 2),
                    (16, 32, 128, 4), (16, 64, 64, 1), (16, 64, 128, 2)]
        assert [(p.bits, p.brick_words, p.total_words, p.stack)
                for p in lattice.points(0, len(lattice))] == expected

    def test_divisibility_filter(self):
        space = SweepSpace.from_options((100,), (8,), (16, 25, 50))
        lattice = Lattice(space)
        assert len(lattice) == 2
        assert {p.brick_words for p in lattice.points(0, 2)} == {25, 50}

    def test_columns_agree_with_points(self):
        space = SweepSpace.from_options((64, 128), (8, 16), (16, 32))
        lattice = Lattice(space)
        cols = lattice.columns(0, len(lattice))
        for i, p in enumerate(lattice.points(0, len(lattice))):
            assert cols["words"][i] == p.brick_words
            assert cols["bits"][i] == p.bits
            assert cols["stack"][i] == p.stack
            assert cols["total_words"][i] == p.total_words

    def test_multi_type_blocks(self):
        space = SweepSpace.from_options(
            (64,), (8,), (16,), memory_types=("8T", "6T"))
        lattice = Lattice(space)
        assert len(lattice) == 2
        assert lattice.point(0).memory_type == "8T"
        assert lattice.point(1).memory_type == "6T"

    def test_contains(self):
        space = SweepSpace.from_options((64,), (8,), (16, 32))
        lattice = Lattice(space)
        assert lattice.contains("8T", 64, 8, 16)
        assert not lattice.contains("8T", 64, 8, 64)
        assert not lattice.contains("6T", 64, 8, 16)

    def test_point_out_of_range(self):
        lattice = Lattice(SweepSpace.from_options((64,), (8,), (16,)))
        with pytest.raises(ExplorationError):
            lattice.point(1)


class TestLatticeProperty:
    """The array layout against a brute-force enumeration."""

    @_settings
    @given(_spaces)
    @example(SweepSpace((3, 5, 7), (8,), (2, 4), ("8T", "6T")))
    def test_points_match_enumeration(self, space):
        lattice = Lattice(space)
        expected = _enumerate(space)
        assert len(lattice) == len(expected)
        assert lattice.points(0, len(lattice)) == expected
        for point in expected:
            assert lattice.point(point.index) == point
            assert lattice.points(point.index, point.index + 1) == [point]

    @_settings
    @given(_sliced_spaces())
    @example((SweepSpace((3, 5), (8, 16), (2,), ("6T",)), [(0, 0)]))
    def test_columns_equal_points(self, case):
        """Random slices, empty and block-straddling ones included."""
        space, slices = case
        lattice = Lattice(space)
        n = len(lattice)
        for start, stop in [(0, n), (0, 0), (n, n)] + slices:
            cols = lattice.columns(start, stop)
            assert cols["memory_code"].dtype == np.int8
            for name in ("words", "bits", "total_words", "stack"):
                assert cols[name].dtype == np.int64, name
            points = lattice.points(start, stop)
            assert [MEMORY_TYPES[c] for c in cols["memory_code"]] == \
                [p.memory_type for p in points]
            for name, field in (("words", "brick_words"), ("bits", "bits"),
                                ("total_words", "total_words"),
                                ("stack", "stack")):
                assert cols[name].tolist() == \
                    [getattr(p, field) for p in points], name

    @_settings
    @given(_spaces)
    def test_contains_is_membership(self, space):
        lattice = Lattice(space)
        on_lattice = {(p.memory_type, p.total_words, p.bits, p.brick_words)
                      for p in _enumerate(space)}
        for combo in itertools.product(
                MEMORY_TYPES[:3], space.total_words_options + (96, 97),
                space.bits_options + (65,),
                space.brick_words_options + (1, 49)):
            assert lattice.contains(*combo) == (combo in on_lattice), combo

    def test_slices_out_of_range(self):
        lattice = Lattice(SweepSpace.from_options((64,), (8,), (16, 32)))
        for start, stop in ((-1, 1), (0, 3), (2, 1)):
            with pytest.raises(ExplorationError):
                lattice.columns(start, stop)


class TestShardBounds:
    def test_covers_range_without_overlap(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_rejects_bad_size(self):
        with pytest.raises(ExplorationError):
            shard_bounds(10, 0)


def _rows(k, low, high, max_size=40):
    return st.lists(st.tuples(*[st.integers(low, high)] * k),
                    min_size=1, max_size=max_size)


class TestParetoMaskProperty:
    @staticmethod
    def _check(rows):
        columns = [np.asarray(column, dtype=np.float64)
                   for column in zip(*rows)]
        mask = pareto_mask(columns)
        expected = pareto_front(list(range(len(rows))),
                                lambda i: rows[i])
        assert np.flatnonzero(mask).tolist() == expected
        return expected

    @_settings
    @given(_vectors)
    def test_mask_matches_object_front(self, rows):
        """pareto_mask == pareto_front on every random population
        (duplicates survive in both)."""
        self._check(rows)

    @_settings
    @given(st.integers(1, 4).flatmap(lambda k: _rows(k, 0, 2)))
    def test_ties_match_object_front(self, rows):
        """Three levels per objective: most rows tie with others on
        some objective, at one to four objectives."""
        self._check(rows)

    @_settings
    @given(_rows(3, 0, 6, max_size=12).flatmap(
        lambda rows: st.lists(st.sampled_from(rows), min_size=1,
                              max_size=3 * len(rows))))
    def test_duplicate_rows_survive_together(self, rows):
        front = set(self._check(rows))
        for i, row in enumerate(rows):
            twins = {j for j, other in enumerate(rows) if other == row}
            assert twins <= front if i in front else not twins & front

    def test_rejects_ragged_or_missing_columns(self):
        for columns in ([], [np.zeros(3), np.zeros(2)],
                        [np.zeros((2, 2))]):
            with pytest.raises(ExplorationError):
                pareto_mask(columns)

    @_settings
    @given(st.lists(st.tuples(*[st.floats(1e-15, 1e3)] * 3), min_size=1,
                    max_size=40), st.integers(0, 8))
    def test_top_scores_are_row_products(self, rows, k):
        """A shard's top-K score is the product of the objective
        columns, ``==`` to ``prod(axis=1)`` over the stacked rows."""
        matrix = np.asarray(rows, dtype=np.float64)
        columns = {name: np.zeros(len(rows))
                   for name in scale.OBJECTIVE_COLUMNS}
        columns.update(zip(scale.DEFAULT_OBJECTIVES, matrix.T.copy()))
        indices = np.arange(len(rows), dtype=np.int64)
        _, top = scale._reduce(
            columns, indices,
            lambda i: LatticePoint(i, "8T", 64, 8, 16, 4),
            scale.DEFAULT_OBJECTIVES, k)
        products = matrix.prod(axis=1)
        assert [(score, key) for score, key, _ in top.entries()] == \
            sorted((float(products[i]), i) for i in
                   range(len(rows)))[:k]


class TestAccumulatorProperty:
    @_settings
    @given(_vectors, st.integers(1, 7), st.randoms())
    def test_shard_merge_equals_full_front(self, rows, shard_size,
                                           rng):
        """Sharded accumulation in any completion order reproduces the
        full-materialization front."""
        keys = list(range(len(rows)))
        shards = []
        for start, stop in shard_bounds(len(rows), shard_size):
            local = ParetoAccumulator()
            for key in keys[start:stop]:
                local.add(key, key, rows[key])
            shards.append(local)
        rng.shuffle(shards)
        merged = ParetoAccumulator()
        for local in shards:
            merged.merge(local)
        expected = pareto_front(keys, lambda i: rows[i])
        assert merged.front() == sorted(expected)

    @_settings
    @given(_vectors, st.integers(0, 5), st.randoms())
    def test_topk_order_independent(self, rows, k, rng):
        scores = [float(a * b * c) for a, b, c in rows]
        offers = list(enumerate(scores))
        rng.shuffle(offers)
        top = TopKAccumulator(k)
        for key, score in offers:
            top.add(key, key, score)
        expected = sorted(enumerate(scores),
                          key=lambda e: (e[1], e[0]))[:k]
        assert [(s, key) for s, key, _ in top.entries()] == \
            [(s, key) for key, s in expected]


def _session(tech, cache=None):
    return Session(tech, cache=cache)


class TestPriceShard:
    def test_vector_path_prices_all(self, tech):
        space = SweepSpace.from_options((64, 128), (8, 16), (16, 32))
        result = price_shard(space, 0, 0, 8, tech, top_k=4)
        assert result.n_priced == 8
        assert result.frontier
        assert len(result.top) == 4

    def test_shard_size_does_not_change_results(self, tech):
        # Every point prices identically whatever shard it lands in, so
        # the merged frontier and top-K cannot depend on shard_size.
        space = SweepSpace.from_options(
            (64, 128, 256), (8, 16), (16, 32, 64),
            memory_types=("8T", "6T"))
        n_points = len(Lattice(space))

        def merged(shard_size):
            front, top = ParetoAccumulator(), TopKAccumulator(8)
            for shard, (start, stop) in enumerate(
                    shard_bounds(n_points, shard_size)):
                result = price_shard(space, shard, start, stop, tech,
                                     top_k=8)
                for key, point, vector in result.frontier:
                    front.add(key, point, vector)
                for score, key, point in result.top:
                    top.add(key, point, score)
            return front.front(), top.entries()

        whole = merged(8192)
        assert whole[0] and len(whole[1]) == 8
        for shard_size in (1, 7):
            assert merged(shard_size) == whole


class TestEngineEquivalence:
    def test_sharded_frontier_equals_cached(self, tech):
        """The bounded sharded path finds the same frontier as the
        materialize-everything cached path."""
        kwargs = dict(total_words_options=(64, 128, 256),
                      bits_options=(8, 16), brick_words_options=(16,
                                                                 32,
                                                                 64))
        cached = _session(tech).sweep_engine(mode="cached", **kwargs)
        sharded = _session(tech).sweep_engine(mode="sharded",
                                              shard_size=4, **kwargs)
        a = cached.run()
        b = sharded.run()
        assert a.frontier_json() == b.frontier_json()
        assert b.points is None  # sharded never materializes the bulk

    def test_two_jobs_equal_one(self, tech):
        """Pool workers rebuild the lattice from the pickled space; the
        frontier they find is the serial one, byte for byte."""
        kwargs = dict(total_words_options=(64, 128, 256),
                      bits_options=(8, 16), brick_words_options=(16, 32, 64),
                      memory_types=("8T", "6T"), mode="sharded",
                      shard_size=5)
        runs = []
        for jobs in (1, 2):
            with Session(tech, jobs=jobs) as session:
                runs.append(session.sweep_engine(**kwargs).run())
        serial, parallel = runs
        assert serial.shards_total >= 4
        assert parallel.frontier_json() == serial.frontier_json()
        assert parallel.top == serial.top


class TestCheckpointResume:
    SMALL = dict(total_words_options=(64, 128, 256), bits_options=(8, 16),
                 brick_words_options=(16, 32, 64), shard_size=4)
    #: 64 sizes x 32 widths x 5 brick shapes = 10,240 points, 10 shards.
    LARGE = dict(total_words_options=tuple(range(64, 4097, 64)),
                 bits_options=tuple(range(2, 34)),
                 brick_words_options=(4, 8, 16, 32, 64), shard_size=1024)

    def _engine(self, tech, cache, space=SMALL):
        return _session(tech, cache=cache).sweep_engine(mode="sharded",
                                                        **space)

    def test_resume_reprices_nothing(self, tech):
        cache = CharacterizationCache()
        first = self._engine(tech, cache).run()
        assert first.resumed_shards == 0
        second = self._engine(tech, cache).run()
        assert second.resumed_shards == second.shards_total
        assert second.frontier_json() == first.frontier_json()

    def test_killed_then_resumed_is_byte_identical(self, tech):
        """Kill the sweep mid-flight; the resumed run must reproduce
        the uninterrupted frontier byte for byte."""

        class Kill(Exception):
            pass

        def killer(done, total, shard):
            if done >= total // 2:
                raise Kill()

        for space in (self.SMALL, self.LARGE):
            golden = self._engine(tech, CharacterizationCache(),
                                  space).run()
            cache = CharacterizationCache()
            with pytest.raises(Kill):
                self._engine(tech, cache, space).run(progress=killer)
            resumed = self._engine(tech, cache, space).run()
            assert resumed.resumed_shards >= 1
            assert resumed.resumed_shards < resumed.shards_total
            assert resumed.frontier_json() == golden.frontier_json()

    def test_no_resume_ignores_checkpoints(self, tech):
        cache = CharacterizationCache()
        self._engine(tech, cache).run()
        fresh = self._engine(tech, cache).run(resume=False)
        assert fresh.resumed_shards == 0

    def test_checkpoint_key_distinguishes_keep_going(self):
        key = checkpoint_key("explore-shard", "fp", True, 0)
        assert key != checkpoint_key("explore-shard", "fp", False, 0)
        assert key != checkpoint_key("explore-shard", "fp", True, 1)


class TestRefinement:
    def test_candidates_are_off_lattice_midpoints(self):
        space = SweepSpace.from_options((128,), (8, 16, 32),
                                        (16, 32, 64))
        frontier = [scale.ScalePoint(
            index=0, memory_type="8T", total_words=128, bits=16,
            brick_words=32, stack=4, read_delay=1.0, read_energy=1.0,
            write_energy=1.0, area_um2=1.0, leakage_w=1.0)]
        combos = refine_candidates(space, frontier)
        lattice = Lattice(space)
        assert combos
        for mt, tw, bits, bw in combos:
            assert tw % bw == 0
            assert not lattice.contains(mt, tw, bits, bw)

    def test_exclude_suppresses_repeats(self):
        space = SweepSpace.from_options((128,), (8, 16, 32),
                                        (16, 32, 64))
        frontier = [scale.ScalePoint(
            index=0, memory_type="8T", total_words=128, bits=16,
            brick_words=32, stack=4, read_delay=1.0, read_energy=1.0,
            write_energy=1.0, area_um2=1.0, leakage_w=1.0)]
        first = refine_candidates(space, frontier)
        again = refine_candidates(space, frontier, exclude=set(first))
        assert not again

    def test_refine_round_extends_indices_past_lattice(self, tech):
        engine = _session(tech).sweep_engine(
            total_words_options=(128,), bits_options=(8, 16, 32),
            brick_words_options=(16, 32, 64))
        base = engine.run()
        n = base.n_points
        refined = engine.refine(rounds=1)
        assert refined.refined_rounds <= 1
        if refined.n_refined:
            assert refined.n_priced > n
        for point in refined.frontier:
            if point.index >= n:
                # A refined survivor sits off the original lattice.
                lattice = Lattice(engine.space)
                assert not lattice.contains(
                    point.memory_type, point.total_words, point.bits,
                    point.brick_words)

    def test_refine_is_deterministic(self, tech):
        def run_once():
            engine = _session(tech).sweep_engine(
                total_words_options=(128,), bits_options=(8, 16, 32),
                brick_words_options=(16, 32, 64))
            engine.run()
            return engine.refine(rounds=2).frontier_json()

        assert run_once() == run_once()

    def test_zero_rounds_is_noop(self, tech):
        engine = _session(tech).sweep_engine(
            total_words_options=(128,), bits_options=(8,),
            brick_words_options=(16, 32))
        base = engine.run().frontier_json()
        assert engine.refine(rounds=0).frontier_json() == base


class TestPriceCombos:
    def test_indices_continue_from_start(self, tech):
        combos = [("8T", 96, 8, 16), ("8T", 96, 8, 32)]
        result = scale.price_combos(combos, tech, start_index=100)
        assert result.start == 100
        assert result.stop == 102
        indices = {key for key, _, _ in result.frontier}
        assert indices <= {100, 101}

    def test_lattice_point_label(self):
        point = LatticePoint(index=0, memory_type="8T",
                             total_words=128, bits=8, brick_words=16,
                             stack=8)
        assert "128x8b" in point.label
