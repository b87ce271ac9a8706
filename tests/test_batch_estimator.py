"""Tests for the vectorized batch-estimator kernel and its plumbing.

Covers the struct-of-arrays :class:`BrickSpecBatch` construction and
validation, ``compile_brick`` as a row of the batch compiler, the batch
compiler's sizing against the scalar sizer and the kernel against the
scalar estimator, both oracles of
``tests/test_fast_paths_vs_reference.py``, the batch-first
``estimate_points`` routing (cache short-circuit shared with
``cached_estimate``, executor batching,
keep-going failure expansion, ``jobs``-independence), the
``characterize.estimate.*`` metrics and the kernel's behaviour at the
corners of the spec domain.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bricks import (
    BrickSpecBatch,
    cam_brick,
    compile_brick,
    estimate_brick,
    estimate_brick_batch,
    sram_brick,
)
from repro.bricks.batch import brick_rows, compile_batch, compiled_row, \
    estimate_metric_columns, point_columns
from repro.bricks.spec import BrickSpec
from repro.cells.bitcells import MEMORY_TYPES
from repro.errors import BrickError, ExecutorError
from repro.obs.metrics import MetricsRegistry
from repro.perf import (
    CharacterizationCache,
    TaskFailure,
    cached_estimate,
    chunk_slices,
    estimate_points,
    executor_stats,
    reset_executor_stats,
)
from repro.session import Session
from repro.tech.corners import CORNERS
from repro.tech.presets import cmos28, cmos65

from .test_fast_paths_vs_reference import reference_compile_brick, \
    reference_estimate_brick


def assert_rows_match_oracle(points, results, tech, perf_identical):
    """Each result is ``==`` to the oracle over the batch compiler's
    sizing of its point."""
    compiled = compile_batch(BrickSpecBatch.from_points(points), tech)
    assert len(results) == len(points)
    for i, got in enumerate(results):
        perf_identical(got, reference_estimate_brick(
            compiled_row(compiled, tech, i), tech))


class TestBrickSpecBatch:
    def test_empty_batch(self, tech):
        batch = BrickSpecBatch.from_points([])
        assert batch.n_points == 0
        assert estimate_brick_batch([], tech) == []

    def test_single_point_matches_oracle(self, tech, perf_identical):
        points = [(sram_brick(16, 10), 2)]
        assert_rows_match_oracle(points, estimate_brick_batch(points, tech),
                                 tech, perf_identical)

    def test_mixed_brick_types_match_oracle(self, tech, perf_identical):
        points = [(sram_brick(16, 10), 1),
                  (cam_brick(8, 12), 2),
                  (BrickSpec("6T", 32, 8), 1),
                  (BrickSpec("EDRAM", 64, 16), 4),
                  (BrickSpec("DP", 16, 10), 8),
                  (cam_brick(16, 10), 1)]
        # A population spanning every type, 4-128 words, 4-32 bits and
        # stacks 1-8 in one batch.
        words, bits = (4, 8, 16, 32, 64, 128), (4, 8, 10, 12, 16, 32)
        points += [(BrickSpec(MEMORY_TYPES[i % len(MEMORY_TYPES)],
                              words[i % len(words)],
                              bits[(i // 3) % len(bits)]), 1 + i % 8)
                   for i in range(50)]
        assert_rows_match_oracle(points, estimate_brick_batch(points, tech),
                                 tech, perf_identical)

    def test_sizing_matches_compiler(self, tech):
        """The batch compiler picks the scalar sizer's stage counts and
        widths; its stage caps, raised to a power elementwise, agree to
        a few ulp."""
        points = [(BrickSpec(memory_type, words, bits), stack)
                  for memory_type in MEMORY_TYPES
                  for words in (1, 16, 64, 256, 1024)
                  for bits in (1, 10, 32, 256)
                  for stack in (1, 4, 32)]
        batch = compile_batch(BrickSpecBatch.from_points(points), tech)
        for i, (spec, stack) in enumerate(points):
            row = compiled_row(batch, tech, i)
            scalar = reference_compile_brick(spec, tech, target_stack=stack)
            assert (row.spec, row.tech_name, row.target_stack,
                    row.bitcell) == (scalar.spec, scalar.tech_name,
                                     scalar.target_stack, scalar.bitcell)
            assert row.sense == scalar.sense
            assert row.wl_driver.nand_input_cap == \
                scalar.wl_driver.nand_input_cap
            if scalar.match:
                assert (row.match.w_ml_pre, row.match.w_ml_sense_n,
                        row.match.w_ml_sense_p) == (
                    scalar.match.w_ml_pre, scalar.match.w_ml_sense_n,
                    scalar.match.w_ml_sense_p)
            else:
                assert row.match is None
            for got, want in (
                    (row.wl_driver.stage_caps,
                     scalar.wl_driver.stage_caps),
                    (row.control.stage_caps, scalar.control.stage_caps),
                    (row.control.preb_stage_caps,
                     scalar.control.preb_stage_caps),
                    (row.match.sl_stage_caps if row.match else (),
                     scalar.match.sl_stage_caps if scalar.match else ())):
                assert len(got) == len(want)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_spec_roundtrip(self):
        batch = BrickSpecBatch.from_points(
            [(sram_brick(16, 10), 1), (cam_brick(8, 12), 3)])
        assert batch.spec(0) == sram_brick(16, 10)
        assert batch.spec(1) == cam_brick(8, 12)
        assert list(batch.is_cam) == [False, True]
        assert list(batch.stack) == [1, 3]

    def test_rejects_unknown_memory_type(self):
        with pytest.raises(BrickError, match="unknown memory type"):
            BrickSpecBatch.from_arrays(["9T"], [16], [10], [1])

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(BrickError, match="words"):
            BrickSpecBatch.from_arrays(["8T"], [0], [10], [1])
        with pytest.raises(BrickError, match="bits"):
            BrickSpecBatch.from_arrays(["8T"], [16], [10000], [1])
        with pytest.raises(BrickError, match="stack"):
            BrickSpecBatch.from_arrays(["8T"], [16], [10], [-1])

    def test_rejects_nan_and_fractional_columns(self):
        with pytest.raises(BrickError, match="finite integers"):
            BrickSpecBatch.from_arrays(["8T"], [float("nan")], [10], [1])
        with pytest.raises(BrickError, match="finite integers"):
            BrickSpecBatch.from_arrays(["8T"], [16.5], [10], [1])

    def test_rejects_bad_out_load(self):
        with pytest.raises(BrickError, match="finite and positive"):
            BrickSpecBatch.from_arrays(
                ["8T"], [16], [10], [1], out_load=[float("nan")])
        with pytest.raises(BrickError, match="finite and positive"):
            BrickSpecBatch.from_arrays(
                ["8T"], [16], [10], [1], out_load=[-1e-15])
        with pytest.raises(BrickError, match="align"):
            BrickSpecBatch.from_arrays(
                ["8T"], [16], [10], [1], out_load=[1e-15, 2e-15])

    def test_rejects_mismatched_columns(self):
        with pytest.raises(BrickError, match="equal length"):
            BrickSpecBatch.from_arrays(["8T", "6T"], [16], [10], [1])


_ROW_SHAPES = ((1, 1), (4, 4), (16, 10), (64, 8), (8, 32), (128, 64),
               (256, 16), (1024, 256))


def assert_row_equal(one, population, i):
    """The one-point batch ``one`` is ``==`` to point ``i`` of
    ``population`` in every column, each read through its batch's
    point -> sized-row index (chains up to the row's stage count; CAM
    columns at the row's position in ``cam_idx``)."""
    assert {f.name for f in dataclasses.fields(one)} == {
        "batch", "tech_name", "row", "first", "cell", "nand_cap",
        "wl_caps", "wl_n", "w_sense_n", "w_sense_p", "w_pull",
        "w_precharge", "ctrl_caps", "ctrl_n", "preb_caps", "preb_n",
        "cam_idx", "sl_caps", "sl_n", "w_ml_pre", "w_ml_sense_n",
        "w_ml_sense_p"}
    assert one.batch.n_points == 1
    assert one.batch.out_load is None is population.batch.out_load
    for name in ("memory_code", "words", "bits", "stack"):
        assert getattr(one.batch, name)[0] == \
            getattr(population.batch, name)[i], name
    assert one.row.tolist() == [0] and one.first.tolist() == [0]
    r = int(population.row[i])
    assert population.row[population.first[r]] == r
    assert one.tech_name == population.tech_name
    assert one.nand_cap == population.nand_cap
    assert list(one.cell) == list(population.cell)
    for name, column in population.cell.items():
        assert one.cell[name][0] == column[r], name
    for name in ("w_sense_n", "w_sense_p", "w_pull", "w_precharge"):
        assert getattr(one, name)[0] == getattr(population, name)[r], name

    def chain(compiled, name, row):
        n = int(getattr(compiled, name + "_n")[row])
        return getattr(compiled, name + "_caps")[row, :n].tolist()

    for name in ("wl", "ctrl", "preb"):
        assert chain(one, name, 0) == chain(population, name, r), name
    cam = population.cam_idx.tolist()
    assert one.cam_idx.tolist() == ([0] if r in cam else [])
    if r in cam:
        j = cam.index(r)
        assert chain(one, "sl", 0) == chain(population, "sl", j)
        for name in ("w_ml_pre", "w_ml_sense_n", "w_ml_sense_p"):
            assert getattr(one, name)[0] == getattr(population, name)[j]


class TestCompileBrickIsARow:
    """``compile_brick`` is a one-row ``compile_batch``: packed back
    into columns, a brick compiled alone is ``==`` to its row of a
    population compiled together, in every column."""

    @pytest.mark.parametrize("corner_name", ["nominal", "best", "worst"])
    @pytest.mark.parametrize("node", ["cmos65", "cmos28"])
    def test_round_trip(self, node, corner_name):
        tech = CORNERS[corner_name].apply(
            {"cmos65": cmos65, "cmos28": cmos28}[node]())
        points = [(BrickSpec(memory_type, words, bits), stack)
                  for memory_type in MEMORY_TYPES
                  for words, bits in _ROW_SHAPES
                  for stack in (1, 3, 8)]
        population = compile_batch(BrickSpecBatch.from_points(points),
                                   tech)
        for i, (spec, stack) in enumerate(points):
            compiled = compile_brick(spec, tech, target_stack=stack)
            assert compiled == compiled_row(population, tech, i)
            assert_row_equal(brick_rows(compiled, stack), population, i)

    def test_rejects_bad_stack_and_foreign_tech(self, tech):
        with pytest.raises(BrickError, match="stack count"):
            compile_brick(sram_brick(16, 10), tech, target_stack=0)
        population = compile_batch(
            BrickSpecBatch.from_points([(sram_brick(16, 10), 1)]), tech)
        with pytest.raises(BrickError, match="compiled for"):
            compiled_row(population, cmos28(), 0)


#: Stack counts on both sides of the ARBL pull-down's 16 x w_min cap
#: (a 1- or 4-word brick saturates only past stack ~8, a 256-word one
#: at stack 1), so populations mix shared and per-stack sized rows.
_ORACLE_STACKS = (1, 2, 3, 5, 8, 12, 64, 4096)

_ORACLE_LOADS = (1e-15, 4e-15, 5e-14)


@st.composite
def _oracle_points(draw):
    """``(type, words, bits, stack, out_load)`` points over a few specs,
    so that bricks and stacks repeat within a population."""
    specs = draw(st.lists(
        st.tuples(st.sampled_from(MEMORY_TYPES),
                  st.sampled_from((1, 4, 16, 256)),
                  st.sampled_from((1, 8, 10, 32))),
        min_size=1, max_size=4))
    return draw(st.lists(
        st.builds(lambda spec, stack, load: spec + (stack, load),
                  st.sampled_from(specs), st.sampled_from(_ORACLE_STACKS),
                  st.sampled_from(_ORACLE_LOADS)),
        min_size=1, max_size=24))


def _columns(types, words, bits, stacks, loads, tech):
    batch = BrickSpecBatch.from_arrays(types, words, bits, stacks, loads)
    return _priced(compile_batch(batch, tech), tech)


def _priced(compiled, tech):
    """The kernel's columns, every one gathered per point."""
    return point_columns(compiled,
                         estimate_metric_columns(compiled, tech))


def _point_values(columns, i):
    """Every metric and component value of point ``i`` (match values
    at its position in ``cam_idx``, ``None`` for a non-CAM point)."""
    values = {name: columns[name][i] for name in (
        "read_delay", "read_energy", "write_energy", "setup",
        "clock_cap", "wbl_cap", "area_um2", "brick_area", "leakage_w")}
    values.update({"c." + key: column[i]
                   for key, column in columns["components"].items()})
    cam = columns["cam_idx"].tolist()
    for name in ("match_delay", "match_energy"):
        values[name] = columns[name][cam.index(i)] if i in cam else None
    values["hold"] = columns["hold"]
    return values


class TestFactorizationOracle:
    """The kernel sizes and prices each distinct sized brick once and
    only the stack/out_load terms per point; the oracle for that split
    is the same point priced alone, bit for bit."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=_oracle_points(), per_point_load=st.booleans())
    def test_point_equals_its_one_point_batch(self, tech, points,
                                              per_point_load):
        types, words, bits, stacks, loads = (list(c)
                                             for c in zip(*points))
        if not per_point_load:
            loads = None
        population = _columns(types, words, bits, stacks, loads, tech)
        for i in range(len(points)):
            alone = _columns(types[i:i + 1], words[i:i + 1],
                             bits[i:i + 1], stacks[i:i + 1],
                             None if loads is None else loads[i:i + 1],
                             tech)
            assert _point_values(population, i) == \
                _point_values(alone, 0), (i, points[i])

    @settings(max_examples=25, deadline=None)
    @given(memory_type=st.sampled_from(MEMORY_TYPES),
           shape=st.sampled_from(((1, 8), (4, 10), (16, 32), (256, 1))),
           target_stack=st.sampled_from(_ORACLE_STACKS),
           stack=st.sampled_from(_ORACLE_STACKS),
           loads=st.lists(st.sampled_from(_ORACLE_LOADS), min_size=1,
                          max_size=5))
    def test_brick_rows_is_one_row_per_load(self, tech, memory_type, shape,
                                            target_stack, stack, loads):
        compiled = compile_brick(BrickSpec(memory_type, *shape), tech,
                                 target_stack=target_stack)
        rows = brick_rows(compiled, stack, loads)
        assert rows.first.tolist() == [0]
        together = _priced(rows, tech)
        for i, load in enumerate(loads):
            alone = _priced(brick_rows(compiled, stack, [load]), tech)
            assert _point_values(together, i) == _point_values(alone, 0)

    def test_lattice_shard_compiles_few_sized_rows(self, tech):
        from repro.explore.lattice import Lattice, SweepSpace
        space = SweepSpace(
            total_words_options=tuple(64 * k for k in range(1, 129)),
            bits_options=tuple(range(8, 40, 2)),
            brick_words_options=(4, 8, 16, 32, 64),
            memory_types=("8T", "6T"))
        cols = Lattice(space).columns(0, 8192)
        batch = BrickSpecBatch(memory_code=cols["memory_code"],
                               words=cols["words"], bits=cols["bits"],
                               stack=cols["stack"])
        compiled = compile_batch(batch, tech)
        n_rows = compiled.first.shape[0]
        specs = set(zip(batch.memory_code.tolist(), batch.words.tolist(),
                        batch.bits.tolist()))
        # One row per spec and pull-down width: at most a few widths
        # per spec below saturation, against 8192 points.
        assert len(specs) <= n_rows < 4 * len(specs)
        assert n_rows * 50 < batch.n_points
        # Each row is one distinct sized brick, and every point reads a
        # row of its own spec.
        rows = set(zip(batch.memory_code[compiled.first].tolist(),
                       batch.words[compiled.first].tolist(),
                       batch.bits[compiled.first].tolist(),
                       compiled.w_pull.tolist()))
        assert len(rows) == n_rows
        for name in ("memory_code", "words", "bits"):
            column = getattr(batch, name)
            assert (column[compiled.first][compiled.row] == column).all()
        # ... sized for the point's own stack.
        for i in range(0, batch.n_points, 97):
            assert compiled_row(compiled, tech, i) == compile_brick(
                batch.spec(i), tech, target_stack=int(batch.stack[i]))


class TestChunkSlices:
    def test_partitions_exactly(self):
        for n_tasks in (0, 1, 5, 16, 100):
            for n_chunks in (1, 3, 7, 200):
                chunks = chunk_slices(n_tasks, n_chunks)
                flat = [i for chunk in chunks for i in chunk]
                assert flat == list(range(n_tasks))
                assert all(len(chunk) > 0 for chunk in chunks)
                assert len(chunks) <= min(n_chunks, max(n_tasks, 0)) \
                    or n_tasks == 0

    def test_balanced(self):
        sizes = [len(chunk) for chunk in chunk_slices(10, 4)]
        assert sizes == [3, 3, 2, 2]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chunk_slices(4, 0)
        with pytest.raises(ValueError):
            chunk_slices(-1, 2)


class TestEstimatePointsBatchFirst:
    def _points(self, n):
        return [(sram_brick(16, 8 + (i % 4)), 1 + (i % 3))
                for i in range(n)]

    def _session(self, tech, **kwargs):
        return Session(tech, cache=CharacterizationCache(cache_dir=None),
                       **kwargs)

    def test_matches_oracle_and_caches(self, tech, perf_identical):
        session = self._session(tech)
        points = self._points(9)
        results = estimate_points(points, session)
        unique = len(set(points))
        assert session.cache.stats.misses == unique
        assert_rows_match_oracle(points, results, tech, perf_identical)
        # Warm run: every point short-circuits in the cache probe, the
        # kernel is never invoked.
        again = estimate_points(points, session)
        assert again == results
        assert session.cache.stats.misses == unique

    def test_cached_estimate_shares_key(self, tech, perf_identical):
        """A point ``estimate_points`` priced is a warm hit for
        ``cached_estimate``: one cache, one miss, one hit, ``==``
        values.  8T 64x8 is a point whose control stage caps the old
        scalar sizer set apart in the last bit."""
        session = self._session(tech)
        spec = BrickSpec("8T", 64, 8)
        swept, = estimate_points([(spec, 1)], session)
        single = cached_estimate(spec, tech, 1, cache=session.cache)
        assert (session.cache.stats.misses,
                session.cache.stats.hits) == (1, 1)
        perf_identical(single, swept)
        perf_identical(single, estimate_brick(
            compile_brick(spec, tech, target_stack=1), tech, stack=1))
        assert compile_brick(spec, tech).control != \
            reference_compile_brick(spec, tech).control

    def test_warm_run_skips_kernel(self, tech, monkeypatch):
        from repro.bricks import batch
        session = self._session(tech)
        points = self._points(5)
        estimate_points(points, session)
        calls = []

        def counting_kernel(pts, t):
            calls.append(len(pts))
            raise AssertionError("kernel must not run on a warm cache")

        monkeypatch.setattr(batch, "estimate_brick_batch",
                            counting_kernel)
        estimate_points(points, session)
        assert calls == []

    def test_executor_counts_batches_not_points(self, tech):
        reset_executor_stats()
        try:
            estimate_points(self._points(12), self._session(tech))
            # One chunk (jobs=1) for twelve points: one executor task.
            assert executor_stats().tasks == 1
        finally:
            reset_executor_stats()

    def test_metrics_record_batch_throughput(self, tech):
        metrics = MetricsRegistry()
        points = self._points(8)
        estimate_points(points, self._session(tech, metrics=metrics))
        unique = len(set(points))
        assert metrics.counter(
            "characterize.estimate.points").value == unique
        ns = metrics.gauge("characterize.estimate.ns_per_point").value
        assert math.isfinite(ns) and ns > 0

    def test_bit_identical_across_jobs(self, tech):
        # A point prices the same alone or inside any chunk, so the
        # chunking ``jobs`` implies cannot change a single bit.
        points = [(BrickSpec(memory_type, words, bits), stack)
                  for memory_type in MEMORY_TYPES
                  for words, bits, stack in ((16, 10, 1), (64, 8, 4),
                                             (8, 32, 2))]
        serial = estimate_points(points, self._session(tech, jobs=1))
        for jobs in (2, 3):
            with self._session(tech, jobs=jobs) as session:
                assert estimate_points(points, session) == serial

    def test_keep_going_reindexes_failures(self, tech,
                                          fail_chunks_with_32_words):
        session = self._session(tech, jobs=2)
        warm = (sram_brick(8, 10), 1)
        estimate_points([warm], session)
        # Cold points 16/32/64 split into chunks [16, 32] and [64]: the
        # first chunk fails as a whole, in the pool and on its serial
        # re-execution.
        points = [warm, (sram_brick(16, 10), 1), (sram_brick(32, 10), 1),
                  (sram_brick(64, 10), 1)]
        results = estimate_points(points, session, keep_going=True)
        assert not isinstance(results[0], TaskFailure)
        for position, cold_index in ((1, 0), (2, 1)):
            failure = results[position]
            assert isinstance(failure, TaskFailure)
            assert failure.index == cold_index
            assert "injected failure" in failure.error
        assert not isinstance(results[3], TaskFailure)
        # Failures are never cached, so a strict rerun recomputes the
        # failed chunk and the executor's error propagates.
        with pytest.raises(ExecutorError) as info:
            estimate_points(points, session)
        assert isinstance(info.value.__cause__, BrickError)


class TestKernelDomainCorners:
    def test_spec_domain_corners_are_finite(self, tech):
        from repro.bricks.spec import MAX_BITS, MAX_WORDS
        rows = [(memory_type, words, bits, stack)
                for memory_type in MEMORY_TYPES
                for words in (1, MAX_WORDS)
                for bits in (1, MAX_BITS)
                for stack in (1, 2 ** 20)]
        types, words, bits, stacks = (list(col) for col in zip(*rows))
        for corner in CORNERS.values():
            derated = corner.apply(tech)
            batch = BrickSpecBatch.from_arrays(types, words, bits, stacks)
            columns = estimate_metric_columns(
                compile_batch(batch, derated), derated)
            for name in ("read_delay", "read_energy", "write_energy",
                         "area_um2", "leakage_w"):
                assert np.all(np.isfinite(columns[name])), \
                    (corner.name, name)
            perfs = estimate_brick_batch(
                [(BrickSpec(t, w, b), k) for t, w, b, k in rows],
                derated)
            assert all(math.isfinite(p.read_delay)
                       and math.isfinite(p.read_energy) for p in perfs)
