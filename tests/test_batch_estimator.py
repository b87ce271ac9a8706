"""Tests for the vectorized batch-estimator kernel and its plumbing.

Covers the struct-of-arrays :class:`BrickSpecBatch` construction and
validation, the batch compiler's sizing against the scalar compiler,
the kernel against the scalar oracle of
``tests/test_fast_paths_vs_reference.py``, the batch-first
``estimate_points`` routing (cache short-circuit, executor batching,
keep-going failure expansion, ``jobs``-independence), the
``characterize.estimate.*`` metrics and the kernel's behaviour at the
corners of the spec domain.
"""

import math

import numpy as np
import pytest

from repro.bricks import (
    BrickSpecBatch,
    cam_brick,
    compile_brick,
    estimate_brick,
    estimate_brick_batch,
    sram_brick,
)
from repro.bricks.batch import compile_batch, estimate_metric_columns
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

from .test_fast_paths_vs_reference import compiled_row, \
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
        """The batch compiler picks the scalar compiler's stage counts
        and widths; its stage caps, raised to a power elementwise, agree
        to a few ulp."""
        points = [(BrickSpec(memory_type, words, bits), stack)
                  for memory_type in MEMORY_TYPES
                  for words in (1, 16, 64, 256, 1024)
                  for bits in (1, 10, 32, 256)
                  for stack in (1, 4, 32)]
        batch = compile_batch(BrickSpecBatch.from_points(points), tech)
        for i, (spec, stack) in enumerate(points):
            row = compiled_row(batch, tech, i)
            scalar = compile_brick(spec, tech, target_stack=stack)
            assert row.sense == scalar.sense
            for got, want in (
                    (row.wl_driver.stage_caps,
                     scalar.wl_driver.stage_caps),
                    (row.control.stage_caps, scalar.control.stage_caps),
                    (row.control.preb_stage_caps,
                     scalar.control.preb_stage_caps),
                    (row.match.sl_stage_caps if row.match else (),
                     scalar.match.sl_stage_caps if scalar.match else ())):
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

    def test_cached_estimate_keyed_apart(self, tech, perf_identical):
        """``cached_estimate`` prices the scalar compiler's sizing.  For
        8T 64x8 the batch compiler's control stage caps differ from it
        in the last bit, so a point ``estimate_points`` cached must not
        be served to ``cached_estimate``: one cache, two misses."""
        session = self._session(tech)
        spec = BrickSpec("8T", 64, 8)
        swept, = estimate_points([(spec, 1)], session)
        single = cached_estimate(spec, tech, 1, cache=session.cache)
        assert session.cache.stats.misses == 3  # + the compiled brick
        perf_identical(single, estimate_brick(
            compile_brick(spec, tech, target_stack=1), tech, stack=1))
        assert swept != single  # the case is not vacuous

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
