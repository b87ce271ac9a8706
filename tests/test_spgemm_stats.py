"""Tests for workload analysis and the analytical speedup model."""

import numpy as np
import pytest

from repro.errors import SparseError
from repro.spgemm import (
    CAMSpGEMMAccelerator,
    CSCMatrix,
    HeapSpGEMMAccelerator,
    analyze_workload,
    benchmark_suite,
    random_sparse,
)


class TestAnalyzeWorkload:
    def test_identity_product_statistics(self):
        eye = CSCMatrix.from_dense(np.eye(8))
        stats = analyze_workload(eye, eye)
        assert stats.work == 8
        assert stats.result_nnz == 8
        assert stats.mean_col_fill == 1.0
        assert stats.max_col_fill == 1

    def test_work_weighted_fill_bounded_by_max(self):
        a = random_sparse(30, 30, 0.2, seed=1)
        b = random_sparse(30, 30, 0.2, seed=2)
        stats = analyze_workload(a, b)
        assert 0 < stats.work_weighted_fill <= stats.max_col_fill

    def test_compression_at_least_one(self):
        a = random_sparse(20, 20, 0.3, seed=3)
        b = random_sparse(20, 20, 0.3, seed=4)
        stats = analyze_workload(a, b)
        assert stats.compression >= 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SparseError):
            analyze_workload(random_sparse(4, 5, 0.5, seed=5),
                             random_sparse(4, 4, 0.5, seed=6))

    def test_denser_workload_higher_fill(self):
        sparse = analyze_workload(random_sparse(40, 40, 0.05, seed=7),
                                  random_sparse(40, 40, 0.05, seed=8))
        dense = analyze_workload(random_sparse(40, 40, 0.3, seed=7),
                                 random_sparse(40, 40, 0.3, seed=8))
        assert dense.work_weighted_fill > sparse.work_weighted_fill


class TestSpeedupModel:
    def test_prediction_scales_with_clock_ratio(self):
        a = random_sparse(20, 20, 0.2, seed=9)
        b = random_sparse(20, 20, 0.2, seed=10)
        stats = analyze_workload(a, b)
        assert stats.predicted_speedup(f_ratio=1.0) > \
            stats.predicted_speedup(f_ratio=0.5)

    def test_model_explains_the_fig6_spread(self):
        """The mechanism check: predicted speedups must rank the suite
        the same way measured speedups do (within one adjacent swap)
        and stay within a factor of 4 of the measurement."""
        cam = CAMSpGEMMAccelerator()
        heap = HeapSpGEMMAccelerator()
        names, predicted, measured = [], [], []
        for workload in benchmark_suite("tiny"):
            stats = analyze_workload(workload.a, workload.b)
            cam_run = cam.simulate(workload.a, workload.b,
                                   verify=False)
            heap_run = heap.simulate(workload.a, workload.b,
                                     verify=False)
            names.append(workload.name)
            predicted.append(stats.predicted_speedup())
            measured.append(heap_run.completion_time_s
                            / cam_run.completion_time_s)
        # Factor-of-4 envelope.
        for name, p, m in zip(names, predicted, measured):
            assert p / 4.0 < m < p * 4.0, (name, p, m)
        # The extremes must agree: the predicted-fastest workload is
        # the measured-fastest, and the predicted-slowest measures
        # within 15 % of the true measured minimum (ties allowed).
        assert names[predicted.index(max(predicted))] == \
            names[measured.index(max(measured))]
        measured_at_predicted_min = measured[
            predicted.index(min(predicted))]
        assert measured_at_predicted_min <= min(measured) * 1.15
