"""Tests for the CSC sparse-matrix substrate and golden SpGEMM."""

import numpy as np
import pytest

from repro.errors import SparseError
from repro.spgemm import (
    CSCMatrix,
    multiply_work,
    random_sparse,
    spgemm_dense_check,
    spgemm_gustavson,
)


class TestConstruction:
    def test_from_coo_sorts_and_sums_duplicates(self):
        m = CSCMatrix.from_coo(3, 2, [(2, 0, 1.0), (0, 0, 2.0),
                                      (2, 0, 3.0)])
        rows, values = m.column(0)
        assert list(rows) == [0, 2]
        assert list(values) == [2.0, 4.0]

    def test_from_coo_drops_cancelled_entries(self):
        m = CSCMatrix.from_coo(2, 2, [(0, 0, 1.0), (0, 0, -1.0)])
        assert m.nnz == 0

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(SparseError):
            CSCMatrix.from_coo(2, 2, [(2, 0, 1.0)])

    def test_dense_roundtrip(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        m = CSCMatrix.from_dense(dense)
        assert np.array_equal(m.to_dense(), dense)
        assert m.nnz == 3

    def test_invalid_indptr_rejected(self):
        with pytest.raises(SparseError):
            CSCMatrix(2, 2, np.array([0, 1]), np.array([0]),
                      np.array([1.0]))

    def test_unsorted_column_rejected(self):
        with pytest.raises(SparseError):
            CSCMatrix(3, 1, np.array([0, 2]), np.array([2, 0]),
                      np.array([1.0, 1.0]))


class TestQueries:
    def test_transpose_roundtrip(self):
        m = random_sparse(7, 5, 0.35, seed=3)
        assert np.array_equal(m.transpose().to_dense(),
                              m.to_dense().T)

    def test_allclose_detects_value_difference(self):
        a = CSCMatrix.from_dense(np.eye(3))
        b = a.scale(1.0 + 1e-6)
        assert not a.allclose(b)
        assert a.allclose(a.scale(1.0))


class TestGoldenSpGEMM:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_dense_multiply(self, seed):
        a = random_sparse(12, 9, 0.3, seed=seed)
        b = random_sparse(9, 11, 0.3, seed=seed + 100)
        c = spgemm_gustavson(a, b)
        assert spgemm_dense_check(a, b, c)

    def test_identity_is_neutral(self):
        a = random_sparse(8, 8, 0.4, seed=5)
        c = spgemm_gustavson(a, CSCMatrix.from_dense(np.eye(8)))
        assert c.allclose(a)

    def test_empty_product(self):
        a = CSCMatrix.empty(4, 4)
        b = random_sparse(4, 4, 0.5, seed=6)
        assert spgemm_gustavson(a, b).nnz == 0

    def test_dimension_mismatch_rejected(self):
        a = random_sparse(4, 5, 0.5, seed=7)
        b = random_sparse(4, 4, 0.5, seed=8)
        with pytest.raises(SparseError):
            spgemm_gustavson(a, b)

    def test_numerical_cancellation_dropped(self):
        a = CSCMatrix.from_coo(2, 2, [(0, 0, 1.0), (0, 1, -1.0)])
        b = CSCMatrix.from_coo(2, 1, [(0, 0, 1.0), (1, 0, 1.0)])
        c = spgemm_gustavson(a, b)
        assert c.nnz == 0  # +1 and -1 cancel exactly

    def test_multiply_work_counts_flops(self):
        a = CSCMatrix.from_dense(np.eye(4))
        b = CSCMatrix.from_dense(np.eye(4))
        assert multiply_work(a, b) == 4
        a2 = random_sparse(6, 6, 0.5, seed=9)
        b2 = random_sparse(6, 6, 0.5, seed=10)
        assert multiply_work(a2, b2) >= spgemm_gustavson(a2, b2).nnz
