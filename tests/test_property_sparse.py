"""Property-based tests for the sparse-matrix substrate and SpGEMM.

Hypothesis drives random COO entry lists through construction, algebra
and the accelerator simulators, checking algebraic invariants against
dense numpy arithmetic.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.spgemm import (
    CAMSpGEMMAccelerator,
    CSCMatrix,
    HeapSpGEMMAccelerator,
    multiply_work,
    spgemm_gustavson,
)

# Strategy: small matrices as COO entry lists with integer-ish values
# (exact float arithmetic -> exact comparisons).


def entries_strategy(n_rows, n_cols, max_entries=40):
    return st.lists(
        st.tuples(st.integers(0, n_rows - 1),
                  st.integers(0, n_cols - 1),
                  st.sampled_from([1.0, 2.0, 0.5, -1.0, 3.0])),
        max_size=max_entries)


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(2, 12))
    m = draw(st.integers(2, 12))
    a = CSCMatrix.from_coo(n, k, draw(entries_strategy(n, k)))
    b = CSCMatrix.from_coo(k, m, draw(entries_strategy(k, m)))
    return a, b


_settings = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestConstructionProperties:
    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    @_settings
    def test_dense_roundtrip(self, n, m, data):
        entries = data.draw(entries_strategy(n, m))
        matrix = CSCMatrix.from_coo(n, m, entries)
        rebuilt = CSCMatrix.from_dense(matrix.to_dense())
        assert matrix.allclose(rebuilt)

    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    @_settings
    def test_columns_sorted_and_in_range(self, n, m, data):
        entries = data.draw(entries_strategy(n, m))
        matrix = CSCMatrix.from_coo(n, m, entries)
        for j in range(m):
            rows, _ = matrix.column(j)
            assert list(rows) == sorted(set(rows))
            assert all(0 <= r < n for r in rows)

    @given(st.integers(2, 10), st.data())
    @_settings
    def test_transpose_involution(self, n, data):
        entries = data.draw(entries_strategy(n, n))
        matrix = CSCMatrix.from_coo(n, n, entries)
        assert matrix.transpose().transpose().allclose(matrix)


class TestSpGEMMProperties:
    @given(matrix_pairs())
    @_settings
    def test_matches_dense_product(self, pair):
        a, b = pair
        c = spgemm_gustavson(a, b)
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    @given(matrix_pairs())
    @_settings
    def test_work_upper_bounds_output(self, pair):
        a, b = pair
        assert multiply_work(a, b) >= spgemm_gustavson(a, b).nnz

    @given(matrix_pairs())
    @_settings
    def test_identity_absorption(self, pair):
        a, _ = pair
        eye = CSCMatrix.from_dense(np.eye(a.n_cols))
        assert spgemm_gustavson(a, eye).allclose(a)


class TestAcceleratorProperties:
    @given(matrix_pairs())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_both_accelerators_verified_and_heap_never_faster(self,
                                                              pair):
        a, b = pair
        cam_run = CAMSpGEMMAccelerator().simulate(a, b)   # verify=True
        heap_run = HeapSpGEMMAccelerator().simulate(a, b)
        # verify=True inside simulate already asserts correctness.
        work = multiply_work(a, b)
        if work > 0:
            # Every product costs at least one cycle on either chip.
            assert heap_run.cycles >= work
            assert cam_run.cycles >= work
        # Once the CAM's fixed per-column bind cost amortizes, the heap
        # baseline can never be cheaper in cycles.
        if work >= 4 * b.n_cols:
            assert heap_run.cycles >= cam_run.cycles * 0.5

    @given(matrix_pairs())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_event_counts_consistent(self, pair):
        a, b = pair
        run = CAMSpGEMMAccelerator().simulate(a, b)
        work = multiply_work(a, b)
        assert run.events["mac"] == work
        assert run.events["hcam_match"] == work
        assert run.events["hcam_insert"] + run.events["hcam_update"] \
            + run.events["hcam_flush"] == work
