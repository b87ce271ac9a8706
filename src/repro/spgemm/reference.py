"""Golden SpGEMM algorithms.

:func:`spgemm_gustavson` is the column-by-column formulation both chips
implement in hardware (reference [1] of the paper): column ``j`` of
``C = A x B`` is the linear combination of A's columns selected by the
nonzeros of ``B[:, j]``.  The accelerator simulators verify their results
against it element-for-element, so cycle counts always come from runs
that computed the right answer.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..errors import SparseError
from .sparse import CSCMatrix


def spgemm_gustavson(a: CSCMatrix, b: CSCMatrix) -> CSCMatrix:
    """Column-by-column sparse matrix multiply (the golden model)."""
    if a.n_cols != b.n_rows:
        raise SparseError(
            f"dimension mismatch: {a.shape} x {b.shape}")
    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    for j in range(b.n_cols):
        accumulator: Dict[int, float] = {}
        b_rows, b_values = b.column(j)
        for k, b_kj in zip(b_rows, b_values):
            a_rows, a_values = a.column(int(k))
            for i, a_ik in zip(a_rows, a_values):
                accumulator[int(i)] = accumulator.get(int(i), 0.0) \
                    + float(a_ik) * float(b_kj)
        for row in sorted(accumulator):
            value = accumulator[row]
            if value != 0.0:
                indices.append(row)
                data.append(value)
        indptr.append(len(indices))
    return CSCMatrix(a.n_rows, b.n_cols, np.array(indptr),
                     np.array(indices, dtype=np.int64), np.array(data))


def spgemm_dense_check(a: CSCMatrix, b: CSCMatrix,
                       c: CSCMatrix, atol: float = 1e-9) -> bool:
    """Dense cross-check (only sensible for small matrices)."""
    expected = a.to_dense() @ b.to_dense()
    return bool(np.allclose(c.to_dense(), expected, atol=atol))


def multiply_work(a: CSCMatrix, b: CSCMatrix) -> int:
    """Number of scalar multiply-adds the column algorithm performs
    (the 'flops' of SpGEMM literature; lower-bounds both chips'
    element traffic)."""
    if a.n_cols != b.n_rows:
        raise SparseError("dimension mismatch")
    work = 0
    for j in range(b.n_cols):
        b_rows, _ = b.column(j)
        for k in b_rows:
            work += a.col_nnz(int(k))
    return work
