"""Compressed sparse column matrices (own implementation).

The SpGEMM accelerators (Section 4) consume matrices column-by-column:
"one way to reduce the data traffic in SpGEMM operations is by using
column-by-column multiplication [1], whereby only non-zero elements at
the intersections are accessed and processed."  CSC is the natural layout
for that access pattern, so it is the package's canonical format.

Implemented from scratch (no scipy.sparse) because the accelerators need
full control of the storage walk order to count cycles faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..errors import SparseError


@dataclass
class CSCMatrix:
    """A compressed-sparse-column matrix.

    ``indptr`` has ``n_cols + 1`` entries; column ``j`` occupies the
    slice ``indptr[j]:indptr[j+1]`` of ``indices`` (row ids, strictly
    increasing within a column) and ``data`` (values).
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.n_rows < 0 or self.n_cols < 0:
            raise SparseError("matrix dimensions must be non-negative")
        if self.indptr.shape != (self.n_cols + 1,):
            raise SparseError("indptr must have n_cols + 1 entries")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise SparseError("indptr endpoints inconsistent with data")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise SparseError("indices and data must align")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= self.n_rows):
            raise SparseError("row index out of range")
        for j in range(self.n_cols):
            rows = self.indices[self.indptr[j]:self.indptr[j + 1]]
            if rows.size > 1 and np.any(np.diff(rows) <= 0):
                raise SparseError(
                    f"column {j} rows not strictly increasing")

    # --- constructors ---------------------------------------------------------

    @classmethod
    def from_coo(cls, n_rows: int, n_cols: int,
                 entries: Iterable[Tuple[int, int, float]]
                 ) -> "CSCMatrix":
        """Build from (row, col, value) triples; duplicates are summed
        and exact zeros dropped."""
        per_col: Dict[int, Dict[int, float]] = {}
        for row, col, value in entries:
            if not (0 <= row < n_rows and 0 <= col < n_cols):
                raise SparseError(
                    f"entry ({row}, {col}) outside {n_rows}x{n_cols}")
            bucket = per_col.setdefault(col, {})
            bucket[row] = bucket.get(row, 0.0) + float(value)
        indptr = [0]
        indices: List[int] = []
        data: List[float] = []
        for col in range(n_cols):
            bucket = per_col.get(col, {})
            for row in sorted(bucket):
                value = bucket[row]
                if value != 0.0:
                    indices.append(row)
                    data.append(value)
            indptr.append(len(indices))
        return cls(n_rows, n_cols, np.array(indptr),
                   np.array(indices, dtype=np.int64),
                   np.array(data))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise SparseError("dense input must be 2-D")
        entries = [(int(i), int(j), float(dense[i, j]))
                   for i, j in zip(*np.nonzero(dense))]
        return cls.from_coo(dense.shape[0], dense.shape[1], entries)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CSCMatrix":
        return cls(n_rows, n_cols, np.zeros(n_cols + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64), np.zeros(0))

    # --- queries ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.n_rows, self.n_cols

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """(row indices, values) of column ``j``."""
        if not 0 <= j < self.n_cols:
            raise SparseError(f"column {j} out of range")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_nnz(self, j: int) -> int:
        return int(self.indptr[j + 1] - self.indptr[j])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        for j in range(self.n_cols):
            rows, values = self.column(j)
            dense[rows, j] = values
        return dense

    def transpose(self) -> "CSCMatrix":
        entries = []
        for j in range(self.n_cols):
            rows, values = self.column(j)
            entries.extend((j, int(i), float(v))
                           for i, v in zip(rows, values))
        return CSCMatrix.from_coo(self.n_cols, self.n_rows, entries)

    def allclose(self, other: "CSCMatrix", rtol: float = 1e-9,
                 atol: float = 1e-12) -> bool:
        if self.shape != other.shape:
            return False
        if self.nnz != other.nnz:
            return False
        return (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.allclose(self.data, other.data, rtol=rtol,
                                atol=atol))

    def scale(self, factor: float) -> "CSCMatrix":
        return CSCMatrix(self.n_rows, self.n_cols, self.indptr.copy(),
                         self.indices.copy(), self.data * factor)

    def __repr__(self) -> str:
        return (f"CSCMatrix({self.n_rows}x{self.n_cols}, "
                f"nnz={self.nnz})")


def random_sparse(n_rows: int, n_cols: int, density: float,
                  seed: int = 0, values: str = "uniform") -> CSCMatrix:
    """Uniform random sparse matrix (Erdos-Renyi sparsity pattern)."""
    if not 0.0 <= density <= 1.0:
        raise SparseError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_cols)) < density
    if values == "uniform":
        vals = rng.uniform(0.5, 1.5, size=(n_rows, n_cols))
    elif values == "ones":
        vals = np.ones((n_rows, n_cols))
    else:
        raise SparseError(f"unknown value distribution {values!r}")
    return CSCMatrix.from_dense(np.where(mask, vals, 0.0))
