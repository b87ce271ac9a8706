"""Workload analysis and the analytical speedup model.

Why do some SpGEMM workloads show 7x and others 250x (Fig. 6)?  The
mechanism is the result-column fill: the heap baseline re-streams its
sorted FIFO on every product (cost ~ 2 x occupancy), while the CAM chip
pays one cycle.  So, to first order,

    speedup ~ 2 * (work-weighted mean result-column fill)
              * (f_lim / f_heap)

This module computes the structural statistics that drive the spread and
the closed-form prediction, letting the benchmarks check the *mechanism*
(not just the numbers): the measured speedup should track the predicted
one across workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SparseError
from .energy import HEAP_FREQ_HZ, LIM_FREQ_HZ
from .reference import multiply_work, spgemm_gustavson
from .sparse import CSCMatrix


@dataclass(frozen=True)
class WorkloadStats:
    """Structural statistics of one A x B problem."""

    work: int                    # scalar multiply-adds
    result_nnz: int
    mean_col_fill: float         # mean nnz of C's nonempty columns
    max_col_fill: int
    work_weighted_fill: float    # mean FIFO occupancy seen by products
    compression: float           # work / result_nnz (accumulation rate)

    def predicted_speedup(self,
                          f_ratio: float = LIM_FREQ_HZ / HEAP_FREQ_HZ
                          ) -> float:
        """First-order LiM-vs-heap speedup prediction.

        Heap cycles/product ~ 2 x occupancy (+1); CAM cycles/product
        ~ 1; wall clock scales by the clock ratio.
        """
        heap_cycles_per_product = 2.0 * self.work_weighted_fill + 1.0
        return heap_cycles_per_product * f_ratio


def analyze_workload(a: CSCMatrix, b: CSCMatrix) -> WorkloadStats:
    """Compute the statistics that govern the Fig. 6 spread."""
    if a.n_cols != b.n_rows:
        raise SparseError(f"dimension mismatch: {a.shape} x {b.shape}")
    c = spgemm_gustavson(a, b)
    work = multiply_work(a, b)
    fills = [c.col_nnz(j) for j in range(c.n_cols) if c.col_nnz(j)]
    mean_fill = float(np.mean(fills)) if fills else 0.0
    max_fill = max(fills) if fills else 0

    # Work-weighted occupancy: for each product that lands in column j,
    # the FIFO holds on average ~half the column's final fill (it ramps
    # from 0 to fill); weight by the column's product count.
    weighted = 0.0
    for j in range(b.n_cols):
        b_rows, _ = b.column(j)
        col_work = sum(a.col_nnz(int(k)) for k in b_rows)
        if col_work == 0:
            continue
        # Occupancy ramps to the fill within the first ~fill products,
        # then sits at the full fill for the remainder.
        fill = c.col_nnz(j)
        ramp = min(fill, col_work)
        steady = col_work - ramp
        avg_occ = (ramp * (fill / 2.0) + steady * fill) / col_work
        weighted += avg_occ * col_work
    weighted_fill = weighted / work if work else 0.0

    return WorkloadStats(
        work=work,
        result_nnz=c.nnz,
        mean_col_fill=mean_fill,
        max_col_fill=max_fill,
        work_weighted_fill=weighted_fill,
        compression=work / c.nnz if c.nnz else 0.0,
    )
