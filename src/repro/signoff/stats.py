"""Distribution reductions for the signoff report.

Percentiles (P50/P95/P99.9), normal-approximation confidence
half-widths (the early-stop criterion) and deterministic bootstrap
confidence intervals over the mean.  Everything here is a pure
function of the input arrays (in global sample-index order) plus a
stream key, so two runs that assembled the same samples — regardless
of chunking, worker count, or kill/resume history — reduce to
byte-identical statistics.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union

import numpy as np

from .rng import resample_rows

#: Report percentiles (the P50/P95/P99.9 the roadmap asks for).
PERCENTILES = (50.0, 95.0, 99.9)

#: Bootstrap resamples per confidence interval.
N_BOOT = 200

#: Draw counts per product (resamples x samples): a float block of
#: 1 MB, 65 resamples of a 2000-sample population ...
BOOT_BATCH = 1 << 17

#: ... but never fewer than this many resamples.  A product re-reads
#: the whole ``(k, n)`` block of columns, so a 40k-sample population
#: takes 8 resamples (2.5 MB of counts) per product rather than the
#: 3 that :data:`BOOT_BATCH` holds.
BOOT_MIN_ROWS = 8

#: z-score of the two-sided 95 % normal interval.
Z95 = 1.959963984540054


def ci_half_width(n: int, total: float, total_sq: float) -> float:
    """Relative 95 % half-width of the mean from running sums.

    ``1.96 * s / (sqrt(n) * mean)`` with the sample variance computed
    from ``(n, sum, sum of squares)`` — the incremental form the
    early-stop rule evaluates as chunk sums accumulate in index order.
    Returns ``inf`` when the mean is not yet resolvable (n < 2 or a
    non-positive mean).
    """
    if n < 2:
        return math.inf
    mean = total / n
    if mean <= 0.0:
        return math.inf
    var = (total_sq - total * total / n) / (n - 1)
    if var < 0.0:  # float cancellation on near-constant data
        var = 0.0
    return Z95 * math.sqrt(var / n) / mean


def bootstrap_mean_ci(values: np.ndarray, key: int,
                      block: int = 0,
                      n_boot: int = N_BOOT
                      ) -> Union[Dict[str, float], List[Dict[str, float]]]:
    """Deterministic *paired* bootstrap 95 % CI of the mean.

    ``values`` is one column ``(n,)`` or a block of columns ``(k, n)``;
    a block returns one ``{"lo", "hi"}`` per row.  Every row is
    resampled with the same indices, drawn from the counter stream at
    ``(key, block)``, so the intervals are reproducible, independent of
    how the values were produced, and comparable across rows.
    Degenerate inputs (n == 1) collapse the interval onto the value.

    No resample is gathered.  The indices come a cache-sized group of
    resamples at a time (:func:`~repro.signoff.rng.resample_rows`, one
    resample at n = 40k), and each resample becomes its row of
    ``np.bincount`` draw counts in a block of :data:`BOOT_BATCH` counts
    or :data:`BOOT_MIN_ROWS` resamples, whichever is larger.  The
    means of every row under every
    resample of a block are one ``(k, n) @ (n, rows)`` product, and
    both CI percentiles of every row come from one ``axis=1`` call.
    The resamples are those of the index matrix; only the order of the
    summation differs from gathering them, so a mean moves by rounding
    alone (and a 0/1 row's mean, a sum of integers, not at all).
    """
    cols = _as_rows(values)
    k, n = cols.shape
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if n == 1:
        out = [{"lo": float(col[0]), "hi": float(col[0])} for col in cols]
    else:
        sums = np.empty((k, n_boot))
        counts = np.empty(
            (min(n_boot, max(BOOT_MIN_ROWS, BOOT_BATCH // n)), n))
        done = filled = 0
        for group in resample_rows(key, n, n_boot, block=block):
            for index in group:
                counts[filled] = np.bincount(index, minlength=n)
                filled += 1
                if filled == counts.shape[0] or done + filled == n_boot:
                    sums[:, done:done + filled] = cols @ counts[:filled].T
                    done, filled = done + filled, 0
        bounds = np.percentile(sums / n, (2.5, 97.5), axis=1)
        out = [{"lo": float(lo), "hi": float(hi)} for lo, hi in bounds.T]
    return out[0] if values.ndim == 1 else out


def summarize(values: np.ndarray, key: Optional[int] = None,
              block: int = 0
              ) -> Union[Dict[str, float], List[Dict[str, float]]]:
    """Mean, report percentiles and (when ``key`` given) bootstrap CI.

    ``values`` is one column ``(n,)`` or a block of columns ``(k, n)``
    (bool columns count as 0/1); a block returns one summary per row,
    with the CIs of :func:`bootstrap_mean_ci` paired across rows.
    Columns must be in global sample-index order; the summary is then
    invariant to the chunking that produced them.
    """
    cols = _as_rows(values)
    if cols.shape[1] == 0:
        raise ValueError("cannot summarize an empty sample")
    p50, p95, p999 = np.percentile(cols, PERCENTILES, axis=1)
    out = [{"mean": float(col.mean()), "p50": float(a),
            "p95": float(b), "p99_9": float(c)}
           for col, a, b, c in zip(cols, p50, p95, p999)]
    if key is not None:
        for summary, ci in zip(out, bootstrap_mean_ci(cols, key,
                                                      block=block)):
            summary["ci_lo"] = ci["lo"]
            summary["ci_hi"] = ci["hi"]
    return out[0] if values.ndim == 1 else out


def proportion_summary(summary: Dict[str, float]) -> Dict[str, float]:
    """Yield-style view of a 0/1 column's :func:`summarize` row: the
    rate (its mean) and the mean's bootstrap CI."""
    return {"rate": summary["mean"], "ci_lo": summary["ci_lo"],
            "ci_hi": summary["ci_hi"]}


def _as_rows(values: np.ndarray) -> np.ndarray:
    """``values`` as C-ordered float64 rows ``(k, n)``; 1-D is k = 1.

    Contiguous rows matter: NumPy sums a contiguous row pairwise in
    one pass, so a row's mean has the bits of the same column alone.
    """
    if values.ndim not in (1, 2):
        raise ValueError(
            f"expected a column or a block of columns, got "
            f"{values.ndim}-D values")
    return np.ascontiguousarray(np.atleast_2d(values), dtype=np.float64)
