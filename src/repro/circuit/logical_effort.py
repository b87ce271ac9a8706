"""Logical-effort sizing of inverter chains.

Section 3 of the paper: "Logical effort [9] is used to optimize the
parametric performance of the generated brick" — the wordline-driver,
control, precharge-bar and CAM search-line chains of every compiled
brick are sized by :func:`buffer_chain_batch`, the one chain sizer
(:func:`repro.bricks.batch.compile_batch` calls it, and
``compile_brick`` is a one-row view of that).

Delay unit convention: one logical-effort delay unit equals
``le_tau(tech) = 0.69 * tech.tau`` seconds, so the returned absolute delays
are 50 %-crossing estimates comparable with the transient simulator.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from ..errors import SizingError
from ..tech.technology import Technology


def le_tau(tech: Technology) -> float:
    """Absolute seconds per logical-effort delay unit."""
    return 0.69 * tech.tau


def parasitic_inv(tech: Technology) -> float:
    """Inverter parasitic delay in LE units (``p_inv``)."""
    return tech.c_diff / tech.c_gate


@functools.lru_cache(maxsize=None)
def optimal_stage_effort(p_inv: float = 1.0) -> float:
    """Best per-stage effort ``rho`` satisfying ``rho = exp(1+p/rho)``.

    For ``p_inv`` = 1 this is the classic ~3.59.  A 32-step fixed
    point, memoized per ``p_inv`` (one value per technology corner).
    """
    rho = 3.59
    for _ in range(32):
        rho = math.exp(1.0 + p_inv / rho)
    return rho


def buffer_chain_batch(c_in, c_load, tech: Technology,
                       parity: Optional[str] = None):
    """Size a population of inverter chains, each driving ``c_load``
    from a ``c_in`` input.

    ``c_in``/``c_load`` are same-length arrays of first-stage input
    capacitance and final load.  Each chain gets the stage count that
    minimizes delay for its fanout (at least one stage, exactly one
    when the fanout is <= 1) and a geometric taper of stage caps.
    ``parity`` is the compiler's polarity idiom: ``"odd"``/``"even"``
    bumps any chain whose optimal stage count has the wrong parity to
    the next count.

    Returns ``(stage_caps, n_stages, delay_s)`` where ``stage_caps`` is
    a ``(n_chains, max_stages)`` array padded with zeros past each
    chain's ``n_stages[i]``, and ``delay_s`` the absolute chain delays.
    """
    import numpy as np

    c_in = np.asarray(c_in, dtype=np.float64)
    c_load = np.asarray(c_load, dtype=np.float64)
    if c_in.shape != c_load.shape or c_in.ndim != 1:
        raise SizingError("c_in and c_load must be 1-D and same length")
    if c_in.size == 0:
        return (np.zeros((0, 0)), np.zeros(0, dtype=np.int64),
                np.zeros(0))
    if not (np.isfinite(c_in).all() and np.isfinite(c_load).all()):
        raise SizingError("buffer chain caps must be finite")
    if (c_in <= 0).any() or (c_load <= 0).any():
        raise SizingError("buffer chain caps must be positive")
    if parity not in (None, "odd", "even"):
        raise SizingError(f"parity must be None/'odd'/'even', "
                          f"got {parity!r}")
    fanout = c_load / c_in
    p_inv = parasitic_inv(tech)
    rho = optimal_stage_effort(p_inv)
    with np.errstate(divide="ignore"):
        raw = np.log(fanout) / math.log(rho)
    n = np.where(fanout <= 1.0, 1,
                 np.maximum(1, np.round(raw)).astype(np.int64))
    n = n.astype(np.int64)
    if parity == "odd":
        n = n + (n % 2 == 0)
    elif parity == "even":
        n = n + (n % 2 == 1)
    f_hat = fanout ** (1.0 / n)
    max_n = int(n.max())
    stages = np.arange(max_n, dtype=np.float64)
    caps = c_in[:, None] * f_hat[:, None] ** stages[None, :]
    caps = np.where(stages[None, :] < n[:, None], caps, 0.0)
    delay_units = n * f_hat + n * p_inv
    return caps, n, delay_units * le_tau(tech)

