"""Deterministic, vectorized, counter-based sample streams.

The signoff engine draws millions of random variates whose values must
be a pure function of ``(master seed, salt, global sample index)`` —
independent of chunking, ``--jobs``, completion order, and resume
boundaries.  Sequential generators (``random.Random``,
``numpy.random.Generator``) cannot give that: their draw count per
sample varies (ziggurat normals) and their state threads through every
preceding sample.

This module implements a *counter-based* generator instead: each
variate is ``mix(key + counter)`` where ``mix`` is the splitmix64
finalizer (Steele, Lea & Flood 2014; the same mixer ``java.util
.SplittableRandom`` and numpy's ``SeedSequence`` build on).  Counters
are ``sample_index * draws_per_sample + draw``, so any slice of samples
can be generated in isolation as pure numpy ``uint64`` array ops —
chunk workers never share state.  Normals come from Box–Muller (exact
two-uniforms-per-normal consumption, unlike the variable-draw
ziggurat), keeping the stream layout static.

Keys are derived by SHA-256 over ``"{seed}:{salt}"`` — the same
string-salting convention as :meth:`repro.session.Session.rng` — so
distinct salts give independent streams from one master seed.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional

import numpy as np

#: splitmix64 constants (64-bit golden-ratio increment + finalizer).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)
_TO_UNIT = float(2.0 ** -53)
#: The 53 bits a uniform keeps, all set.
_MASK53 = np.uint64((1 << 53) - 1)
_MASK64 = (1 << 64) - 1

#: Resample indices drawn per group of :func:`resample_rows`: a
#: group's four 256 KB arrays stay in a 2 MB L2 cache.
_INDEX_PASS = 1 << 15


def stream_key(seed: int, salt: str) -> int:
    """A 64-bit stream key from the master seed and a salt string.

    SHA-256 based, so nearby seeds and similar salts land in unrelated
    regions of the counter space (splitmix64's mixer alone is not an
    avalanche-quality key schedule for adversarially close keys).
    """
    digest = hashlib.sha256(f"{seed}:{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _mix(z: np.ndarray, shifted: Optional[np.ndarray] = None
         ) -> np.ndarray:
    """The splitmix64 finalizer, in place over a ``uint64`` array.

    ``shifted`` is scratch of ``z``'s shape (allocated when omitted):
    each xor-shift writes its shift there instead of a fresh array.
    """
    if shifted is None:
        shifted = np.empty_like(z)
    np.right_shift(z, _SHIFT1, out=shifted)
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, _SHIFT2, out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, _SHIFT3, out=shifted)
    z ^= shifted
    return z


def uniforms(key: int, counters: np.ndarray) -> np.ndarray:
    """Uniform variates in ``(0, 1]`` at the given stream counters.

    ``counters`` is any ``uint64``-convertible array; element ``i`` of
    the result depends only on ``(key, counters[i])``.  The half-open
    interval excludes 0 so ``log(u)`` is always finite.
    """
    z = np.asarray(counters, dtype=np.uint64) + np.uint64(1)
    z *= _GAMMA
    z += np.uint64(key)
    _mix(z)
    z >>= np.uint64(11)
    z += np.uint64(1)
    u = z.astype(np.float64)
    u *= _TO_UNIT
    return u


def normals(key: int, start: int, stop: int,
            n_draws: int) -> np.ndarray:
    """Standard-normal draws for samples ``[start, stop)``.

    Returns shape ``(stop - start, n_draws)``: row ``i`` holds the
    draws of global sample ``start + i``, each a pure function of
    ``(key, start + i, draw)`` — generating ``[0, 1000)`` in one call
    or ten 100-sample chunks yields bit-identical values.
    """
    if stop < start:
        raise ValueError(f"empty stream slice [{start}, {stop})")
    n = stop - start
    if n == 0 or n_draws == 0:
        return np.zeros((n, n_draws))
    # Two uniform counters per normal, interleaved per (sample, draw):
    # the slice is one run of counters, drawn as contiguous radius and
    # angle planes.
    counters = np.arange(2 * n_draws * start, 2 * n_draws * stop,
                         dtype=np.uint64).reshape(n, n_draws, 2)
    radius, angle = uniforms(
        key, np.ascontiguousarray(counters.transpose(2, 0, 1)))
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    np.cos(angle, out=angle)
    radius *= angle
    return radius


def _indices(z: np.ndarray, shifted: np.ndarray, scaled: np.ndarray,
             n_values: int) -> np.ndarray:
    """Resample indices in ``[0, n_values)`` from pre-mix stream words
    ``z = (counter + 1) * GAMMA + key``, in place: returns ``z`` viewed
    as ``int64``.  ``shifted`` and ``scaled`` are scratch of its size.

    Index ``i`` is ``floor((1 - u) * n_values)`` of the uniform ``u``
    at its counter, computed as ``trunc(float(m) * (n_values * 2^-53))``
    with ``m = (2^53 - 1) ^ (z >> 11)``: ``1 - u`` is exactly
    ``m * 2^-53`` and ``n_values * 2^-53`` is exact, so both forms are
    one rounding of the same real, and it is never negative.
    """
    _mix(z, shifted)
    z >>= np.uint64(11)
    z ^= _MASK53
    index = z.view(np.int64)
    np.multiply(index, n_values * _TO_UNIT, out=scaled)
    np.copyto(index, scaled, casting="unsafe")
    return index


def resample_rows(key: int, n_values: int, n_boot: int,
                  block: int = 0, start: int = 0
                  ) -> Iterator[np.ndarray]:
    """The rows of :func:`resample_indices`, a cache-sized group at a
    time.

    Each yield is the next ``(rows, n_values)`` group of indices, at
    most :data:`_INDEX_PASS` of them (one row from 32768 values up).
    Every group is written over the same scratch, so a caller consumes
    a group before it asks for the next one.
    """
    if n_values < 1:
        raise ValueError("need at least one value to resample")
    rows = max(1, min(n_boot, _INDEX_PASS // n_values))
    # Consecutive counters c advance z = (c + 1) * GAMMA + key by GAMMA.
    steps = np.arange(rows * n_values, dtype=np.uint64)
    steps *= _GAMMA
    z, shifted = np.empty_like(steps), np.empty_like(steps)
    scaled = np.empty(steps.size)
    counter = block * 0x1000000000 + start * n_values
    for first in range(0, n_boot, rows):
        size = min(rows, n_boot - first) * n_values
        base = ((counter + first * n_values + 1) * int(_GAMMA)
                + key) & _MASK64
        np.add(steps[:size], np.uint64(base), out=z[:size])
        yield _indices(z[:size], shifted[:size], scaled[:size],
                       n_values).reshape(-1, n_values)


def resample_indices(key: int, n_values: int, n_boot: int,
                     block: int = 0, start: int = 0) -> np.ndarray:
    """Bootstrap resampling indices: ``(n_boot, n_values)`` ints in
    ``[0, n_values)``, deterministic in ``(key, block)``.

    Row ``r`` is resample ``start + r``: its counters do not depend on
    how many rows one call generates, so a long bootstrap can be drawn
    a few rows at a time (:func:`resample_rows`).  ``block`` offsets
    the counter space so several independent bootstrap passes can
    share one key.
    """
    out = np.empty((n_boot, n_values), dtype=np.int64)
    first = 0
    for group in resample_rows(key, n_values, n_boot, block=block,
                               start=start):
        out[first:first + group.shape[0]] = group
        first += group.shape[0]
    return out
