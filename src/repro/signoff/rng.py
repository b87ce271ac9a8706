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

import numpy as np

#: splitmix64 constants (64-bit golden-ratio increment + finalizer).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TO_UNIT = float(2.0 ** -53)


def stream_key(seed: int, salt: str) -> int:
    """A 64-bit stream key from the master seed and a salt string.

    SHA-256 based, so nearby seeds and similar salts land in unrelated
    regions of the counter space (splitmix64's mixer alone is not an
    avalanche-quality key schedule for adversarially close keys).
    """
    digest = hashlib.sha256(f"{seed}:{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place over a ``uint64`` array."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
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
    index = np.arange(start, stop, dtype=np.uint64)[:, None]
    draw = np.arange(n_draws, dtype=np.uint64)[None, :]
    # Two uniform counters per normal, interleaved per (sample, draw).
    base = index * np.uint64(2 * n_draws) + draw * np.uint64(2)
    radius = uniforms(key, base)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = uniforms(key, base + np.uint64(1))
    angle *= 2.0 * np.pi
    np.cos(angle, out=angle)
    radius *= angle
    return radius


def resample_indices(key: int, n_values: int, n_boot: int,
                     block: int = 0, start: int = 0) -> np.ndarray:
    """Bootstrap resampling indices: ``(n_boot, n_values)`` ints in
    ``[0, n_values)``, deterministic in ``(key, block)``.

    Row ``r`` is resample ``start + r``: its counters do not depend on
    how many rows one call generates, so a long bootstrap can be drawn
    a few rows at a time.  ``block`` offsets the counter space so
    several independent bootstrap passes can share one key.
    """
    if n_values < 1:
        raise ValueError("need at least one value to resample")
    offset = np.uint64(block) * np.uint64(0x1000000000)
    counters = offset + np.arange(start * n_values,
                                  (start + n_boot) * n_values,
                                  dtype=np.uint64)
    u = uniforms(key, counters)
    # u is in (0, 1]; flip to [0, 1) so the floor never reaches n.
    np.subtract(1.0, u, out=u)
    u *= n_values
    np.floor(u, out=u)
    return u.astype(np.int64).reshape(n_boot, n_values)
