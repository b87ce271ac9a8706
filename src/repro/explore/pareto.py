"""Pareto-front extraction.

The paper's synthesis flow "enables rapid design-space exploration for
the overall system by generating pareto-curves of possible block designs"
(Section 1).  This module extracts non-dominated sets from sweep results
over arbitrary metric tuples.

Two shapes of extraction coexist:

* :func:`pareto_front` — the one-shot object API over a materialized
  point list (the 9-point Fig. 4c path).
* :func:`pareto_mask` + :class:`ParetoAccumulator` — the streaming
  array path the sharded million-point explorer rides: each shard is
  reduced to its local front with one vectorized mask over its
  objective columns, then the shard
  fronts merge online into a bounded non-dominated archive whose final
  ordering is independent of merge order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Sequence, Tuple, TypeVar

import numpy as np

from ..errors import ExplorationError

T = TypeVar("T")

#: Extracts the metric vector (all minimized) from a design point.
MetricFn = Callable[[T], Tuple[float, ...]]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better
    somewhere (minimization)."""
    if len(a) != len(b):
        raise ExplorationError("metric vectors must have equal length")
    no_worse = all(x <= y for x, y in zip(a, b))
    better = any(x < y for x, y in zip(a, b))
    return no_worse and better


def pareto_front(points: Sequence[T], metrics: MetricFn) -> List[T]:
    """Return the non-dominated subset of ``points``.

    Stable: survivors keep their input order.  Duplicate metric vectors
    all survive (none strictly dominates another).
    """
    vectors = [metrics(p) for p in points]
    front: List[T] = []
    for i, point in enumerate(points):
        if any(dominates(vectors[j], vectors[i])
               for j in range(len(points)) if j != i):
            continue
        front.append(point)
    return front


def pareto_mask(columns: Sequence[Any]) -> np.ndarray:
    """Boolean mask of the non-dominated points of ``k`` metric columns.

    ``columns`` holds one length-``n`` array per objective; row ``i``
    of the population is ``(columns[0][i], ..., columns[k-1][i])``.
    Vectorized counterpart of :func:`pareto_front` with identical
    semantics (minimization; duplicate rows all survive).  Each pivot
    (a row still standing when the scan reaches it) compares the
    surviving columns elementwise, one contiguous column at a time, so
    cost is ``O(n * k)`` array work per pivot and a 10^5-row shard
    reduces in milliseconds.
    """
    cols = [np.asarray(column, dtype=np.float64) for column in columns]
    if not cols or any(col.ndim != 1 or col.shape != cols[0].shape
                       for col in cols):
        raise ExplorationError(
            f"pareto_mask needs k >= 1 equal-length metric columns, "
            f"got shapes {[col.shape for col in cols]}")
    n = cols[0].shape[0]
    survivors = np.arange(n)
    pivot = 0
    while pivot < survivors.shape[0]:
        # Keep rows the pivot does NOT dominate: better somewhere, or
        # exactly equal everywhere (duplicates survive, as in
        # pareto_front).
        better = cols[0] < cols[0][pivot]
        equal = cols[0] == cols[0][pivot]
        for col in cols[1:]:
            value = col[pivot]
            better |= col < value
            equal &= col == value
        keep = better | equal
        keep[pivot] = True
        survivors = survivors[keep]
        cols = [col[keep] for col in cols]
        pivot = int(np.count_nonzero(keep[:pivot])) + 1
    mask = np.zeros(n, dtype=bool)
    mask[survivors] = True
    return mask


class ParetoAccumulator:
    """Online non-dominated archive with order-independent output.

    Entries are ``(key, item, vector)`` triples: ``key`` is any stable
    orderable identity (the sharded sweep uses the global point index),
    ``vector`` the minimized metric tuple.  :meth:`add` keeps the
    archive non-dominated after every insertion; :meth:`merge` folds in
    another accumulator (shard fronts arriving in completion order);
    :meth:`front` returns the surviving items sorted by key — so any
    interleaving of adds and merges over the same population yields the
    same front as a full-materialization :func:`pareto_front` pass.

    Memory is bounded by the front size, never the population size.
    """

    def __init__(self) -> None:
        self._keys: List[Any] = []
        self._items: List[Any] = []
        self._vectors: List[Tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self._items)

    def add(self, key: Any, item: Any,
            vector: Sequence[float]) -> bool:
        """Offer one point; returns whether it joined the archive."""
        vec = tuple(float(v) for v in vector)
        for existing in self._vectors:
            if dominates(existing, vec):
                return False
        keep = [i for i, existing in enumerate(self._vectors)
                if not dominates(vec, existing)]
        if len(keep) != len(self._vectors):
            self._keys = [self._keys[i] for i in keep]
            self._items = [self._items[i] for i in keep]
            self._vectors = [self._vectors[i] for i in keep]
        self._keys.append(key)
        self._items.append(item)
        self._vectors.append(vec)
        return True

    def merge(self, other: "ParetoAccumulator") -> None:
        """Fold another archive into this one."""
        for key, item, vec in zip(other._keys, other._items,
                                  other._vectors):
            self.add(key, item, vec)

    def entries(self) -> List[Tuple[Any, Any, Tuple[float, ...]]]:
        """``(key, item, vector)`` triples sorted by key."""
        order = sorted(range(len(self._keys)),
                       key=lambda i: self._keys[i])
        return [(self._keys[i], self._items[i], self._vectors[i])
                for i in order]

    def front(self) -> List[Any]:
        """The archived items, sorted by key (deterministic)."""
        return [item for _, item, _ in self.entries()]


class TopKAccumulator:
    """Keep the ``k`` best items by a scalar score (minimized).

    Deterministic under any offer order: ties break on ``key`` (the
    global point index in the sharded sweep), so a resumed or
    differently-scheduled sweep reports the same top-K list.
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ExplorationError(f"top-k must be >= 0, got {k}")
        self.k = k
        # Max-heap of (-score, -key) -> (score, key, item): the root is
        # the worst kept entry, evicted when a better offer arrives.
        self._heap: List[Tuple[float, Any, int, Any]] = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, key: Any, item: Any, score: float) -> bool:
        if self.k == 0:
            return False
        entry = (-float(score), _NegatedKey(key), self._counter, item)
        self._counter += 1
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def merge(self, other: "TopKAccumulator") -> None:
        for neg_score, neg_key, _, item in list(other._heap):
            self.add(neg_key.value, item, -neg_score)

    def entries(self) -> List[Tuple[float, Any, Any]]:
        """``(score, key, item)`` sorted best-first (score, then key)."""
        ordered = sorted(((-neg_score, neg_key.value, item)
                          for neg_score, neg_key, _, item in self._heap),
                         key=lambda e: (e[0], e[1]))
        return ordered

    def top(self) -> List[Any]:
        return [item for _, _, item in self.entries()]


class _NegatedKey:
    """Reverses the ordering of a key so a min-heap acts as max-heap."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_NegatedKey") -> bool:
        return other.value < self.value

    def __gt__(self, other: "_NegatedKey") -> bool:
        return other.value > self.value

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _NegatedKey)
                and other.value == self.value)


def knee_point(points: Sequence[T], metrics: MetricFn) -> T:
    """The balanced design: minimal normalized distance to the utopia
    point of the front."""
    front = pareto_front(points, metrics)
    if not front:
        raise ExplorationError("empty point set")
    vectors = [metrics(p) for p in front]
    dims = len(vectors[0])
    mins = [min(v[d] for v in vectors) for d in range(dims)]
    maxs = [max(v[d] for v in vectors) for d in range(dims)]

    def distance(v: Sequence[float]) -> float:
        total = 0.0
        for d in range(dims):
            span = maxs[d] - mins[d]
            norm = 0.0 if span == 0 else (v[d] - mins[d]) / span
            total += norm * norm
        return total

    best_index = min(range(len(front)),
                     key=lambda i: distance(vectors[i]))
    return front[best_index]
