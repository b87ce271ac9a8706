"""Helpers shared by the in-process workloads."""

from __future__ import annotations

from contextlib import contextmanager

from repro.perf import parallel
from repro.perf.cache import CharacterizationCache
from repro.perf.characterize import cached_stdcell_library
from repro.session import Session
from repro.tech import cmos65


def ready() -> Session:
    """What every in-process workload needs before its first op: the
    technology, a session and the characterized stdcell library."""
    session = Session(cmos65(), jobs=1, cache=CharacterizationCache())
    cached_stdcell_library(session.tech, cache=session.cache)
    return session


class Tally:
    """Executor and cache counters summed over the traced ops of one
    phase, read from the program's own ``executor_stats()`` and
    ``CacheStats``."""

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.ops = 0
        self.tasks = 0
        self.serial_tasks = 0
        self.hits = 0
        self.lookups = 0

    @contextmanager
    def op(self, traced: bool):
        """Count the executor tasks of one op (traced ops only)."""
        before = parallel.executor_stats().as_dict()
        yield self
        if not traced:
            return
        after = parallel.executor_stats().as_dict()
        self.ops += 1
        self.tasks += after["tasks"] - before["tasks"]
        self.serial_tasks += after["serial_tasks"] - before["serial_tasks"]

    def add_cache(self, cache: CharacterizationCache) -> None:
        """Add the lookups of a fresh cache one traced op used."""
        self.hits += cache.stats.hits
        self.lookups += cache.stats.lookups

    def report(self, ctx) -> None:
        if not self.ops:
            return
        p = self.prefix
        ctx.layer(f"{p}perf.parallel.tasks", self.tasks / self.ops)
        ctx.layer(f"{p}perf.parallel.serial_tasks",
                  self.serial_tasks / self.ops)
        ctx.layer(f"{p}perf.cache.lookups", self.lookups / self.ops)
        ctx.layer(f"{p}perf.cache.hit_rate",
                  self.hits / self.lookups if self.lookups else 0.0)
