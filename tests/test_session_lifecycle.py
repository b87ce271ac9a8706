"""Session resource lifecycle: close(), pooled executors, finalizers.

The historical leak this guards against: building Sessions in a loop
(or per request) stranded a ``ProcessPoolExecutor`` per Session until
interpreter exit.  Now the owning session's ``close()`` shuts its pool
down, derived children share without owning, and a GC'd session's
finalizer reaps the pool it created.
"""

from __future__ import annotations

import gc

import pytest

from repro.errors import ExecutorError, SessionError
from repro.perf.cache import CharacterizationCache
from repro.perf.parallel import WorkerPool, live_worker_pools
from repro.session import Session
from repro.tech import cmos45, cmos65


def _session(**kwargs):
    kwargs.setdefault("cache", CharacterizationCache())
    return Session(cmos65(), **kwargs)


class TestClose:
    def test_close_is_idempotent(self):
        session = _session()
        session.close()
        session.close()
        assert session.closed

    def test_context_manager_closes(self):
        with _session() as session:
            assert not session.closed
        assert session.closed

    def test_context_manager_closes_on_error(self):
        session = _session()
        with pytest.raises(RuntimeError):
            with session:
                raise RuntimeError("boom")
        assert session.closed

    def test_closed_session_still_reads_cache(self):
        session = _session()
        session.cache.put("k", {"v": 1})
        session.close()
        assert session.cache.get("k") == (True, {"v": 1})


class TestWorkerPool:
    def test_pool_created_on_demand_and_cached(self):
        with _session() as session:
            assert session.pool is None
            pool = session.worker_pool()
            assert session.pool is pool
            assert session.worker_pool() is pool
            assert not pool.closed

    def test_close_shuts_down_owned_pool(self):
        session = _session()
        pool = session.worker_pool()
        session.close()
        assert pool.closed
        with pytest.raises(ExecutorError):
            pool.executor()

    def test_closed_session_refuses_new_pool(self):
        session = _session()
        session.close()
        with pytest.raises(SessionError):
            session.worker_pool()

    def test_derived_child_shares_pool_without_owning_it(self):
        parent = _session()
        pool = parent.worker_pool()
        child = parent.derive(tech=cmos45())
        assert child.pool is pool
        child.close()
        assert not pool.closed  # the child never owned it
        parent.close()
        assert pool.closed

    def test_child_created_before_pool_builds_its_own(self):
        parent = _session()
        child = parent.derive(seed=7)
        child_pool = child.worker_pool()
        parent_pool = parent.worker_pool()
        assert child_pool is not parent_pool
        child.close()
        assert child_pool.closed
        assert not parent_pool.closed
        parent.close()
        assert parent_pool.closed

    def test_gc_finalizer_reaps_unclosed_pool(self):
        # The historical leak: a Session dropped without close() must
        # not strand its executor until process exit.
        session = _session()
        pool = session.worker_pool()
        assert pool in live_worker_pools()
        del session
        gc.collect()
        assert pool.closed

    def test_finalizer_detached_after_explicit_close(self):
        session = _session()
        pool = session.worker_pool()
        session.close()
        finalizer = session._pool_finalizer
        assert finalizer is not None
        assert not finalizer.alive  # detached: close() already ran

    def test_repeated_sessions_do_not_accumulate_pools(self):
        before = {p for p in live_worker_pools() if not p.closed}
        for _ in range(5):
            with _session() as session:
                session.worker_pool()
        gc.collect()
        after = {p for p in live_worker_pools() if not p.closed}
        assert after <= before

    def test_pool_restart_replaces_executor(self):
        pool = WorkerPool(max_workers=1)
        try:
            first = pool.executor()
            pool.restart()
            second = pool.executor()
            assert second is not first
        finally:
            pool.shutdown(wait=False)

    def test_pool_shutdown_idempotent(self):
        pool = WorkerPool(max_workers=1)
        pool.shutdown()
        pool.shutdown()
        assert pool.closed
