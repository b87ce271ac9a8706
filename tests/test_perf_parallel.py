"""Parallel characterization: determinism, byte-identity, speedups."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bricks import generate_brick_library, sram_brick
from repro.errors import ExplorationError
from repro.perf import (
    CharacterizationCache,
    characterize_cells,
    estimate_points,
    parallel_map,
    resolve_jobs,
)
from repro.perf.parallel import (
    TaskFailure,
    checkpoint_key,
    executor_kwargs,
    resumable_imap,
)
from repro.session import Session
from repro.tech import cmos65


def _sq(x):
    return x * x


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_sq, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        tasks = list(range(20))
        assert parallel_map(_sq, tasks, jobs=4) == \
            [t * t for t in tasks]

    def test_empty(self):
        assert parallel_map(_sq, [], jobs=4) == []

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)


def _refuse(x):
    raise AssertionError(f"task {x} recomputed despite its checkpoint")


def _odd_fails(x):
    if x % 2:
        raise ValueError(f"odd task {x}")
    return x * x


def _keys(n):
    return [checkpoint_key("test-task", "fp", False, i) for i in range(n)]


class TestResumableImap:
    def test_fresh_run_checkpoints_every_record(self, tech):
        session = Session(tech, cache=CharacterizationCache())
        out = list(resumable_imap(session, _sq, [1, 2, 3], _keys(3),
                                  expect=int, resume=True, span=None))
        assert out == [(0, 1, False), (1, 4, False), (2, 9, False)]
        assert [session.cache.get(k, expect=int) for k in _keys(3)] == \
            [(True, 1), (True, 4), (True, 9)]
        # A resumed run reads every record back and computes nothing.
        again = list(resumable_imap(session, _refuse, [1, 2, 3],
                                    _keys(3), expect=int, resume=True,
                                    span=None))
        assert again == [(0, 1, True), (1, 4, True), (2, 9, True)]

    def test_resumed_hits_come_first_in_index_order(self, tech):
        session = Session(tech, cache=CharacterizationCache())
        keys = _keys(4)
        session.cache.put(keys[3], 90)
        session.cache.put(keys[1], 10)
        out = list(resumable_imap(session, _sq, [1, 2, 3, 4], keys,
                                  expect=int, resume=True, span=None))
        assert out == [(1, 10, True), (3, 90, True),
                       (0, 1, False), (2, 9, False)]

    def test_no_resume_recomputes_and_overwrites(self, tech):
        session = Session(tech, cache=CharacterizationCache())
        keys = _keys(2)
        session.cache.put(keys[0], 77)
        out = list(resumable_imap(session, _sq, [5, 6], keys,
                                  expect=int, resume=False, span=None))
        assert out == [(0, 25, False), (1, 36, False)]
        assert session.cache.get(keys[0], expect=int) == (True, 25)

    def test_wrong_type_checkpoint_is_a_miss(self, tech):
        session = Session(tech, cache=CharacterizationCache())
        keys = _keys(2)
        session.cache.put(keys[0], "not an int")
        session.cache.put(keys[1], 4)
        out = list(resumable_imap(session, _sq, [3, 2], keys,
                                  expect=int, resume=True, span=None))
        assert out == [(1, 4, True), (0, 9, False)]
        assert session.cache.get(keys[0], expect=int) == (True, 9)

    def test_on_failure_record_is_checkpointed(self, tech):
        session = Session(tech, cache=CharacterizationCache())
        seen = []

        def on_failure(index, failure):
            assert isinstance(failure, TaskFailure)
            seen.append((index, failure.kind))
            return -1

        out = list(resumable_imap(session, _odd_fails, [2, 3, 4],
                                  _keys(3), expect=int, resume=True,
                                  span=None, on_failure=on_failure))
        assert out == [(0, 4, False), (1, -1, False), (2, 16, False)]
        assert seen == [(1, "ValueError")]
        assert session.cache.get(_keys(3)[1], expect=int) == (True, -1)

    def test_failure_without_handler_raises(self, tech):
        session = Session(tech, cache=CharacterizationCache())
        stream = resumable_imap(session, _odd_fails, [2, 3], _keys(2),
                                expect=int, resume=True, span=None)
        assert next(stream) == (0, 4, False)
        with pytest.raises(ValueError):
            next(stream)
        # The record computed before the failure stays checkpointed.
        assert session.cache.get(_keys(2)[0], expect=int) == (True, 4)
        assert session.cache.get(_keys(2)[1], expect=int) == (False, None)

    def test_stop_ends_the_stream_after_a_record(self, tech):
        session = Session(tech, cache=CharacterizationCache())
        out = []
        stream = resumable_imap(session, _sq, [1, 2, 3], _keys(3),
                                expect=int, resume=True, span=None,
                                stop=lambda: len(out) >= 1)
        for item in stream:
            out.append(item)
        assert out == [(0, 1, False)]
        assert session.cache.get(_keys(3)[1], expect=int) == (False, None)

    def test_stop_after_probe_submits_nothing(self, tech):
        session = Session(tech, cache=CharacterizationCache())
        keys = _keys(2)
        session.cache.put(keys[0], 1)
        out = list(resumable_imap(session, _refuse, [1, 2], keys,
                                  expect=int, resume=True, span=None,
                                  stop=lambda: True))
        assert out == [(0, 1, True)]


class TestExecutorKwargs:
    def test_bare_session_supplies_no_sink_or_tap(self, tech):
        session = Session(tech)
        assert executor_kwargs(session, None) == \
            {"pool": None, "on_fault": None, "trace": None}

    def test_sink_becomes_an_executor_fault_event(self, tech):
        events = []
        session = Session(tech, sink=events.append)
        on_fault = executor_kwargs(session, None)["on_fault"]
        on_fault("Timeout", 3, "no completion within 1.0s")
        assert len(events) == 1
        event = events[0]
        assert (event.domain, event.name, event.index, event.recovered) \
            == ("executor", "task3", 3, True)
        assert event.error == "Timeout: no completion within 1.0s"


class TestSweepParallel:
    def test_fig4c_parallel_points_byte_identical(self, tech):
        """Acceptance: jobs>1 produces byte-identical SweepResult points
        to jobs=1 on the paper's 9-brick sweep."""
        serial = Session(tech, jobs=1, cache=CharacterizationCache()
                         ).sweep_partitions()
        parallel = Session(tech, jobs=4, cache=CharacterizationCache()
                           ).sweep_partitions()
        assert [pickle.dumps(p) for p in serial.points] == \
            [pickle.dumps(p) for p in parallel.points]

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        bits=st.lists(st.sampled_from([4, 8, 12, 16, 24, 32]),
                      min_size=1, max_size=3, unique=True),
        brick_words=st.lists(st.sampled_from([8, 16, 32, 64]),
                             min_size=1, max_size=3, unique=True),
        total_words=st.sampled_from([64, 128, 256]),
        jobs=st.sampled_from([2, 3, 4]),
    )
    def test_property_parallel_equals_serial(self, bits, brick_words,
                                             total_words, jobs):
        """Any sweep shape: parallel points are byte-for-byte the serial
        ones, in the same order."""
        tech = cmos65()
        kwargs = dict(total_words_options=(total_words,),
                      bits_options=tuple(bits),
                      brick_words_options=tuple(brick_words))
        serial = Session(tech, jobs=1, cache=CharacterizationCache()
                         ).sweep_partitions(**kwargs)
        parallel = Session(tech, jobs=jobs, cache=CharacterizationCache()
                           ).sweep_partitions(**kwargs)
        assert [pickle.dumps(p) for p in serial.points] == \
            [pickle.dumps(p) for p in parallel.points]

    def test_sweep_cache_sharing_is_byte_identical(self, tech):
        """A warm-cache sweep returns the same bytes as a cold one."""
        session = Session(tech, cache=CharacterizationCache())
        cold = session.sweep_partitions()
        warm = session.sweep_partitions()
        assert [pickle.dumps(p) for p in cold.points] == \
            [pickle.dumps(p) for p in warm.points]

    def test_warm_cache_five_times_faster(self, tech):
        """Acceptance: warm-cache Fig. 4c sweep >= 5x faster than cold.

        Cold characterizes 9 bricks (~tens of ms); warm is 9 dict
        lookups (~tens of us), so 5x has two orders of magnitude of
        margin even on a noisy CI box.  Best-of-3 warm runs guard
        against scheduler hiccups.
        """
        session = Session(tech, cache=CharacterizationCache())
        cold = session.sweep_partitions()
        warm = min(session.sweep_partitions().wall_clock_s
                   for _ in range(3))
        assert cold.wall_clock_s >= 5.0 * warm, \
            f"cold {cold.wall_clock_s * 1e3:.2f} ms vs " \
            f"warm {warm * 1e3:.3f} ms"

    def test_empty_sweep_still_raises(self, tech):
        with pytest.raises(ExplorationError):
            Session(tech).sweep_partitions(total_words_options=(100,),
                                           brick_words_options=(64,))


class TestLibraryParallel:
    def test_parallel_library_byte_identical(self, tech):
        requests = [(sram_brick(w, b), 128 // w)
                    for w in (16, 32, 64) for b in (8, 16)]
        serial, _ = generate_brick_library(
            requests, Session(tech, cache=CharacterizationCache()))
        parallel, _ = generate_brick_library(
            requests, Session(tech, jobs=3,
                              cache=CharacterizationCache()))
        assert sorted(serial.cells) == sorted(parallel.cells)
        for name in serial.cells:
            assert pickle.dumps(serial.cells[name]) == \
                pickle.dumps(parallel.cells[name])

    def test_repeated_requests_characterized_once(self, tech):
        cache = CharacterizationCache()
        requests = [(sram_brick(16, 10), 2)] * 5
        cells = characterize_cells(requests, Session(tech, cache=cache))
        assert len(cells) == 5
        assert all(c is cells[0] for c in cells)
        # 5 requests, 1 computation: one cellmodel + one compiled put.
        assert cache.stats.misses == 1

    def test_estimate_points_order(self, tech):
        cache = CharacterizationCache()
        pts = [(sram_brick(16, 10), s) for s in (8, 1, 4, 1, 2)]
        ests = estimate_points(pts, Session(tech, cache=cache))
        assert [e.stack for e in ests] == [8, 1, 4, 1, 2]
        # stacks {8,1,4,2}: four unique computations for five requests
        assert cache.stats.misses == 4


class TestOptimizerRouting:
    def test_optimize_uses_cache(self, tech):
        cache = CharacterizationCache()
        session = Session(tech, cache=cache)
        first = session.optimize_brick_selection(128, 16)
        warm_hits = cache.stats.hits
        second = session.optimize_brick_selection(128, 16)
        assert cache.stats.hits > warm_hits
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_optimize_parallel_identical(self, tech):
        serial = Session(tech, cache=CharacterizationCache()
                         ).optimize_brick_selection(128, 16)
        parallel = Session(tech, jobs=3, cache=CharacterizationCache()
                           ).optimize_brick_selection(128, 16)
        assert pickle.dumps(serial) == pickle.dumps(parallel)


class TestFlowRouting:
    def test_prepare_libraries_shares_characterization(self, tech):
        from repro.synth import prepare_libraries
        cache = CharacterizationCache()
        session = Session(tech, cache=cache)
        lib1 = prepare_libraries([(sram_brick(16, 10), 2)], session)
        misses_after_cold = cache.stats.misses
        lib2 = prepare_libraries([(sram_brick(16, 10), 2)], session)
        assert cache.stats.misses == misses_after_cold
        assert sorted(lib1.cells) == sorted(lib2.cells)

    def test_testchip_configs_share_brick_points(self, tech):
        """Configs B and E both stack the 16x10 brick 2x: building both
        must characterize that point once."""
        from repro.silicon import build_config
        cache = CharacterizationCache()
        build_config("B", Session(tech, cache=cache))
        misses_after_b = cache.stats.misses
        build_config("E", Session(tech, cache=cache))
        # E adds no new characterization work (stdlib + brick cached).
        assert cache.stats.misses == misses_after_b
