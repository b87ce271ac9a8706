"""Execution-layer fault tolerance: executor, pipeline, sweep, CLI."""

from __future__ import annotations

import os
import time

import pytest

from repro.bricks import sram_brick
from repro.errors import (
    BrickError,
    ExecutorError,
    ExplorationError,
    ReproError,
    exit_code_for,
    failure_domain,
)
from repro.perf import (
    CharacterizationCache,
    ExecutorPolicy,
    TaskFailure,
    parallel_imap,
    parallel_map,
    resolve_jobs,
    set_default_executor_policy,
)
from repro.session import FaultEvent, RecordingSink, Session
from repro.tech import cmos65

_PARENT_PID = os.getpid()


def _fail_on_two(x):
    if x == 2:
        raise ValueError(f"bad value {x}")
    return x * 10


def _fail_on_two_in_child(x):
    # Fails only inside a pool worker, so serial recovery succeeds.
    if x == 2 and os.getpid() != _PARENT_PID:
        raise ValueError(f"bad value {x} in worker")
    return x * 10


def _crash_pool_in_child(x):
    # Dies only inside a pool worker; the parent-process serial
    # fallback computes the real answer.
    if os.getpid() != _PARENT_PID:
        os._exit(13)
    return x + 100


def _hang_in_child(x):
    if os.getpid() != _PARENT_PID:
        time.sleep(3.0)
    return x - 1


class TestResolveJobs:
    def test_clamps_to_task_count(self):
        assert resolve_jobs(8, n_tasks=3) == 3
        assert resolve_jobs(2, n_tasks=10) == 2
        assert resolve_jobs(0, n_tasks=2) <= 2
        assert resolve_jobs(4, n_tasks=0) == 1  # never below 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestExecutorPolicy:
    def test_validation(self):
        with pytest.raises(ExecutorError):
            ExecutorPolicy(task_timeout_s=0.0)
        with pytest.raises(ExecutorError):
            ExecutorPolicy(task_timeout_s=-1.0)

    def test_process_default_is_swappable(self):
        mine = ExecutorPolicy(task_timeout_s=3.0)
        original = set_default_executor_policy(mine)
        try:
            assert isinstance(original, ExecutorPolicy)
            assert set_default_executor_policy(mine) is mine
        finally:
            set_default_executor_policy(original)


def _collect_imap(fn, tasks, **kwargs):
    """``parallel_imap`` gathered into a task-ordered list."""
    results = [None] * len(tasks)
    for index, value in parallel_imap(fn, tasks, **kwargs):
        results[index] = value
    return results


class TestParallelMapFaults:
    """Executor faults through ``parallel_map``; the subclass below
    runs every case again through a collected ``parallel_imap``, since
    both drive the same loop."""

    run = staticmethod(parallel_map)

    def test_serial_path_raises_original_exception(self):
        # jobs=1 keeps the historical contract: the task's own error
        # type propagates, not an ExecutorError wrapper.
        with pytest.raises(ValueError):
            self.run(_fail_on_two, [1, 2, 3], jobs=1)

    def test_pool_failure_wraps_in_executor_error(self):
        with pytest.raises(ExecutorError) as excinfo:
            self.run(_fail_on_two, [1, 2, 3], jobs=2)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "bad value 2" in str(excinfo.value.__cause__)

    def test_pool_failure_recovers_serially(self):
        assert self.run(_fail_on_two_in_child, [1, 2, 3],
                        jobs=2) == [10, 20, 30]

    def test_return_errors_yields_placeholders(self):
        results = self.run(_fail_on_two, [1, 2, 3], jobs=2,
                           return_errors=True)
        assert results[0] == 10 and results[2] == 30
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert not failure  # falsy, filters out like a missing value
        assert failure.index == 1 and failure.kind == "ValueError"

    def test_serial_return_errors(self):
        results = self.run(_fail_on_two, [1, 2, 3], jobs=1,
                           return_errors=True)
        assert isinstance(results[1], TaskFailure)
        assert results[0] == 10 and results[2] == 30

    def test_broken_pool_recovers_serially(self):
        """Acceptance: a crashing worker never loses healthy results."""
        assert self.run(_crash_pool_in_child, [1, 2, 3],
                        jobs=2) == [101, 102, 103]

    def test_task_timeout_recovers_serially(self):
        policy = ExecutorPolicy(task_timeout_s=0.25)
        faults = []
        results = self.run(_hang_in_child, [5, 6], jobs=2,
                           policy=policy,
                           on_fault=lambda *f: faults.append(f[:2]))
        assert results == [4, 5]
        assert faults == [("Timeout", 0), ("Timeout", 1)]


class TestParallelImapFaults(TestParallelMapFaults):
    run = staticmethod(_collect_imap)

    def test_recovered_results_arrive_last_in_index_order(self):
        pairs = list(parallel_imap(_fail_on_two_in_child,
                                   [2, 1, 2, 3, 2, 4], jobs=2))
        order = [index for index, _ in pairs]
        assert sorted(order[:3]) == [1, 3, 5]
        assert order[3:] == [0, 2, 4]
        assert dict(pairs) == {0: 20, 1: 10, 2: 20, 3: 30, 4: 20,
                               5: 40}


class TestPipelinePartial:
    def _pipeline(self):
        from repro.synth.pipeline import FlowStage, Pipeline

        def ok_a(session, state):
            state["a"] = 1

        def boom(session, state):
            raise BrickError("stage exploded")

        def ok_b(session, state):
            state["b"] = 2

        return Pipeline([FlowStage("a", ok_a), FlowStage("boom", boom),
                         FlowStage("b", ok_b)], name="toy")

    def test_run_partial_continues_past_fault(self, tech):
        sink = RecordingSink()
        session = Session(tech, sink=sink)
        state, faults = self._pipeline().run_partial(session, {})
        assert state == {"a": 1, "b": 2}
        assert [f.name for f in faults] == ["boom"]
        assert faults[0].domain == "pipeline:toy"
        assert "BrickError" in faults[0].error
        # The sink saw both the failed StageEvent and the FaultEvent.
        from repro.session import StageEvent
        assert sink.faults == faults
        assert [e.stage for e in sink.events
                if isinstance(e, StageEvent) and not e.ok] == ["boom"]

    def test_run_still_raises_without_flag(self, tech):
        from repro.errors import SynthesisError
        with pytest.raises(SynthesisError, match="boom"):
            self._pipeline().run(Session(tech), {})

    def test_run_flow_continue_on_error_healthy(self, tech, stdlib):
        from repro.bricks import single_partition
        from repro.rtl import build_sram
        from repro.synth import PartialFlowResult, prepare_libraries, \
            run_flow
        session = Session(tech, seed=2015,
                          cache=CharacterizationCache(cache_dir=None))
        config = single_partition(sram_brick(16, 8), 16)
        library = prepare_libraries([(config.brick, config.stack)],
                                    session=session)
        partial = run_flow(build_sram(config), library,
                           anneal_moves=50,
                           continue_on_error=True, session=session)
        assert isinstance(partial, PartialFlowResult)
        assert partial.complete and not partial.faults


class TestSweepKeepGoing:
    # jobs=2 splits the three cold points (16/32/64-word bricks) into
    # the chunks [16, 32] and [64]; the injected failure takes out the
    # whole first chunk, in the pool and on its serial re-execution.

    def _session(self, sink=None, jobs=2):
        return Session(cmos65(), seed=2015, sink=sink, jobs=jobs,
                       cache=CharacterizationCache(cache_dir=None))

    def _sweep(self, session, **kwargs):
        return session.sweep_partitions(
            total_words_options=(64,), bits_options=(8,),
            brick_words_options=(16, 32, 64), **kwargs)

    def test_failed_point_skipped_and_recorded(
            self, fail_chunks_with_32_words):
        sink = RecordingSink()
        result = self._sweep(self._session(sink), keep_going=True)
        assert [p.brick_words for p in result.points] == [64]
        assert [f.brick_words for f in result.failures] == [16, 32]
        assert [f.index for f in result.failures] == [0, 1]
        assert all("injected failure" in f.error
                   for f in result.failures)
        sweep_faults = [e for e in sink.events
                        if isinstance(e, FaultEvent)
                        and e.domain == "sweep"]
        assert len(sweep_faults) == 2
        # The pool failure the executor absorbed before its serial
        # re-execution is reported too.
        assert any(isinstance(e, FaultEvent) and e.domain == "executor"
                   for e in sink.events)

    def test_without_keep_going_raises(self, fail_chunks_with_32_words):
        with pytest.raises(ExecutorError) as info:
            self._sweep(self._session())
        assert isinstance(info.value.__cause__, BrickError)

    def test_all_points_failed_raises(self, monkeypatch):
        from repro.bricks import batch

        def _always_boom(points, tech):
            raise BrickError("nothing works")

        monkeypatch.setattr(batch, "estimate_brick_batch", _always_boom)
        with pytest.raises(ExplorationError, match="every sweep point"):
            self._sweep(self._session(jobs=1), keep_going=True)


class TestExitCodes:
    def test_every_domain_gets_a_distinct_code(self):
        from repro.errors import EXIT_CODES
        codes = [code for _, code in EXIT_CODES]
        assert len(codes) == len(set(codes))
        assert all(code not in (0, 1, 2) for code in codes)

    def test_exit_code_lookup(self):
        assert exit_code_for(BrickError("x")) == 18
        assert exit_code_for(ExecutorError("x")) == 29
        assert exit_code_for(ReproError("generic")) == 1
        assert failure_domain(BrickError("x")) == "brick"
        assert failure_domain(ExecutorError("x")) == "executor"

    def test_cli_faults_subcommand_deterministic(self, capsys):
        from repro.cli import main
        argv = ["--no-cache", "faults", "--words", "32", "--bits", "16",
                "--stack", "2", "--population", "200", "--ecc",
                "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "yield report" in first
        assert "repair plan: 2R/1C+SECDED" in first

    def test_cli_faults_reproducible_at_population_500(self, capsys):
        from repro.cli import main
        argv = ["--no-cache", "faults", "--words", "32", "--bits", "16",
                "--stack", "4", "--population", "500", "--ecc",
                "--seed", "2015"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "brick yield" in first

    def test_cli_faults_rejects_empty_stack(self, capsys):
        from repro.cli import main
        assert main(["--no-cache", "faults", "--stack", "0"]) == 28
        assert "error: yield: stack and partitions must be >= 1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["faults", "--partitions", "0"],
        ["faults", "--partitions", "-2"],
        ["sram", "--partitions", "0"],
        ["sram", "--partitions", "-3"],
        ["client", "--port", "1", "yield", "--partitions", "0"]])
    def test_cli_partitions_must_be_positive(self, capsys, argv):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-cache", *argv])
        assert excinfo.value.code == 2
        assert "--partitions: must be >= 1" in capsys.readouterr().err

    def test_cli_brick_yield_flag(self, capsys):
        from repro.cli import main
        assert main(["--no-cache", "brick", "--words", "16", "--bits",
                     "8", "--yield", "--population", "100"]) == 0
        out = capsys.readouterr().out
        assert "brick yield" in out

    def test_cli_executor_flags_install_policy(self):
        from repro.cli import main
        original = set_default_executor_policy(ExecutorPolicy())
        try:
            assert main(["--no-cache", "--task-timeout", "2.5",
                         "brick"]) == 0
        finally:
            installed = set_default_executor_policy(original)
        assert installed.task_timeout_s == 2.5
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-cache", "--max-retries", "3", "brick"])
        assert excinfo.value.code == 2
