"""Tests for the session run context and the staged synthesis pipeline.

Covers the :class:`~repro.session.Session` contract (construction,
derivation, seeded RNG streams), the generic
:class:`~repro.synth.pipeline.Pipeline` runner (ordering, events,
failure wrapping), the purity of the clock-tree power fold, and the
end-to-end guarantees: an injected session's cache and jobs reach the
characterization layers, and a flow or CLI ``sram`` run emits one
timed event per pipeline stage.
"""

import random

import pytest

from repro.bricks import single_partition, sram_brick
from repro.cli import build_parser, main
from repro.errors import SessionError, SynthesisError
from repro.perf import CharacterizationCache
from repro.rtl import build_sram
from repro.session import (
    DEFAULT_SEED,
    PrintingSink,
    RecordingSink,
    Session,
    StageEvent,
)
from repro.synth import (
    FLOW_STAGE_NAMES,
    FlowStage,
    Pipeline,
    PowerReport,
    fold_clock_tree_energy,
    prepare_libraries,
)
from repro.synth.clock import ClockTree


# --- Session construction ------------------------------------------------


class TestSession:
    def test_defaults(self, tech):
        session = Session(tech)
        assert session.jobs == 1
        assert session.seed == DEFAULT_SEED
        assert session.cache is not None  # resolved to process default
        assert session.sink is None

    def test_explicit_cache_kept(self, tech):
        cache = CharacterizationCache()
        assert Session(tech, cache=cache).cache is cache

    def test_derive_shares_cache_and_sink(self, tech):
        sink = RecordingSink()
        parent = Session(tech, jobs=3, seed=9, sink=sink)
        child = parent.derive(seed=11)
        assert child.seed == 11
        assert child.jobs == 3
        assert child.cache is parent.cache
        assert child.sink is sink
        assert parent.seed == 9  # parent untouched

    def test_derive_rejects_unknown_field(self, tech):
        with pytest.raises(SessionError, match="unknown session field"):
            Session(tech).derive(threads=4)

    def test_rng_streams_deterministic_and_independent(self, tech):
        session = Session(tech, seed=42)
        a1 = session.rng("place").random()
        a2 = session.rng("place").random()
        b = session.rng("stimulus").random()
        assert a1 == a2
        assert a1 != b
        assert Session(tech, seed=43).rng("place").random() != a1

    def test_emit_without_sink_is_noop(self, tech):
        Session(tech).emit(StageEvent("x", 0, 0.0))  # must not raise


# --- Pipeline runner ------------------------------------------------------


class TestPipeline:
    def _stage(self, name, trace, detail=None, boom=False):
        def body(session, state):
            if boom:
                raise ValueError(f"{name} exploded")
            trace.append(name)
            return detail

        return FlowStage(name, body)

    def test_runs_stages_in_order(self, tech):
        trace = []
        pipe = Pipeline([self._stage(n, trace)
                         for n in ("a", "b", "c")], name="t")
        state = object()
        assert pipe.run(Session(tech), state) is state
        assert trace == ["a", "b", "c"]

    def test_one_timed_event_per_stage(self, tech):
        trace = []
        sink = RecordingSink()
        pipe = Pipeline([self._stage("a", trace, {"cells": 3}),
                         self._stage("b", trace)], name="t")
        pipe.run(Session(tech, sink=sink), {})
        assert sink.stages == ["a", "b"]
        assert [e.index for e in sink.events] == [0, 1]
        assert all(e.ok for e in sink.events)
        assert all(e.wall_clock_s >= 0.0 for e in sink.events)
        assert sink.events[0].detail == {"cells": 3}
        assert sink.events[1].detail == {}

    def test_failure_raises_synthesis_error_naming_stage(self, tech):
        trace = []
        sink = RecordingSink()
        pipe = Pipeline([self._stage("a", trace),
                         self._stage("broken", trace, boom=True),
                         self._stage("never", trace)], name="t")
        with pytest.raises(SynthesisError,
                           match="stage 'broken' failed") as info:
            pipe.run(Session(tech, sink=sink), {})
        assert isinstance(info.value.__cause__, ValueError)
        assert trace == ["a"]  # later stages never ran
        assert sink.stages == ["a", "broken"]
        assert not sink.events[-1].ok
        assert "exploded" in sink.events[-1].error

    def test_empty_pipeline_rejected(self):
        with pytest.raises(SessionError, match="no stages"):
            Pipeline([], name="t")

    def test_duplicate_stage_names_rejected(self, tech):
        stage = self._stage("a", [])
        with pytest.raises(SessionError, match="duplicate"):
            Pipeline([stage, stage], name="t")

    def test_flow_pipeline_stage_roster(self):
        assert FLOW_STAGE_NAMES == (
            "elaborate", "floorplan", "place", "route", "resize_eco",
            "sta", "clock_tree", "power")


# --- Pure clock-tree power fold (regression for in-place mutation) --------


class TestFoldClockTreeEnergy:
    def _tree(self):
        return ClockTree(n_sinks=4, sink_cap=4e-15, levels=1,
                         wirelength_um=80.0, wire_cap=8e-15,
                         buffer_cap=2e-15, insertion_delay=3e-11,
                         skew_bound=5e-12, energy_per_cycle=1.4e-14)

    def test_fold_does_not_mutate_input(self, tech):
        report = PowerReport(freq_hz=1e9, dynamic_w=1e-3,
                             leakage_w=1e-6,
                             by_category={"logic": 1e-3},
                             energy_per_cycle=1e-12)
        folded = fold_clock_tree_energy(report, self._tree(), tech)
        assert folded is not report
        assert report.energy_per_cycle == 1e-12
        assert report.dynamic_w == 1e-3
        assert report.by_category == {"logic": 1e-3}
        assert "clock_network" not in report.by_category

    def test_fold_adds_tree_energy_once(self, tech):
        report = PowerReport(freq_hz=1e9, dynamic_w=1e-3,
                             leakage_w=1e-6, energy_per_cycle=1e-12)
        tree = self._tree()
        tree_energy = (tree.wire_cap + tree.buffer_cap) * tech.vdd ** 2
        folded = fold_clock_tree_energy(report, tree, tech)
        assert folded.energy_per_cycle == pytest.approx(
            1e-12 + tree_energy)
        assert folded.dynamic_w == pytest.approx(
            1e-3 + tree_energy * 1e9)
        assert folded.by_category["clock_network"] == pytest.approx(
            tree_energy * 1e9)
        # Folding the same input twice yields the same output — the old
        # in-place += made repeated calls compound.
        again = fold_clock_tree_energy(report, tree, tech)
        assert again.energy_per_cycle == folded.energy_per_cycle


# --- Session state reaches the characterization layers --------------------


class SpyCache(CharacterizationCache):
    """Cache that records every key looked up through it."""

    def __init__(self):
        super().__init__()
        self.get_keys = []

    def get(self, key):
        self.get_keys.append(key)
        return super().get(key)


class TestSessionReachesLayers:
    def test_generate_brick_library_uses_session_cache(self, tech):
        spy = SpyCache()
        session = Session(tech, jobs=1, cache=spy)
        library, _ = session.generate_brick_library(
            [(sram_brick(8, 8), 1)])
        assert len(library) == 1
        assert spy.get_keys, "brick characterization bypassed the " \
                             "session cache"

    def test_sweep_partitions_uses_session_cache(self, tech):
        spy = SpyCache()
        session = Session(tech, jobs=1, cache=spy)
        result = session.sweep_partitions(
            total_words_options=(32,), bits_options=(8,),
            brick_words_options=(8, 16))
        assert len(result.points) == 2
        first = len(spy.get_keys)
        assert first >= 2
        # Rerun under the same session: every point is now a hit.
        misses_before = spy.stats.misses
        session.sweep_partitions(
            total_words_options=(32,), bits_options=(8,),
            brick_words_options=(8, 16))
        assert spy.stats.misses == misses_before
        assert len(spy.get_keys) > first


# --- Flows under a session -----------------------------------------------


def _flow_inputs(tech):
    bank = single_partition(sram_brick(16, 8), 16)
    library = prepare_libraries([(bank.brick, bank.stack)], Session(tech))
    module = build_sram(bank)

    def stimulus(sim):
        rng = random.Random(7)
        for _ in range(8):
            sim.set_input("raddr", rng.randrange(bank.words))
            sim.set_input("waddr", rng.randrange(bank.words))
            sim.set_input("din", rng.randrange(1 << bank.bits))
            sim.set_input("we", 1)
            sim.clock()

    return bank, library, module, stimulus


class TestGoldenEquivalence:
    def test_run_flow_emits_one_event_per_stage(self, tech):
        bank, library, _, stimulus = _flow_inputs(tech)
        sink = RecordingSink()
        session = Session(tech, seed=5, sink=sink)
        session.run_flow(build_sram(bank), library, stimulus=stimulus,
                         anneal_moves=300)
        assert tuple(sink.stages) == FLOW_STAGE_NAMES
        assert all(e.ok for e in sink.events)
        assert all(e.wall_clock_s >= 0.0 for e in sink.events)


# --- CLI integration ------------------------------------------------------


class TestCLISessions:
    def test_sram_flags_parse(self):
        args = build_parser().parse_args(
            ["sram", "--seed", "7", "--utilization", "0.8"])
        assert args.seed == 7
        assert args.utilization == 0.8

    def test_sram_flag_defaults(self):
        args = build_parser().parse_args(["sram"])
        assert args.seed == DEFAULT_SEED
        assert args.utilization == 0.65

    def test_bad_utilization_rejected(self):
        for bad in ("0", "1.5", "x"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sram", "--utilization", bad])

    def test_injected_session_records_stage_events(self, tech, capsys):
        sink = RecordingSink()
        session = Session(tech, seed=3, sink=sink)
        code = main(["sram", "--words", "16", "--bits", "8",
                     "--brick-words", "16", "--cycles", "8",
                     "--anneal", "200"], session=session)
        assert code == 0
        assert "Flow summary" in capsys.readouterr().out
        assert tuple(sink.stages) == FLOW_STAGE_NAMES
        assert all(e.ok for e in sink.events)
        assert all(e.wall_clock_s >= 0.0 for e in sink.events)

    def test_seed_changes_cli_flow(self, capsys):
        assert main(["sram", "--words", "16", "--bits", "8",
                     "--brick-words", "16", "--cycles", "8",
                     "--anneal", "200", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["sram", "--words", "16", "--bits", "8",
                     "--brick-words", "16", "--cycles", "8",
                     "--anneal", "200", "--seed", "1"]) == 0
        assert capsys.readouterr().out == first  # same seed: same run

    def test_trace_stages_prints_per_stage_lines(self, tech):
        import io
        stream = io.StringIO()
        sink = PrintingSink(stream)
        session = Session(tech, sink=sink)
        assert main(["sram", "--words", "16", "--bits", "8",
                     "--brick-words", "16", "--cycles", "8",
                     "--anneal", "200"], session=session) == 0
        lines = [ln for ln in stream.getvalue().splitlines() if ln]
        assert len(lines) == len(FLOW_STAGE_NAMES)
        assert "elaborate" in lines[0]
        assert "power" in lines[-1]
