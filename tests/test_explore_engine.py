"""The SweepEngine facade, session sweep methods, serve progress, CLI.

The engine's cached mode must be indistinguishable from the
``Session.sweep_partitions`` path; the serve layer must surface shard
progress in ``stats``; and the CLI must accept the scale flags.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.errors import ExplorationError
from repro.explore import AUTO_SHARD_THRESHOLD, SweepEngine
from repro.session import Session


#: A lattice past :data:`AUTO_SHARD_THRESHOLD`, so it runs sharded.
LARGE_LATTICE = {"total_words": [64 * k for k in range(1, 25)],
                 "bits": list(range(2, 12)),
                 "brick_words": [4, 8, 16, 32, 64],
                 "shard_size": 128}


def _session(tech):
    return Session(tech)


class TestSessionSweepMethods:
    def test_sweep_and_brick_selection(self, tech, recwarn):
        session = _session(tech)
        assert len(session.sweep_partitions().points) == 9
        choice = session.optimize_brick_selection(128, 16)
        assert choice.point.total_words == 128
        assert not recwarn.list


class TestPlanModes:
    def test_auto_small_is_cached(self, tech):
        engine = _session(tech).sweep_engine()
        assert engine.plan().mode == "cached"
        assert engine.plan().n_shards == 1

    def test_auto_large_is_sharded(self, tech):
        engine = _session(tech).sweep_engine(
            total_words_options=tuple(64 * k for k in range(1, 25)),
            bits_options=tuple(range(2, 12)),
            brick_words_options=(4, 8, 16, 32, 64),
            shard_size=128)
        plan = engine.plan()
        assert plan.n_points > AUTO_SHARD_THRESHOLD
        assert plan.mode == "sharded"
        assert plan.n_shards > 1

    def test_cached_multi_type_rejected(self, tech):
        engine = _session(tech).sweep_engine(
            memory_types=("8T", "6T"), mode="cached")
        with pytest.raises(ExplorationError, match="single memory"):
            engine.plan()

    def test_bad_mode_rejected(self, tech):
        with pytest.raises(ExplorationError, match="mode"):
            _session(tech).sweep_engine(mode="turbo")

    def test_bad_objective_rejected(self, tech):
        with pytest.raises(ExplorationError, match="objective"):
            _session(tech).sweep_engine(objectives=("speed",))

    def test_fingerprint_stable_across_engines(self, tech):
        a = _session(tech).sweep_engine().plan()
        b = _session(tech).sweep_engine().plan()
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_covers_resolved_mode(self, tech):
        """A sharded run of the 9-point Fig-4c lattice keeps 3 points,
        the auto (cached) run all 9: distinct results, distinct keys.
        An explicit ``cached`` is what auto resolves to: one key."""
        session = _session(tech)
        auto = session.sweep_engine()
        cached = session.sweep_engine(mode="cached")
        sharded = session.sweep_engine(mode="sharded")
        assert auto.plan().mode == "cached"
        assert auto.plan().fingerprint == cached.plan().fingerprint
        assert auto.plan().fingerprint != sharded.plan().fingerprint
        assert len(auto.run().to_sweep_result().points) == 9
        assert len(sharded.run().to_sweep_result().points) < 9


class TestCachedMode:
    def test_progress_reports_single_shard(self, tech):
        calls = []
        _session(tech).sweep_engine().run(
            progress=lambda done, total, shard:
            calls.append((done, total)))
        assert calls == [(1, 1)]


class TestShardedMode:
    def _engine(self, tech, **kwargs):
        return _session(tech).sweep_engine(
            total_words_options=(64, 128, 256), bits_options=(8, 16),
            brick_words_options=(16, 32, 64), mode="sharded",
            shard_size=4, **kwargs)

    def test_progress_counts_every_shard(self, tech):
        calls = []
        result = self._engine(tech).run(
            progress=lambda done, total, shard:
            calls.append((done, total)))
        assert calls[-1] == (result.shards_total, result.shards_total)
        assert [d for d, _ in calls] == \
            list(range(1, result.shards_total + 1))

    def test_counters_and_spans(self, tech):
        from repro.obs import MetricsRegistry, Tracer
        session = Session(tech)
        session.metrics = MetricsRegistry()
        session.tracer = Tracer()
        session.sweep_engine(
            total_words_options=(64, 128), bits_options=(8,),
            brick_words_options=(16, 32), mode="sharded",
            shard_size=2).run()
        counters = session.metrics.counters
        assert counters["explore.scale.shards_done"].value >= 1
        assert counters["explore.sweep.points_evaluated"].value >= 1
        kinds = {s.kind for s in session.tracer.spans}
        assert "sweep" in kinds
        assert "sweep_shard" in kinds


class TestSessionFacade:
    def test_sweep_engine_binds_session(self, tech):
        session = _session(tech)
        engine = session.sweep_engine()
        assert isinstance(engine, SweepEngine)
        assert engine.session is session


class TestServeProgress:
    def test_stats_reports_shard_progress(self, tech):
        from tests.test_serve import SWEEP_PARAMS, ServerHarness
        harness = ServerHarness()
        try:
            with harness.client() as c:
                summary = c.sweep(**SWEEP_PARAMS)
                stats = c.stats()
            assert summary["mode"] == "cached"
            assert summary["shards_done"] == summary["shards_total"]
            assert summary["frontier_size"] >= 1
            entry = stats["sweeps"][summary["fingerprint"]]
            assert entry["done"] is True
            assert entry["shards_done"] == entry["shards_total"]
            assert entry["n_points"] == summary["n_points"]
        finally:
            harness.stop()

    def test_sharded_sweep_over_the_wire(self, tech):
        from tests.test_serve import ServerHarness
        harness = ServerHarness()
        try:
            with harness.client() as c:
                summary = c.sweep(**LARGE_LATTICE)
                stats = c.stats()
            assert summary["lattice_points"] > AUTO_SHARD_THRESHOLD
            assert summary["mode"] == "sharded"
            assert summary["shards_total"] > 1
            assert summary["shards_done"] == summary["shards_total"]
            fp = summary["fingerprint"]
            assert stats["sweeps"][fp]["done"] is True
        finally:
            harness.stop()


class TestCLI:
    def test_scale_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--total-words", "64", "128",
             "--shard-size", "4", "--top-k", "8", "--refine", "1"])
        assert args.total_words == [64, 128]
        assert args.shard_size == 4
        assert args.top_k == 8
        assert args.refine == 1

    def test_default_sweep_unchanged(self):
        args = build_parser().parse_args(["sweep"])
        assert args.total_words == [128]
        assert args.refine == 0

    def test_sharded_sweep_command(self, capsys):
        lattice = LARGE_LATTICE
        assert main(["sweep",
                     "--total-words", *map(str, lattice["total_words"]),
                     "--bits", *map(str, lattice["bits"]),
                     "--brick-words", *map(str, lattice["brick_words"]),
                     "--shard-size", str(lattice["shard_size"])]) == 0
        out = capsys.readouterr()
        assert "sharded sweep" in out.err
        assert "pareto-optimal" in out.out

    def test_client_sweep_scale_flags_parse(self):
        args = build_parser().parse_args(
            ["client", "--port", "1", "sweep", "--total-words",
             "64", "128", "--shard-size", "4"])
        assert args.total_words == [64, 128]
        assert args.shard_size == 4

    @pytest.mark.parametrize("prefix", [[], ["client", "--port", "1"]])
    def test_mode_flag_rejected(self, prefix, capsys):
        """The sweep mode follows from the lattice size alone."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                prefix + ["sweep", "--mode", "sharded"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err
