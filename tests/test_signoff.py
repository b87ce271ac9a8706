"""The statistical signoff engine and its counter-based streams.

The contract under test is the ISSUE's acceptance bar: a signoff run
reduces to the *same bytes* regardless of chunking, worker count,
kill/resume history or completion order; early-stop engages
deterministically; chunk failures degrade under ``keep_going``; and
the vectorized sample pricing agrees with the scalar estimator at the
composed technology.
"""

from __future__ import annotations

import json
import math
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.bricks.compiler import compile_brick
from repro.bricks.estimator import estimate_brick
from repro.bricks.spec import BrickSpec
from repro.errors import ServeError, SignoffError
from repro.perf.cache import CharacterizationCache
from repro.serve.client import ServeClient
from repro.serve.handlers import (
    COALESCED_TYPES,
    ServeContext,
    coalesce_key,
    dispatch,
)
from repro.serve.protocol import PROTOCOL_VERSION, Request, encode_frame
from repro.session import Session
from repro.signoff import (
    ChunkFailure,
    SignoffEngine,
    normals,
    pvt_columns,
    resample_indices,
    stream_key,
    uniforms,
)
from repro.signoff.stats import ci_half_width, summarize
from repro.silicon.variation import ChipSample, VariationModel
from repro.tech.corners import corner

SPEC = BrickSpec("8T", 16, 10)


def _session(tech, cache=None, jobs=1, seed=None):
    kwargs = {"jobs": jobs,
              "cache": cache if cache is not None
              else CharacterizationCache()}
    if seed is not None:
        kwargs["seed"] = seed
    return Session(tech, **kwargs)


class TestCounterStreams:
    def test_uniforms_in_half_open_unit_interval(self):
        key = stream_key(7, "u")
        u = uniforms(key, np.arange(100_000))
        assert float(u.min()) > 0.0
        assert float(u.max()) <= 1.0

    def test_normals_chunk_invariant(self):
        key = stream_key(11, "n")
        whole = normals(key, 0, 1000, 5)
        parts = np.concatenate(
            [normals(key, lo, lo + 100, 5)
             for lo in range(0, 1000, 100)])
        assert np.array_equal(whole, parts)

    def test_normals_standard_moments(self):
        g = normals(stream_key(3, "m"), 0, 200_000, 1)[:, 0]
        assert abs(float(g.mean())) < 0.01
        assert abs(float(g.std()) - 1.0) < 0.01

    def test_distinct_salts_decorrelate(self):
        a = normals(stream_key(5, "a"), 0, 4096, 1)[:, 0]
        b = normals(stream_key(5, "b"), 0, 4096, 1)[:, 0]
        assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.05

    def test_resample_indices_bounds_and_determinism(self):
        key = stream_key(9, "boot")
        idx = resample_indices(key, 37, 50)
        assert idx.shape == (50, 37)
        assert int(idx.min()) >= 0
        assert int(idx.max()) < 37
        assert np.array_equal(idx, resample_indices(key, 37, 50))
        assert not np.array_equal(
            idx, resample_indices(key, 37, 50, block=1))


class TestPvtColumns:
    def test_matches_scalar_formulas(self):
        model = VariationModel()
        key = stream_key(13, "pvt")
        cols = pvt_columns(model, key, 0, 64)
        g = normals(key, 0, 64, 5)
        assert np.allclose(cols["r_scale"],
                           np.exp(g[:, 0] * model.sigma_r))
        assert np.allclose(
            cols["leak_scale"],
            np.exp(-2.0 * np.log(cols["r_scale"]) + g[:, 3] * 0.2))

    def test_chunk_invariant(self):
        model = VariationModel()
        key = stream_key(13, "pvt")
        whole = pvt_columns(model, key, 0, 300)
        tail = pvt_columns(model, key, 200, 300)
        for name in whole:
            assert np.array_equal(whole[name][200:], tail[name])


class TestStats:
    def test_ci_half_width_matches_direct(self):
        values = np.exp(normals(stream_key(1, "ci"), 0, 500, 1)[:, 0])
        n = len(values)
        rel = ci_half_width(n, float(values.sum()),
                            float((values * values).sum()))
        direct = (1.959963984540054 * values.std(ddof=1)
                  / math.sqrt(n) / values.mean())
        assert rel == pytest.approx(direct, rel=1e-9)

    def test_ci_half_width_degenerate(self):
        assert ci_half_width(1, 5.0, 25.0) == math.inf
        assert ci_half_width(10, -1.0, 5.0) == math.inf

    def test_summarize_keys(self):
        values = np.linspace(1.0, 2.0, 101)
        s = summarize(values, key=stream_key(2, "s"))
        assert s["p50"] == pytest.approx(1.5)
        assert set(s) == {"mean", "p50", "p95", "p99_9",
                          "ci_lo", "ci_hi"}
        assert s["ci_lo"] <= s["mean"] <= s["ci_hi"]


class TestEngineDeterminism:
    def test_metrics_invariant_to_chunk_size(self, tech):
        reports = [
            SignoffEngine(_session(tech), spec=SPEC, n_samples=384,
                          chunk_size=size).run()
            for size in (64, 384)]
        assert (reports[0].as_dict()["metrics"]
                == reports[1].as_dict()["metrics"])
        assert (reports[0].as_dict()["raw_yield"]
                == reports[1].as_dict()["raw_yield"])

    def test_render_invariant_to_jobs(self, tech):
        one = SignoffEngine(_session(tech, jobs=1), spec=SPEC,
                            n_samples=256, chunk_size=64).run()
        two = SignoffEngine(_session(tech, jobs=2), spec=SPEC,
                            n_samples=256, chunk_size=64).run()
        assert one.render() == two.render()

    def test_killed_run_resumes_byte_identical(self, tech):
        class Killed(Exception):
            pass

        def killer(done, total, record):
            if done >= total // 2:
                raise Killed()

        for n_samples, chunk_size in ((512, 64), (2048, 128)):
            kwargs = dict(spec=SPEC, n_samples=n_samples,
                          chunk_size=chunk_size)
            golden = SignoffEngine(_session(tech), **kwargs).run()
            cache = CharacterizationCache()
            with pytest.raises(Killed):
                SignoffEngine(_session(tech, cache=cache),
                              **kwargs).run(progress=killer)
            resumed = SignoffEngine(_session(tech, cache=cache),
                                    **kwargs).run()
            assert resumed.resumed_chunks >= 1
            assert resumed.render() == golden.render()

    def test_no_resume_ignores_checkpoints(self, tech):
        cache = CharacterizationCache()
        kwargs = dict(spec=SPEC, n_samples=128, chunk_size=64)
        SignoffEngine(_session(tech, cache=cache), **kwargs).run()
        fresh = SignoffEngine(_session(tech, cache=cache),
                              **kwargs).run(resume=False)
        assert fresh.resumed_chunks == 0

    def test_different_seed_different_population(self, tech):
        a = SignoffEngine(_session(tech), spec=SPEC, n_samples=128,
                          chunk_size=64).run()
        b = SignoffEngine(_session(tech, seed=99), spec=SPEC,
                          n_samples=128, chunk_size=64).run()
        assert (a.as_dict()["metrics"]["nominal"]["read_delay"]
                != b.as_dict()["metrics"]["nominal"]["read_delay"])


class TestEarlyStop:
    def test_engages_and_reports_achieved_ci(self, tech):
        report = SignoffEngine(_session(tech), spec=SPEC,
                               n_samples=8192, chunk_size=128,
                               ci_target=0.02).run()
        assert report.early_stopped
        assert report.samples_used < report.n_samples
        assert report.achieved_ci <= 0.02
        assert "early-stop: engaged" in report.render()

    def test_deterministic_across_kill_resume(self, tech):
        kwargs = dict(spec=SPEC, n_samples=4096, chunk_size=128,
                      ci_target=0.02)
        golden = SignoffEngine(_session(tech), **kwargs).run()

        cache = CharacterizationCache()

        class Killed(Exception):
            pass

        def killer(done, total, record):
            if done >= 2:
                raise Killed()

        with pytest.raises(Killed):
            SignoffEngine(_session(tech, cache=cache),
                          **kwargs).run(progress=killer)
        resumed = SignoffEngine(_session(tech, cache=cache),
                                **kwargs).run()
        assert resumed.render() == golden.render()

    def test_cap_reached_without_target(self, tech):
        report = SignoffEngine(_session(tech), spec=SPEC,
                               n_samples=128, chunk_size=64).run()
        assert not report.early_stopped
        assert report.samples_used == 128
        assert math.isfinite(report.achieved_ci)


class TestKeepGoing:
    @staticmethod
    def _failing_worker(fail_chunks):
        from repro.signoff import engine as engine_mod
        real = engine_mod._chunk_worker

        def worker(task):
            if task[4] in fail_chunks:
                raise RuntimeError(f"chunk {task[4]} exploded")
            return real(task)

        return worker

    def test_chunk_failure_degrades_into_report(self, tech,
                                                monkeypatch):
        from repro.signoff import engine as engine_mod
        monkeypatch.setattr(engine_mod, "_chunk_worker",
                            self._failing_worker({1}))
        report = SignoffEngine(_session(tech), spec=SPEC,
                               n_samples=256, chunk_size=64).run(
                                   keep_going=True)
        assert len(report.failures) == 1
        assert report.failures[0].chunk == 1
        assert "chunk 1 exploded" in report.failures[0].error
        assert report.samples_ok == 256 - 64
        assert "failed chunks (1):" in report.render()

    def test_failure_checkpointed_for_resume(self, tech,
                                             monkeypatch):
        from repro.signoff import engine as engine_mod
        cache = CharacterizationCache()
        monkeypatch.setattr(engine_mod, "_chunk_worker",
                            self._failing_worker({2}))
        first = SignoffEngine(_session(tech, cache=cache), spec=SPEC,
                              n_samples=256, chunk_size=64).run(
                                  keep_going=True)
        monkeypatch.undo()
        # The un-patched resume still reproduces the failure record:
        # it was checkpointed, not recomputed.
        resumed = SignoffEngine(_session(tech, cache=cache),
                                spec=SPEC, n_samples=256,
                                chunk_size=64).run(keep_going=True)
        assert resumed.resumed_chunks == 4
        assert resumed.render() == first.render()

    def test_without_keep_going_raises(self, tech, monkeypatch):
        from repro.signoff import engine as engine_mod
        monkeypatch.setattr(engine_mod, "_chunk_worker",
                            self._failing_worker({0}))
        with pytest.raises(Exception, match="chunk 0 exploded"):
            SignoffEngine(_session(tech), spec=SPEC, n_samples=128,
                          chunk_size=64).run()

    def test_all_chunks_failed_raises_signoff_error(self, tech,
                                                    monkeypatch):
        from repro.signoff import engine as engine_mod
        monkeypatch.setattr(engine_mod, "_chunk_worker",
                            self._failing_worker({0, 1}))
        with pytest.raises(SignoffError, match="failed"):
            SignoffEngine(_session(tech), spec=SPEC, n_samples=128,
                          chunk_size=64).run(keep_going=True)


class TestScalingLawAgreement:
    def test_vectorized_matches_scalar_estimator(self, tech):
        """Base x scale columns == the scalar estimator at the
        composed per-die technology (the closed-form scaling law)."""
        session = _session(tech)
        engine = SignoffEngine(session, spec=SPEC, n_samples=8,
                               chunk_size=8)
        report = engine.run()
        plan = engine.plan()
        cols = pvt_columns(plan.model, plan.stream_key, 0, 8)
        base_tech = corner("nominal").apply(tech)
        for i in range(8):
            die_tech = base_tech.scaled(
                r_scale=float(cols["r_scale"][i]),
                c_scale=float(cols["c_scale"][i]),
                vdd_scale=float(cols["vdd_scale"][i]),
                leak_scale=float(cols["leak_scale"][i]),
                name_suffix=f"@die{i}")
            perf = estimate_brick(
                compile_brick(SPEC, die_tech, target_stack=1),
                die_tech, stack=1)
            base = estimate_brick(
                compile_brick(SPEC, base_tech, target_stack=1),
                base_tech, stack=1)
            assert perf.read_delay == pytest.approx(
                base.read_delay * float(cols["r_scale"][i]
                                        * cols["c_scale"][i]),
                rel=1e-9)
            assert perf.read_energy == pytest.approx(
                base.read_energy * float(cols["c_scale"][i]
                                         * cols["vdd_scale"][i] ** 2),
                rel=1e-9)
            assert perf.leakage_w == pytest.approx(
                base.leakage_w * float(cols["leak_scale"][i]
                                       * cols["vdd_scale"][i]),
                rel=1e-9)
        assert report.samples_ok == 8


class TestVariationStreams:
    def test_legacy_sampler_golden_pinned(self):
        """The sequential seed-65 sampler existing goldens depend on
        must never drift (the new stream API is additive)."""
        chips = VariationModel().sample(2, seed=65)
        assert chips[0] == ChipSample(
            chip_id=0,
            r_scale=0.9449089332752646,
            c_scale=1.0169600924071651,
            vdd_scale=1.009149362195885,
            leak_scale=0.9360822299015331,
            measurement_noise=0.9937924421905349)
        assert chips[1].r_scale == pytest.approx(
            0.9819836772270478, rel=1e-15)

    def test_sample_stream_chunk_invariant(self):
        model = VariationModel()
        whole = model.sample_stream(10, seed=2015)
        tail = model.sample_stream(4, seed=2015, start=6)
        assert whole[6:] == tail
        assert tail[0].chip_id == 6

    def test_sample_stream_matches_pvt_columns(self):
        model = VariationModel()
        chips = model.sample_stream(5, seed=7, salt="x")
        cols = pvt_columns(model, stream_key(7, "x"), 0, 5)
        for i, chip in enumerate(chips):
            assert chip.r_scale == float(cols["r_scale"][i])
            assert chip.measurement_noise == float(cols["noise"][i])

    def test_measure_chips_seed_stream_mode(self, tech):
        from repro.silicon.measure import measure_chips
        session = _session(tech)
        results = measure_chips(["A"], n_chips=2, anneal_moves=50,
                                session=session, seed_stream=True)
        assert len(results["A"].chips) == 2


class TestCheckpointHardening:
    def test_truncated_checkpoint_quarantined_and_recomputed(
            self, tech, tmp_path):
        from repro.perf.cache import KEY_SCHEMA_VERSION
        from repro.signoff import chunk_checkpoint_key
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        kwargs = dict(spec=SPEC, n_samples=256, chunk_size=64)
        golden = SignoffEngine(_session(tech, cache=cache),
                               **kwargs).run()
        engine = SignoffEngine(_session(tech, cache=cache), **kwargs)
        key = chunk_checkpoint_key(engine.plan().fingerprint, False, 1)
        entry = tmp_path / f"v{KEY_SCHEMA_VERSION}" / f"{key}.pkl"
        assert entry.exists()
        entry.write_bytes(entry.read_bytes()[:10])  # killed mid-write
        fresh_cache = CharacterizationCache(cache_dir=str(tmp_path))
        resumed = SignoffEngine(
            _session(tech, cache=fresh_cache), **kwargs).run()
        assert fresh_cache.stats.quarantined == 1
        assert resumed.resumed_chunks == 3  # the bad chunk recomputed
        assert resumed.render() == golden.render()

    def test_wrong_type_checkpoint_quarantined(self, tech, tmp_path):
        from repro.signoff import chunk_checkpoint_key
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        kwargs = dict(spec=SPEC, n_samples=128, chunk_size=64)
        engine = SignoffEngine(_session(tech, cache=cache), **kwargs)
        key = chunk_checkpoint_key(engine.plan().fingerprint, False, 0)
        cache.put(key, "not a chunk result")  # poisoned by a bug
        report = engine.run()
        assert report.resumed_chunks == 0
        assert cache.stats.quarantined == 1
        assert report.samples_ok == 128


class TestServeSignoff:
    def _ctx(self, tech):
        return ServeContext(_session(tech))

    def test_dispatch_matches_local_run(self, tech):
        ctx = self._ctx(tech)
        params = {"type": "8T", "words": 16, "bits": 10,
                  "samples": 128, "chunk_size": 64}
        result = dispatch(ctx, Request(id="r1", type="signoff",
                                       params=params))
        local = SignoffEngine(
            _session(tech), spec=SPEC, n_samples=128,
            chunk_size=64).run()
        assert result["data"]["render"] == local.render()
        assert result["samples_used"] == 128
        fetched = ctx.store.get(result["artifact"])
        assert fetched["render"] == local.render()

    def test_coalesce_key_is_plan_fingerprint(self, tech):
        session = _session(tech)
        params = {"type": "8T", "words": 16, "bits": 10,
                  "samples": 128, "chunk_size": 64}
        key = coalesce_key(Request(id="x", type="signoff",
                                   params=params), session)
        engine = SignoffEngine(session, spec=SPEC, n_samples=128,
                               chunk_size=64)
        assert key == f"signoff:{engine.plan().fingerprint}"
        assert "signoff" in COALESCED_TYPES

    def test_bad_params_rejected(self, tech):
        ctx = self._ctx(tech)
        for params in ({"samples": "many"},
                       {"ci_target": True},
                       {"corners": []},
                       {"corners": ["typical-ish"]},
                       {"seed": 1.5}):
            with pytest.raises((ServeError, Exception)):
                dispatch(ctx, Request(id="bad", type="signoff",
                                      params=params))

    def test_served_seed_param_matches_local_seed(self, tech):
        ctx = self._ctx(tech)
        result = dispatch(ctx, Request(
            id="r2", type="signoff",
            params={"samples": 128, "chunk_size": 64, "seed": 77}))
        local = SignoffEngine(_session(tech, seed=77), spec=SPEC,
                              n_samples=128, chunk_size=64).run()
        assert result["data"]["render"] == local.render()


class _FlakyServer:
    """Accepts one connection, drops it after the first request line
    (a restart mid-flight), then serves the resent request."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(2)
        self.port = self.sock.getsockname()[1]
        self.served = []
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        conn1, _ = self.sock.accept()
        conn1.makefile("rb").readline()  # swallow, then reset
        conn1.close()
        conn2, _ = self.sock.accept()
        line = conn2.makefile("rb").readline()
        frame = json.loads(line)
        self.served.append(frame)
        conn2.sendall(encode_frame({
            "v": PROTOCOL_VERSION, "id": frame["id"], "ok": True,
            "result": {"pong": True}}))
        conn2.close()

    def close(self):
        self.thread.join(10)
        self.sock.close()


class TestClientRetry:
    def test_connect_retries_until_listener_appears(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # port free now; listener appears later

        listener = socket.socket()

        def start_late():
            time.sleep(0.3)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)

        t = threading.Thread(target=start_late, daemon=True)
        t.start()
        client = ServeClient(port=port, connect_retries=10,
                             connect_backoff_s=0.05)
        client.connect()  # survives the refused attempts
        client.close()
        t.join(5)
        listener.close()

    def test_connect_gives_up_with_clear_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServeClient(port=port, connect_retries=2,
                             connect_backoff_s=0.01)
        with pytest.raises(ServeError, match="after 2 attempt"):
            client.connect()

    def test_reset_mid_request_reconnects_and_resends(self):
        server = _FlakyServer()
        try:
            client = ServeClient(port=server.port,
                                 connect_backoff_s=0.01)
            result = client.ping()
            client.close()
        finally:
            server.close()
        assert result == {"pong": True}
        assert len(server.served) == 1
        assert server.served[0]["type"] == "ping"


class TestCli:
    def test_signoff_subcommand(self, tech, capsys, tmp_path):
        from repro.cli import main
        out_json = tmp_path / "signoff.json"
        assert main(["--no-cache", "signoff", "--samples", "128",
                     "--chunk-size", "64", "--json-out",
                     str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "signoff report: brick_16_10" in out
        payload = json.loads(out_json.read_text())
        assert payload["samples_used"] == 128
        assert "render" not in payload

    def test_cross_process_jobs_determinism(self, tmp_path):
        """Satellite: two subprocess runs at different --jobs emit
        byte-identical stdout (stderr carries the timing)."""
        outs = []
        for jobs, sub in (("1", "a"), ("2", "b")):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli",
                 "--jobs", jobs, "--cache-dir",
                 str(tmp_path / sub), "signoff",
                 "--samples", "256", "--chunk-size", "64"],
                capture_output=True, text=True, timeout=300,
                env=dict(os.environ, PYTHONPATH="src"),
                cwd="/root/repo")
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestPlanValidation:
    def test_rejects_bad_parameters(self, tech):
        session = _session(tech)
        with pytest.raises(SignoffError):
            SignoffEngine(session, spec=SPEC, n_samples=0)
        with pytest.raises(SignoffError):
            SignoffEngine(session, spec=SPEC, chunk_size=0)
        with pytest.raises(SignoffError):
            SignoffEngine(session, spec=SPEC, ci_target=-0.1)
        with pytest.raises(SignoffError):
            SignoffEngine(session, spec=SPEC, corners=())
        with pytest.raises(Exception):
            SignoffEngine(session, spec=SPEC, corners=("typ",))

    def test_fingerprint_covers_inputs(self, tech):
        session = _session(tech)
        base = SignoffEngine(session, spec=SPEC,
                             n_samples=128).plan().fingerprint
        assert SignoffEngine(session, spec=SPEC, n_samples=256
                             ).plan().fingerprint != base
        assert SignoffEngine(session, spec=SPEC, n_samples=128,
                             ci_target=0.01
                             ).plan().fingerprint != base
        assert SignoffEngine(
            _session(tech, seed=3), spec=SPEC,
            n_samples=128).plan().fingerprint != base

    def test_metrics_and_spans_emitted(self, tech):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer
        session = Session(tech, jobs=1,
                          cache=CharacterizationCache(),
                          metrics=MetricsRegistry(), tracer=Tracer())
        SignoffEngine(session, spec=SPEC, n_samples=128,
                      chunk_size=64).run()
        counters = session.metrics.counters
        assert counters["signoff.samples"].value == 128
        assert counters["signoff.chunks_done"].value == 2
        assert "signoff.ci_width" in session.metrics.gauges
        kinds = {s.kind for s in session.tracer.spans}
        assert "signoff" in kinds
        assert "signoff_chunk" in kinds


class TestChunkFailureShape:
    def test_label(self):
        failure = ChunkFailure(chunk=3, start=192, stop=256,
                               error="boom")
        assert failure.label == "chunk[192:256)"


def test_exit_code_registered():
    from repro.errors import EXIT_CODES, exit_code_for
    assert exit_code_for(SignoffError("x")) == 32
    assert (SignoffError, 32) in EXIT_CODES
