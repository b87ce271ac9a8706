"""The content-addressed characterization cache (repro.perf)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro.bricks import sram_brick
from repro.perf import cache as cache_module
from repro.perf import (
    KEY_SCHEMA_VERSION,
    CharacterizationCache,
    cache_key,
    cached_estimate,
    cached_stdcell_library,
    characterize_cells,
    fingerprint,
)
from repro.session import Session
from repro.tech.corners import WORST


class TestFingerprint:
    def test_deterministic_within_process(self, tech):
        assert fingerprint(tech) == fingerprint(tech)
        spec = sram_brick(16, 10)
        assert fingerprint(spec) == fingerprint(sram_brick(16, 10))

    def test_distinguishes_specs(self):
        assert fingerprint(sram_brick(16, 10)) != \
            fingerprint(sram_brick(16, 11))
        assert fingerprint(sram_brick(16, 10)) != \
            fingerprint(sram_brick(10, 16))

    def test_distinguishes_technologies(self, tech):
        derated = WORST.apply(tech)
        assert fingerprint(tech) != fingerprint(derated)
        # An ulp-level change must change the key: reusing a
        # characterization across different electricals is unsound.
        import dataclasses
        nudged = dataclasses.replace(
            tech, r_on_n=tech.r_on_n * (1 + 1e-15))
        assert fingerprint(tech) != fingerprint(nudged)

    def test_dict_order_independent(self):
        assert fingerprint({"a": 1, "b": 2.5}) == \
            fingerprint({"b": 2.5, "a": 1})

    def test_type_confusion_resistant(self):
        assert fingerprint([1, 2]) != fingerprint([12])
        assert fingerprint(("ab",)) != fingerprint(("a", "b"))
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint("1") != fingerprint(1)

    def test_rejects_unfingerprintable(self):
        with pytest.raises(TypeError):
            fingerprint(lambda: None)

    def test_technology_memo_keeps_keys_byte_identical(self):
        """A technology keeps its encoding for its lifetime; the keys
        built from the memo are the ones disk caches already hold."""
        from repro.tech import cmos65
        spec = sram_brick(16, 10)
        for tech, want in (
                (cmos65(), "7ba9a2b7bcf9d45a72a133b589b746b5"
                           "3a9c4423c587225ca924901ed99b555d"),
                (WORST.apply(cmos65()), "d5f3ee7392be84a18639ebc67df87808"
                                        "9996a45222deeea6e82b9b7ff21d5ac1")):
            assert "_fingerprint_stream" not in tech.__dict__
            assert cache_key("estimate", spec, tech, 4) == want
            assert "_fingerprint_stream" in tech.__dict__
            assert cache_key("estimate", spec, tech, 4) == want
            assert cache_key("estimate", spec, tech, 4, memo={}) == want

    def test_technology_memo_not_pickled(self, tech):
        fingerprint(tech)
        clone = pickle.loads(pickle.dumps(tech))
        assert "_fingerprint_stream" not in clone.__dict__
        assert clone == tech
        assert fingerprint(clone) == fingerprint(tech)

    def test_technology_layers_read_only(self, tech):
        from repro.errors import TechnologyError
        layer = tech.layers["M1"]
        for mutate in (lambda d: d.__setitem__("M9", layer),
                       lambda d: d.__delitem__("M1"),
                       lambda d: d.update(M9=layer),
                       lambda d: d.pop("M1"),
                       lambda d: d.setdefault("M9", layer),
                       lambda d: d.clear()):
            for layers in (tech.layers,
                           pickle.loads(pickle.dumps(tech)).layers):
                with pytest.raises(TechnologyError, match="read-only"):
                    mutate(layers)
        assert set(tech.layers) >= {"M1", "M2", "M3"}
        assert tech.layers == dict(tech.layers)

    def test_key_includes_schema_version_and_kind(self, tech):
        spec = sram_brick(16, 10)
        assert cache_key("estimate", spec, tech, 2) != \
            cache_key("cellmodel", spec, tech, 2)

    def test_pinned_keys(self, tech):
        """Keys hash the spec, technology and stack (and a sweep plan's
        options), never derived models such as the ``Bitcell``: these
        digests predate the removal of its unread ``n_transistors``."""
        from repro.explore import SweepEngine
        assert cache_key("estimate", sram_brick(16, 10), tech, 4) == (
            "7ba9a2b7bcf9d45a72a133b589b746b5"
            "3a9c4423c587225ca924901ed99b555d")
        engine = SweepEngine(Session(tech, cache=CharacterizationCache()))
        assert engine.plan().fingerprint == (
            "db2b29ce816a3c905311baa5c907a7b0"
            "2e93ba43e86b6390eefdd446710223d5")

    def test_stable_across_processes(self, tech):
        """The core disk-cache soundness property: a fresh interpreter
        (fresh PYTHONHASHSEED, fresh dict order) derives the same key."""
        spec = sram_brick(16, 10)
        here = cache_key("estimate", spec, tech, 4)
        script = (
            "from repro.tech import cmos65\n"
            "from repro.bricks import sram_brick\n"
            "from repro.perf import cache_key\n"
            "print(cache_key('estimate', sram_brick(16, 10), "
            "cmos65(), 4))\n")
        import repro
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + \
            env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == here


class TestMemoryTier:
    def test_get_or_compute_caches(self):
        cache = CharacterizationCache()
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        again = cache.get_or_compute(
            "k", lambda: pytest.fail("recomputed"))
        assert value == again == 42
        assert len(calls) == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = CharacterizationCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)
        assert cache.stats.evictions == 1

    def test_disabled_cache_always_computes(self):
        cache = CharacterizationCache(enabled=False)
        calls = []
        cache.get_or_compute("k", lambda: calls.append(1) or 1)
        cache.get_or_compute("k", lambda: calls.append(1) or 1)
        assert len(calls) == 2
        assert cache.stats.hits == 0


class TestDiskTier:
    def test_round_trip(self, tech, tmp_path):
        spec = sram_brick(16, 10)
        writer = CharacterizationCache(cache_dir=str(tmp_path))
        est = cached_estimate(spec, tech, stack=2, cache=writer)
        assert writer.stats.bytes_written > 0
        # A second cache instance (fresh process's view) hits disk.
        reader = CharacterizationCache(cache_dir=str(tmp_path))
        est2 = cached_estimate(spec, tech, stack=2, cache=reader)
        assert reader.stats.disk_hits == 1
        assert pickle.dumps(est) == pickle.dumps(est2)

    def test_versioned_layout(self, tmp_path):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("deadbeef", {"x": 1})
        entry = tmp_path / f"v{KEY_SCHEMA_VERSION}" / "deadbeef.pkl"
        assert entry.exists()

    def test_corrupt_file_is_miss_not_crash(self, tmp_path):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("key1", [1, 2, 3])
        entry = tmp_path / f"v{KEY_SCHEMA_VERSION}" / "key1.pkl"
        entry.write_bytes(b"not a pickle \x00\x01garbage")
        fresh = CharacterizationCache(cache_dir=str(tmp_path))
        found, _ = fresh.get("key1")
        assert not found
        assert fresh.stats.disk_errors == 1
        assert not entry.exists()  # bad entry dropped for rewrite
        # And get_or_compute recovers transparently.
        assert fresh.get_or_compute("key1", lambda: "recomputed") == \
            "recomputed"

    def test_truncated_file_is_miss(self, tmp_path):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("key2", list(range(1000)))
        entry = tmp_path / f"v{KEY_SCHEMA_VERSION}" / "key2.pkl"
        entry.write_bytes(entry.read_bytes()[:10])
        fresh = CharacterizationCache(cache_dir=str(tmp_path))
        assert fresh.get("key2") == (False, None)

    def test_unwritable_dir_degrades_to_memory(self, tech, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = CharacterizationCache(cache_dir=str(blocked))
        est = cached_estimate(sram_brick(8, 8), tech, cache=cache)
        assert est.read_delay > 0
        assert cache.stats.disk_errors >= 1
        assert cache.stats.memory_hits == 0
        # memory tier still works
        cached_estimate(sram_brick(8, 8), tech, cache=cache)
        assert cache.stats.memory_hits == 1


class TestQuarantine:
    """Bad disk entries are moved aside, reported, and recomputed."""

    def _seed_entry(self, tmp_path, key="badkey", value=(1, 2, 3)):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put(key, value)
        return tmp_path / f"v{KEY_SCHEMA_VERSION}" / f"{key}.pkl"

    def test_truncated_pickle_quarantined_and_recomputed(self, tmp_path):
        entry = self._seed_entry(tmp_path)
        entry.write_bytes(entry.read_bytes()[:7])
        events = []
        fresh = CharacterizationCache(
            cache_dir=str(tmp_path),
            on_quarantine=lambda key, dest, reason:
            events.append((key, dest, reason)))
        assert fresh.get_or_compute("badkey", lambda: "fresh") == "fresh"
        assert fresh.stats.quarantined == 1
        (key, dest, reason), = events
        assert key == "badkey"
        # Evidence preserved for post-mortems.
        assert os.path.dirname(dest).endswith("quarantine")
        assert os.path.exists(dest)
        # The recomputed value was written back cleanly.
        assert CharacterizationCache(
            cache_dir=str(tmp_path)).get("badkey") == (True, "fresh")

    def test_bad_fingerprint_version_quarantined(self, tmp_path):
        entry = self._seed_entry(tmp_path)
        # Forge a well-formed pickle carrying a foreign schema version.
        entry.write_bytes(
            pickle.dumps((KEY_SCHEMA_VERSION + 1, "stale value")))
        events = []
        fresh = CharacterizationCache(
            cache_dir=str(tmp_path),
            on_quarantine=lambda key, dest, reason:
            events.append(reason))
        found, _ = fresh.get("badkey")
        assert not found
        assert fresh.stats.quarantined == 1
        assert events == ["bad fingerprint schema version"]
        assert not entry.exists()

    def test_unreadable_entry_quarantined(self, tmp_path, monkeypatch):
        entry = self._seed_entry(tmp_path)
        # chmod 000 is not enough under root, so deny at the syscall
        # boundary: reads of this entry raise PermissionError.
        import builtins
        real_open = builtins.open

        def denying_open(path, *args, **kwargs):
            if os.fspath(path) == str(entry):
                raise PermissionError(13, "Permission denied",
                                      str(entry))
            return real_open(path, *args, **kwargs)

        from repro.perf import cache as cache_module
        monkeypatch.setattr(cache_module, "open", denying_open,
                            raising=False)
        fresh = CharacterizationCache(cache_dir=str(tmp_path))
        assert fresh.get_or_compute("badkey", lambda: 42) == 42
        assert fresh.stats.quarantined == 1
        assert fresh.stats.disk_errors >= 1

    def test_quarantine_names_never_collide(self, tmp_path):
        entry = self._seed_entry(tmp_path)
        for round_ in range(3):
            entry.write_bytes(b"garbage %d" % round_)
            fresh = CharacterizationCache(cache_dir=str(tmp_path))
            assert fresh.get("badkey") == (False, None)
            fresh.put("badkey", round_)  # rewrite for the next round
        quarantined = sorted(
            p.name for p in (tmp_path / "quarantine").iterdir())
        assert len(quarantined) == 3  # all three kept as evidence


class TestTypedGet:
    """``get(key, expect=...)``: checkpoint reads reject payloads of a
    foreign type (a half-written or cross-wired entry) instead of
    handing them to a consumer that would crash on them."""

    def test_matching_type_is_a_hit(self, tmp_path):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("k", (1, 2, 3))
        assert cache.get("k", expect=tuple) == (True, (1, 2, 3))
        assert cache.get("k", expect=(list, tuple)) == \
            (True, (1, 2, 3))

    def test_untyped_get_unchanged(self, tmp_path):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("k", "anything")
        assert cache.get("k") == (True, "anything")

    def test_wrong_type_on_disk_quarantined(self, tmp_path):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("k", "a string, not a dict")
        events = []
        fresh = CharacterizationCache(
            cache_dir=str(tmp_path),
            on_quarantine=lambda key, dest, reason:
            events.append((key, reason)))
        assert fresh.get("k", expect=dict) == (False, None)
        assert fresh.stats.quarantined == 1
        (key, reason), = events
        assert key == "k"
        assert "unexpected payload type str" in reason
        # The entry is gone; the next put/get cycle works cleanly.
        fresh.put("k", {"fresh": True})
        assert fresh.get("k", expect=dict) == (True, {"fresh": True})

    def test_wrong_type_in_memory_evicted(self):
        cache = CharacterizationCache()  # memory-only
        cache.put("k", "wrong")
        assert cache.get("k", expect=dict) == (False, None)
        # Evicted outright, not just skipped: an untyped read must not
        # resurrect the poisoned value either.
        assert cache.get("k") == (False, None)

    def test_truncated_checkpoint_is_typed_miss(self, tmp_path):
        """A reader killed mid-write leaves a truncated pickle; the
        typed read quarantines it and reports a clean miss."""
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("ckpt", {"chunk": 7, "data": list(range(100))})
        entry = tmp_path / f"v{KEY_SCHEMA_VERSION}" / "ckpt.pkl"
        entry.write_bytes(entry.read_bytes()[:10])
        fresh = CharacterizationCache(cache_dir=str(tmp_path))
        assert fresh.get("ckpt", expect=dict) == (False, None)
        assert fresh.stats.quarantined == 1
        assert not entry.exists()
        assert list((tmp_path / "quarantine").iterdir())


class TestCachedArtifacts:
    def test_cached_estimate_identical(self, tech):
        cache = CharacterizationCache()
        spec = sram_brick(16, 10)
        one = cached_estimate(spec, tech, stack=4, cache=cache)
        two = cached_estimate(spec, tech, stack=4, cache=cache)
        assert one is two  # memory tier returns the same artifact

    def test_different_stack_different_entry(self, tech):
        cache = CharacterizationCache()
        spec = sram_brick(16, 10)
        a = cached_estimate(spec, tech, stack=1, cache=cache)
        b = cached_estimate(spec, tech, stack=8, cache=cache)
        assert a.read_delay != b.read_delay
        assert cache.stats.misses >= 2

    def test_corner_tech_not_aliased(self, tech):
        cache = CharacterizationCache()
        spec = sram_brick(16, 10)
        nominal = cached_estimate(spec, tech, stack=1, cache=cache)
        worst = cached_estimate(spec, WORST.apply(tech), stack=1,
                                cache=cache)
        assert worst.read_delay > nominal.read_delay

    def test_characterize_cells_matches_direct(self, tech):
        from repro.bricks import brick_cell_model, compile_brick
        session = Session(tech, cache=CharacterizationCache())
        spec = sram_brick(16, 10)
        via_cache, = characterize_cells([(spec, 2)], session)
        direct = brick_cell_model(
            compile_brick(spec, tech, target_stack=2), tech, stack=2)
        assert pickle.dumps(via_cache) == pickle.dumps(direct)

    def test_cached_stdcell_library_isolated_container(self, tech):
        cache = CharacterizationCache()
        lib1 = cached_stdcell_library(tech, cache=cache)
        n = len(lib1)
        # Mutating the returned container must not pollute the cache.
        lib1.cells.pop(next(iter(lib1.cells)))
        lib2 = cached_stdcell_library(tech, cache=cache)
        assert len(lib2) == n


class TestSessionCache:
    def test_each_session_owns_its_cache(self, tech):
        one, two = Session(tech), Session(tech)
        assert isinstance(one.cache, CharacterizationCache)
        assert one.cache is not two.cache
        assert one.derive(jobs=2).cache is one.cache

    def test_generate_brick_library_uses_session_cache(self, tech):
        from repro.bricks import generate_brick_library
        session = Session(tech)
        requests = [(sram_brick(16, 10), 2)]
        generate_brick_library(requests, session)
        before = session.cache.stats.hits
        generate_brick_library(requests, session)
        assert session.cache.stats.hits > before


class TestWriterLock:
    """The fcntl writer lock serializing disk mutations (with stale-lock
    recovery), so concurrent clients of one cache_dir never interleave
    an entry write with a quarantine move of the same file."""

    pytestmark = pytest.mark.skipif(
        cache_module.fcntl is None,
        reason="platform has no fcntl (no writer lock to test)")

    def _hold_lock(self, tmp_path, hold_s=0.0):
        """Grab the writer lock out-of-band, as a hung holder would.

        flock contends between two file descriptors even in one
        process, so this stands in for a second client exactly.
        Returns ``(fd, release)``; release after ``hold_s`` when > 0.
        """
        import fcntl
        import threading
        lock_path = (tmp_path / f"v{KEY_SCHEMA_VERSION}"
                     / ".writer.lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(lock_path), os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(fd, fcntl.LOCK_EX)

        def release():
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

        if hold_s > 0:
            timer = threading.Timer(hold_s, release)
            timer.start()
            return fd, timer.join
        return fd, release

    def test_lock_file_lives_inside_versioned_dir(self, tmp_path):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("k", 1)
        assert (tmp_path / f"v{KEY_SCHEMA_VERSION}"
                / ".writer.lock").exists()

    def test_uncontended_write_takes_lock_silently(self, tmp_path):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("k", "value")
        assert cache.stats.lock_contended == 0
        assert cache.stats.lock_timeouts == 0
        assert cache.get("k") == (True, "value")

    def test_briefly_held_lock_is_waited_out(self, tmp_path):
        # A healthy concurrent writer: we block, it releases, we write
        # locked.  Counted as contention, NOT as a timeout.
        _, join = self._hold_lock(tmp_path, hold_s=0.05)
        cache = CharacterizationCache(cache_dir=str(tmp_path),
                                      lock_timeout_s=5.0)
        cache.put("k", "waited")
        join()
        assert cache.stats.lock_contended == 1
        assert cache.stats.lock_timeouts == 0
        assert CharacterizationCache(
            cache_dir=str(tmp_path)).get("k") == (True, "waited")

    def test_stale_lock_broken_after_timeout(self, tmp_path):
        # A hung holder never releases: the write degrades to unlocked
        # (still atomic-replace) and the lock file is unlinked so later
        # writers start fresh instead of queueing behind the zombie.
        _, release = self._hold_lock(tmp_path)
        try:
            cache = CharacterizationCache(cache_dir=str(tmp_path),
                                          lock_timeout_s=0.05)
            cache.put("k", "degraded")
            assert cache.stats.lock_contended == 1
            assert cache.stats.lock_timeouts == 1
            assert not (tmp_path / f"v{KEY_SCHEMA_VERSION}"
                        / ".writer.lock").exists()
            assert cache.get("k") == (True, "degraded")
            # The next writer recreates a fresh lock and locks cleanly.
            cache.put("k2", 2)
            assert cache.stats.lock_timeouts == 1
        finally:
            release()

    def test_concurrent_writers_all_land(self, tmp_path):
        import threading
        caches = [CharacterizationCache(cache_dir=str(tmp_path))
                  for _ in range(4)]
        barrier = threading.Barrier(len(caches))
        errors = []

        def write(index, cache):
            try:
                barrier.wait()
                for round_ in range(10):
                    cache.put(f"k{index}_{round_}",
                              {"writer": index, "round": round_})
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(i, c))
                   for i, c in enumerate(caches)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        fresh = CharacterizationCache(cache_dir=str(tmp_path))
        for index in range(len(caches)):
            for round_ in range(10):
                assert fresh.get(f"k{index}_{round_}") == (
                    True, {"writer": index, "round": round_})
        assert sum(c.stats.lock_timeouts for c in caches) == 0

    def test_quarantine_waits_for_writer_lock(self, tmp_path):
        # The race the lock exists for: quarantining a corrupt entry
        # while another client holds the writer lock.  The move must
        # wait for the healthy writer, not interleave with it.
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("badkey", "seed")
        entry = tmp_path / f"v{KEY_SCHEMA_VERSION}" / "badkey.pkl"
        entry.write_bytes(b"garbage")
        _, join = self._hold_lock(tmp_path, hold_s=0.05)
        reader = CharacterizationCache(cache_dir=str(tmp_path),
                                       lock_timeout_s=5.0)
        assert reader.get("badkey") == (False, None)
        join()
        assert reader.stats.quarantined == 1
        assert reader.stats.lock_contended == 1
        assert reader.stats.lock_timeouts == 0
        assert not entry.exists()
        assert list((tmp_path / "quarantine").iterdir())

    def test_flush_is_noop_for_memory_only_cache(self):
        cache = CharacterizationCache()  # no cache_dir
        cache.put("k", 1)
        cache.flush()  # must not raise or touch the filesystem
        assert cache.get("k") == (True, 1)

    def test_flush_syncs_existing_dir(self, tmp_path):
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        cache.put("k", 1)
        cache.flush()
        cache.flush()  # idempotent
        assert cache.get("k") == (True, 1)
