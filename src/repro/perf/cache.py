"""Content-addressed characterization cache.

Two tiers:

* an **in-memory LRU** (always on) holding the most recently used
  artifacts of this process — repeated specs inside one sweep or flow hit
  this tier in microseconds;
* an optional **on-disk tier** (``cache_dir``) that persists artifacts
  across processes and sessions.  Entries live under a
  ``v<KEY_SCHEMA_VERSION>/`` subdirectory so a schema bump silently
  orphans (never mis-reads) old entries, payloads carry the schema
  version in-band as a second guard, and writes are atomic
  (temp file + ``os.replace``).  The directory is always safe to
  delete wholesale.

A corrupted, truncated, wrong-schema or unreadable entry is
**quarantined**, never silently tolerated: the bad file is moved aside
into ``<cache_dir>/quarantine/`` (preserving the evidence for
post-mortems), the :attr:`CacheStats.quarantined` counter increments,
an optional ``on_quarantine`` hook fires, and the lookup proceeds as a
miss so the value is recomputed and rewritten cleanly.

Statistics (hits per tier, misses, evictions, quarantines, bytes moved)
are kept per cache instance and exposed via
:attr:`CharacterizationCache.stats`.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

try:  # POSIX advisory file locking; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from .fingerprint import KEY_SCHEMA_VERSION

#: Default capacity of the in-memory LRU tier.  Artifacts are small
#: (a CellModel is a few kilobytes of tuples) so this comfortably covers
#: the largest sweeps while bounding a long-running service's footprint.
DEFAULT_MAX_ENTRIES = 4096


@dataclass
class CacheStats:
    """Counters for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_errors: int = 0
    quarantined: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    lock_contended: int = 0
    lock_timeouts: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "disk_errors": self.disk_errors,
            "quarantined": self.quarantined,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "lock_contended": self.lock_contended,
            "lock_timeouts": self.lock_timeouts,
            "hit_rate": self.hit_rate,
        }


class CharacterizationCache:
    """LRU memory tier over an optional on-disk tier, keyed by
    content fingerprints (see :mod:`repro.perf.fingerprint`).

    Thread-safe; the disk layout is also safe for concurrent processes
    (atomic replace, corrupt-file tolerance), which is what lets pool
    workers share one ``cache_dir``.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 cache_dir: Optional[str] = None,
                 enabled: bool = True,
                 on_quarantine: Optional[
                     Callable[[str, str, str], None]] = None,
                 lock_timeout_s: float = 5.0) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.cache_dir = os.fspath(cache_dir) if cache_dir else None
        self.enabled = enabled
        #: How long a disk write waits for the writer lock before
        #: degrading to an unlocked (still atomic-replace) write.
        self.lock_timeout_s = lock_timeout_s
        #: Called as ``on_quarantine(key, quarantine_path, reason)``
        #: whenever a bad disk entry is moved aside.
        self.on_quarantine = on_quarantine
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # Event sinks (weakly held) receiving a FaultEvent per
        # quarantine, so a Session sink sees absorbed cache corruption
        # alongside pipeline/sweep/executor faults.  Weak references
        # keep the short-lived sessions sharing one cache (derived
        # children, per-request serve sessions) from accumulating dead
        # listeners on it.
        self._fault_sinks: "weakref.WeakSet" = weakref.WeakSet()

    def add_fault_sink(self, sink: Callable[[Any], None]) -> None:
        """Register an event sink for quarantine FaultEvents.

        Idempotent per sink object; the reference is weak, so dropping
        the sink unregisters it automatically.  Sinks that cannot be
        weakly referenced are silently skipped (the ``on_quarantine``
        hook remains the strong-reference alternative).
        """
        try:
            self._fault_sinks.add(sink)
        except TypeError:
            pass

    # --- disk tier --------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"v{KEY_SCHEMA_VERSION}",
                            f"{key}.pkl")

    def _lock_path(self) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"v{KEY_SCHEMA_VERSION}",
                            ".writer.lock")

    @contextmanager
    def _write_lock(self):
        """Serialize disk mutations across threads *and* processes.

        An ``fcntl.flock`` on ``v<N>/.writer.lock`` guards every entry
        write and quarantine move, so two clients flushing the same key
        can never interleave (and a writer can never race a concurrent
        quarantine of the file it is replacing).  Stale-lock recovery
        comes in two tiers: a crashed holder's flock is released by the
        kernel automatically, and a *hung* holder is waited on only for
        ``lock_timeout_s`` — on timeout the lock file is unlinked (so
        future writers start a fresh lock instead of queueing behind the
        zombie) and this write proceeds unlocked, which is still safe
        for readers because the entry itself is replaced atomically.
        Platforms without ``fcntl`` take the unlocked path.
        """
        if self.cache_dir is None or fcntl is None:
            yield False
            return
        path = self._lock_path()
        fd = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            yield False
            return
        locked = False
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                locked = True
            except OSError:
                self.stats.lock_contended += 1
                deadline = time.monotonic() + self.lock_timeout_s
                while time.monotonic() < deadline:
                    time.sleep(0.005)
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        locked = True
                        break
                    except OSError:
                        continue
                if not locked:
                    # The holder is alive but hung: break its lock for
                    # everyone after us and degrade this write.
                    self.stats.lock_timeouts += 1
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            yield locked
        finally:
            if fd is not None:
                if locked:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_UN)
                    except OSError:
                        pass
                os.close(fd)

    def _quarantine(self, key: str, path: str, reason: str) -> None:
        """Move a bad entry aside (never silently tolerate corruption).

        The file lands in ``<cache_dir>/quarantine/`` under a unique
        name so repeated corruption of the same key never overwrites
        earlier evidence; if the move itself fails the entry is deleted,
        and if even that fails the entry is left for the next process
        (it will re-quarantine).  Either way the lookup is a miss and
        the value is recomputed.
        """
        self.stats.disk_errors += 1
        self.stats.quarantined += 1
        dest = ""
        try:
            qdir = os.path.join(self.cache_dir, "quarantine")
            os.makedirs(qdir, exist_ok=True)
            base = os.path.basename(path)
            with self._write_lock():
                dest = os.path.join(qdir, base)
                serial = 0
                while os.path.exists(dest):
                    serial += 1
                    dest = os.path.join(qdir, f"{base}.{serial}")
                os.replace(path, dest)
        except OSError:
            dest = ""
            try:
                os.remove(path)
            except OSError:
                pass
        if self.on_quarantine is not None:
            self.on_quarantine(key, dest, reason)
        sinks = list(self._fault_sinks)
        if sinks:
            # Deferred import: repro.session imports this module.
            from ..session import FaultEvent
            event = FaultEvent(
                domain="cache", name=key, error=reason, recovered=True,
                detail={"quarantine_path": dest})
            for sink in sinks:
                sink(event)

    def _disk_read(self, key: str) -> Tuple[bool, Any]:
        if self.cache_dir is None:
            return False, None
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            envelope = pickle.loads(blob)
        except FileNotFoundError:
            return False, None
        except Exception as exc:
            # Corrupted, truncated or unreadable entry: quarantine it
            # and treat the lookup as a miss, never a crash.
            self._quarantine(key, path,
                             f"{type(exc).__name__}: {exc}")
            return False, None
        # Payloads are written as (schema_version, value); anything else
        # — including a raw pre-envelope value or a foreign version —
        # is unsound to reuse and gets quarantined like corruption.
        if (not isinstance(envelope, tuple) or len(envelope) != 2
                or envelope[0] != KEY_SCHEMA_VERSION):
            self._quarantine(key, path, "bad fingerprint schema version")
            return False, None
        self.stats.bytes_read += len(blob)
        return True, envelope[1]

    def _disk_write(self, key: str, value: Any) -> None:
        if self.cache_dir is None:
            return
        path = self._entry_path(key)
        try:
            blob = pickle.dumps((KEY_SCHEMA_VERSION, value),
                                protocol=pickle.HIGHEST_PROTOCOL)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with self._write_lock():
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                           suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(blob)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.remove(tmp)
                    except OSError:
                        pass
                    raise
        except Exception:
            # A full disk or unpicklable payload degrades to memory-only
            # caching; characterization must never fail because of it.
            self.stats.disk_errors += 1
            return
        self.stats.bytes_written += len(blob)

    # --- public API -------------------------------------------------------

    def get(self, key: str, expect: Any = None) -> Tuple[bool, Any]:
        """Return ``(found, value)`` without computing anything.

        ``expect`` (a type or tuple of types) hardens checkpoint
        reads: a hit whose value is not an instance is treated exactly
        like corruption — the disk entry is quarantined, the memory
        entry evicted, and the lookup is a miss — so a resume over a
        poisoned checkpoint recomputes the chunk instead of crashing
        (or worse, silently reducing garbage).
        """
        if not self.enabled:
            self.stats.misses += 1
            return False, None
        with self._lock:
            if key in self._memory:
                value = self._memory[key]
                if expect is None or isinstance(value, expect):
                    self._memory.move_to_end(key)
                    self.stats.memory_hits += 1
                    return True, value
                del self._memory[key]
        found, value = self._disk_read(key)
        if found:
            if expect is not None and not isinstance(value, expect):
                self._quarantine(
                    key, self._entry_path(key),
                    f"unexpected payload type "
                    f"{type(value).__name__}")
                self.stats.misses += 1
                return False, None
            self.stats.disk_hits += 1
            self._memory_put(key, value)
            return True, value
        self.stats.misses += 1
        return False, None

    def _memory_put(self, key: str, value: Any) -> None:
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    def put(self, key: str, value: Any) -> None:
        """Insert into both tiers (no-op when disabled)."""
        if not self.enabled:
            return
        self.stats.puts += 1
        self._memory_put(key, value)
        self._disk_write(key, value)

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """The memoization workhorse: lookup, else compute and insert."""
        found, value = self.get(key)
        if found:
            return value
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left untouched)."""
        with self._lock:
            self._memory.clear()

    def flush(self) -> None:
        """Durability barrier for the disk tier.

        Entry writes are synchronous (each ``put`` lands its file before
        returning), so flushing means syncing the *directory* metadata:
        after this returns, every completed write survives a crash of
        the machine, not just of the process.  A no-op for memory-only
        caches; called by :meth:`repro.session.Session.close`.
        """
        if self.cache_dir is None:
            return
        vdir = os.path.join(self.cache_dir, f"v{KEY_SCHEMA_VERSION}")
        try:
            fd = os.open(vdir, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync-on-dir unsupported
            pass
        finally:
            os.close(fd)

    def __len__(self) -> int:
        return len(self._memory)
