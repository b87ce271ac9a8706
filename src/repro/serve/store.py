"""Artifact store: the stateful half of the stateless-handler design.

Request handlers never hold results across requests — everything they
produce lands here, addressed by a **fingerprint id** derived from the
content fingerprint of the request that produced it (the same digests
:mod:`repro.perf.fingerprint` uses for cache keys).  Responses inline
only a small summary plus the artifact id; a client that wants the full
payload issues a ``fetch`` request.  That keeps every response frame
bounded regardless of sweep size, makes replies to coalesced requests
trivially identical (same id, same stored payload), and gives repeated
requests an idempotent answer: re-running a sweep overwrites the same
artifact slot.

The store is a bounded LRU (like the characterization cache's memory
tier) so a long-lived daemon's footprint stays flat; evicted artifacts
are simply recomputed on the next request — the characterization cache
underneath still remembers the expensive parts.

Its counters are ``serve.store.{puts,hits,misses,evictions}`` in the
metrics registry it is given (the daemon session's), bumped under the
store's own lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional

from ..obs.metrics import MetricsRegistry

#: Default artifact capacity; artifacts are JSON-ready dicts of sweep
#: points or brick estimates, a few KB each.
DEFAULT_MAX_ARTIFACTS = 1024


class ArtifactStore:
    """Bounded, thread-safe, content-addressed result store.

    Thread-safe because handlers execute on the server's compute
    threads while ``fetch`` requests may race them from the event loop.
    """

    def __init__(self, max_artifacts: int = DEFAULT_MAX_ARTIFACTS,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_artifacts < 1:
            raise ValueError(
                f"max_artifacts must be >= 1, got {max_artifacts}")
        self.max_artifacts = max_artifacts
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._puts, self._hits, self._misses, self._evictions = (
            metrics.counter(f"serve.store.{name}") for name in
            ("puts", "hits", "misses", "evictions"))
        self._artifacts: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def artifact_id(kind: str, fingerprint: str) -> str:
        """The stable id of an artifact: its kind plus the content
        fingerprint of the request that produces it."""
        return f"{kind}:{fingerprint}"

    def put(self, kind: str, fingerprint: str, payload: Any) -> str:
        """Store ``payload`` under its fingerprint id; returns the id.

        Idempotent per id — two coalesced computations of the same
        request land in the same slot.
        """
        artifact_id = self.artifact_id(kind, fingerprint)
        with self._lock:
            self._puts.inc()
            self._artifacts[artifact_id] = payload
            self._artifacts.move_to_end(artifact_id)
            while len(self._artifacts) > self.max_artifacts:
                self._artifacts.popitem(last=False)
                self._evictions.inc()
        return artifact_id

    def get(self, artifact_id: str) -> Any:
        """The stored payload; raises ``KeyError`` when absent or
        evicted (the server maps that to a ``not_found`` reply)."""
        with self._lock:
            if artifact_id not in self._artifacts:
                self._misses.inc()
                raise KeyError(artifact_id)
            self._artifacts.move_to_end(artifact_id)
            self._hits.inc()
            return self._artifacts[artifact_id]

    def __contains__(self, artifact_id: str) -> bool:
        with self._lock:
            return artifact_id in self._artifacts

    def __len__(self) -> int:
        with self._lock:
            return len(self._artifacts)
