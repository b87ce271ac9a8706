"""Stable content fingerprints for cache keys.

A characterization result is reusable exactly when every input that
influenced it is identical: the :class:`~repro.bricks.spec.BrickSpec`,
the full :class:`~repro.tech.technology.Technology` (a corner-derated or
Monte-Carlo-perturbed tech must *not* share entries with nominal), the
stack count and any extra sweep parameters.  Fingerprints therefore hash
the complete *content* of those objects — not their identity — through a
canonical encoding that is independent of process, dict insertion order
and ``PYTHONHASHSEED``.

Floats are encoded with ``float.hex()`` so the key distinguishes values
that differ in the last ulp; two technologies produce the same
fingerprint iff every electrical parameter is bit-identical, which is
precisely the condition under which reusing a characterization is sound.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, Optional

#: Version of the key schema.  Bump whenever the canonical encoding, the
#: cached payloads, or the characterization formulas change shape in a
#: way that makes old disk entries unsound to reuse.  Version 2: a cached
#: ``BrickPerformance`` carries ``brick_area_um2``.
KEY_SCHEMA_VERSION = 2

#: Per-call encoding memo: ``id(obj) -> pre-joined token substream``.
#: Sound only while every memoized object stays alive (the caller holds
#: references for the duration of the batch), so memos must never
#: outlive the call that created them.
EncodeMemo = Dict[int, str]

#: Instance attribute where a dataclass whose class sets
#: ``FINGERPRINT_MEMO = True`` keeps its own pre-joined substream for its
#: lifetime.  Such a class must be immutable all the way down and keep
#: the attribute out of its pickled state (see
#: :class:`repro.tech.technology.Technology`).
_OWN_STREAM = "_fingerprint_stream"

_SEP = "\x1f"


def _encode(obj: Any, out: list,
            memo: Optional[EncodeMemo] = None) -> None:
    """Append a canonical token stream for ``obj`` to ``out``.

    Token streams are prefix-free per type (every composite value emits
    an open token carrying its length), so distinct structures can never
    serialize to the same stream.  ``memo`` (when given) caches the
    substream of dataclass instances by identity, so a batch of keys
    sharing one big input — every estimate key embeds the same
    ``Technology`` — encodes it once instead of once per key.
    """
    if obj is None or isinstance(obj, (bool, int)):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(obj.hex())
    elif isinstance(obj, str):
        out.append(f"s{len(obj)}:{obj}")
    elif isinstance(obj, bytes):
        out.append(f"b{len(obj)}:")
        out.append(obj.hex())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        own = getattr(type(obj), "FINGERPRINT_MEMO", False)
        cached = obj.__dict__.get(_OWN_STREAM) if own else None
        if cached is None and memo is not None:
            cached = memo.get(id(obj))
        if cached is not None:
            out.append(cached)
            return
        sub: list = []
        fields = dataclasses.fields(obj)
        sub.append(f"D{type(obj).__qualname__}:{len(fields)}(")
        for f in sorted(fields, key=lambda f: f.name):
            sub.append(f.name)
            _encode(getattr(obj, f.name), sub, memo)
        sub.append(")")
        if own or memo is not None:
            # Joined with the stream separator, one memoized element
            # splices into the final join byte-identically to the
            # un-memoized multi-element stream.
            joined = _SEP.join(sub)
            if own:
                object.__setattr__(obj, _OWN_STREAM, joined)
            if memo is not None:
                memo[id(obj)] = joined
            out.append(joined)
        else:
            out.extend(sub)
    elif isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        out.append(f"M{len(items)}(")
        for key, value in items:
            _encode(key, out, memo)
            _encode(value, out, memo)
        out.append(")")
    elif isinstance(obj, (list, tuple)):
        out.append(f"L{len(obj)}(")
        for item in obj:
            _encode(item, out, memo)
        out.append(")")
    else:
        try:
            import numpy as np
            if isinstance(obj, np.ndarray):
                out.append(f"A{obj.shape}:{obj.dtype}:")
                out.append(obj.tobytes().hex())
                return
            if isinstance(obj, np.generic):
                _encode(obj.item(), out)
                return
        except ImportError:  # pragma: no cover - numpy is a hard dep
            pass
        raise TypeError(
            f"cannot fingerprint object of type {type(obj).__name__}: "
            f"{obj!r}")


def fingerprint(obj: Any, memo: Optional[EncodeMemo] = None) -> str:
    """Hex SHA-256 of the canonical encoding of ``obj``.

    Stable across processes and interpreter invocations: the encoding
    uses no dict insertion order and no ``hash()``; ``memo`` (an
    :data:`EncodeMemo`) only short-circuits re-encoding of objects
    already seen within the same batch, never changing the digest.
    """
    out: list = []
    _encode(obj, out, memo)
    digest = hashlib.sha256(_SEP.join(out).encode("utf-8"))
    return digest.hexdigest()


def cache_key(kind: str, *parts: Any,
              memo: Optional[EncodeMemo] = None) -> str:
    """A versioned cache key for an artifact of type ``kind``.

    ``parts`` are the artifact's inputs (specs, technologies, stack
    counts, sweep parameters); the schema version is folded in so stale
    on-disk entries from older encodings can never be returned.  Batch
    callers building many keys that share a large part (the technology)
    should pass one ``memo`` dict across the whole batch.
    """
    return fingerprint((KEY_SCHEMA_VERSION, kind, parts), memo=memo)
