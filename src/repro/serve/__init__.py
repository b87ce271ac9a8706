"""Characterization-as-a-service: the brick-library daemon.

The batch CLI pays interpreter start, cache open and executor spin-up
on every invocation; :mod:`repro.serve` keeps all of that warm in one
long-running process.  The package splits cleanly along the request
path::

    client -> protocol -> server -> coalesce -> handlers -> store
                                       |            |
                                       +-- Session -+   (shared cache,
                                                         worker pool,
                                                         tracer/metrics)

* :mod:`~repro.serve.protocol` — versioned NDJSON frames over TCP;
* :mod:`~repro.serve.server` — the asyncio daemon (bounded per-client
  concurrency, ``busy`` backpressure, graceful drain);
* :mod:`~repro.serve.coalesce` — identical concurrent requests share
  one computation;
* :mod:`~repro.serve.handlers` — stateless request handlers plus the
  report builders/renderers the CLI shares for byte-identical output;
* :mod:`~repro.serve.store` — bounded content-addressed artifact store
  (big payloads are fetched by id, never inlined);
* :mod:`~repro.serve.client` — the synchronous client behind
  ``repro client``.
"""

from .client import ServeClient
from .coalesce import RequestCoalescer
from .handlers import (
    ServeContext,
    brick_report_data,
    coalesce_key,
    dispatch,
    render_brick_report,
    render_sweep_table,
    sweep_report_data,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    Request,
    decode_frame,
    encode_frame,
    error_reply,
    ok_reply,
    parse_request,
)
from .server import BrickServer, serve_forever
from .store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "BrickServer",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_TYPES",
    "Request",
    "RequestCoalescer",
    "ServeClient",
    "ServeContext",
    "brick_report_data",
    "coalesce_key",
    "decode_frame",
    "dispatch",
    "encode_frame",
    "error_reply",
    "ok_reply",
    "parse_request",
    "render_brick_report",
    "render_sweep_table",
    "serve_forever",
    "sweep_report_data",
]
