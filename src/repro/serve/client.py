"""Synchronous client for the brick-library daemon.

A thin, dependency-free wrapper over one TCP connection: it frames
requests with :mod:`repro.serve.protocol`, matches replies by request
id, retries ``busy`` rejections honoring the server's
``retry_after_s`` pacing hint, and raises
:class:`~repro.errors.ServeError` for every other error reply —
carrying the wire error code as ``exc.code`` so callers can branch.

Transport failures are retried too: a refused connect backs off
exponentially up to ``connect_retries`` times, and a connection reset
mid-request reconnects and resends once — every request type is
idempotent (handlers are pure functions of the params over a
content-addressed store), so a long-running signoff client survives a
server restart instead of dying on the first ``ECONNRESET``.

The client renders nothing; ``repro client ...`` feeds the fetched
data dicts through the same renderers the local CLI uses, which is
what makes the two paths byte-identical.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional

from ..errors import ProtocolError, ServeError
from .protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION, decode_frame, \
    encode_frame

#: Default bound on ``busy`` retry attempts before giving up.
DEFAULT_BUSY_RETRIES = 20

#: Default bound on connect attempts (1 = no retry).
DEFAULT_CONNECT_RETRIES = 4

#: First connect-retry backoff; doubles per attempt.
CONNECT_BACKOFF_S = 0.1


class ServeClient:
    """One connection to a :class:`~repro.serve.server.BrickServer`.

    Usable as a context manager; the connection is opened lazily on
    first request so constructing a client is free.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout_s: float = 120.0,
                 busy_retries: int = DEFAULT_BUSY_RETRIES,
                 connect_retries: int = DEFAULT_CONNECT_RETRIES,
                 connect_backoff_s: float = CONNECT_BACKOFF_S,
                 tracer=None) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.busy_retries = busy_retries
        self.connect_retries = max(1, connect_retries)
        self.connect_backoff_s = connect_backoff_s
        #: Optional :class:`~repro.obs.trace.Tracer`: when set, every
        #: request runs under a ``request:<type>`` span whose context
        #: rides the frame's ``trace`` field — the server roots its
        #: spans under it, so the two traces stitch into one tree.
        self.tracer = tracer
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._counter = 0

    # --- connection -------------------------------------------------------

    def connect(self) -> "ServeClient":
        """Open the connection (retrying with exponential backoff).

        A server that is restarting refuses connections for a moment;
        up to ``connect_retries`` attempts are made, sleeping
        ``connect_backoff_s * 2**attempt`` between them, before the
        last ``OSError`` surfaces as a :class:`ServeError`.
        """
        if self._sock is not None:
            return self
        backoff = self.connect_backoff_s
        for attempt in range(self.connect_retries):
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s)
            except OSError as exc:
                if attempt + 1 >= self.connect_retries:
                    raise ServeError(
                        f"cannot connect to {self.host}:{self.port} "
                        f"after {self.connect_retries} attempt(s): "
                        f"{exc}") from exc
                time.sleep(backoff)
                backoff *= 2.0
            else:
                self._rfile = self._sock.makefile("rb")
                return self
        raise ServeError(  # pragma: no cover - loop always returns
            f"cannot connect to {self.host}:{self.port}")

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --- core request/reply -----------------------------------------------

    def _next_id(self) -> str:
        self._counter += 1
        return f"c{self._counter}"

    def _send_and_read(self, frame_out: Dict[str, Any]) -> bytes:
        self.connect()
        self._sock.sendall(encode_frame(frame_out))
        return self._rfile.readline(MAX_FRAME_BYTES + 2)

    def _roundtrip(self, frame_out: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame, read one reply; reconnect-and-resend once.

        A reset or half-closed socket (``OSError`` or an empty read)
        drops the dead connection and retries the request on a fresh
        one — :meth:`connect` supplies the backoff.  Only one resend:
        a second failure means the server is really gone.
        """
        last_exc: Optional[Exception] = None
        for attempt in range(2):
            try:
                line = self._send_and_read(frame_out)
            except OSError as exc:
                last_exc = exc
                self.close()
                continue
            if not line:
                last_exc = ServeError(
                    "server closed the connection")
                self.close()
                continue
            return decode_frame(line)
        raise ServeError(
            f"connection to {self.host}:{self.port} failed after "
            f"resend: {last_exc}") from last_exc

    def request(self, rtype: str,
                params: Optional[Dict[str, Any]] = None
                ) -> Dict[str, Any]:
        """One request -> the ``result`` dict of its ``ok`` reply.

        ``busy`` rejections are retried (sleeping the server's
        ``retry_after_s``) up to ``busy_retries`` times; any other
        error reply raises :class:`~repro.errors.ServeError` with the
        wire code attached as ``exc.code``.
        """
        if self.tracer is None:
            return self._request_inner(rtype, params, span=None)
        span = self.tracer.open(f"request:{rtype}", kind="request")
        ok = False
        try:
            result = self._request_inner(rtype, params, span)
            ok = True
            return result
        finally:
            self.tracer.close(span, ok=ok)

    def _request_inner(self, rtype: str,
                       params: Optional[Dict[str, Any]],
                       span) -> Dict[str, Any]:
        attempts = 0
        while True:
            request_id = self._next_id()
            frame = {
                "v": PROTOCOL_VERSION, "id": request_id,
                "type": rtype, "params": params or {}}
            if span is not None:
                span.attrs["request_id"] = request_id
                frame["trace"] = \
                    self.tracer.task_context(span).to_dict()
            reply = self._roundtrip(frame)
            if reply.get("id") != request_id:
                raise ProtocolError(
                    f"reply id {reply.get('id')!r} does not match "
                    f"request id {request_id!r}")
            if reply.get("ok"):
                result = reply.get("result")
                if not isinstance(result, dict):
                    raise ProtocolError(
                        f"ok reply carries no result object: {reply}")
                return result
            error = reply.get("error") or {}
            code = error.get("code", "internal")
            if code == "busy" and attempts < self.busy_retries:
                attempts += 1
                time.sleep(float(error.get("retry_after_s", 0.05)))
                continue
            exc = ServeError(f"{code}: "
                             f"{error.get('message', 'unknown error')}")
            exc.code = code
            raise exc

    # --- convenience wrappers ---------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def telemetry(self) -> Dict[str, Any]:
        """The live telemetry snapshot (latency percentiles, uptime,
        inflight, coalesce/cache hit rates, active work)."""
        return self.request("telemetry")

    def report(self) -> Dict[str, Any]:
        return self.request("report")

    def fetch(self, artifact: str) -> Any:
        """The stored payload behind an artifact id."""
        return self.request("fetch", {"artifact": artifact})["data"]

    def characterize(self, **params: Any) -> Dict[str, Any]:
        return self.request("characterize", params)

    def sweep(self, **params: Any) -> Dict[str, Any]:
        return self.request("sweep", params)

    def sweep_data(self, **params: Any) -> Dict[str, Any]:
        """Run/join a sweep and fetch its full point table."""
        summary = self.sweep(**params)
        data = self.fetch(summary["artifact"])
        data["artifact"] = summary["artifact"]
        return data

    def signoff(self, **params: Any) -> Dict[str, Any]:
        """Run (or join) a served Monte-Carlo statistical signoff."""
        return self.request("signoff", params)

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit."""
        return self.request("shutdown")
