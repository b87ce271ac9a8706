"""The brick-library daemon: asyncio TCP front over one shared Session.

Characterization-as-a-service inverts the batch CLI's lifecycle:
instead of paying interpreter start, cache open and executor spin-up
per invocation, one long-lived :class:`BrickServer` owns a single
:class:`~repro.session.Session` — shared content-addressed cache, one
persistent :class:`~repro.perf.parallel.WorkerPool`, one tracer and
metrics registry — and serves NDJSON requests over TCP.  Repeated
requests are answered from the warm cache in microseconds; identical
*concurrent* requests collapse into one computation via the
:class:`~repro.serve.coalesce.RequestCoalescer`.

Concurrency model:

* the event loop only frames, validates, coalesces and replies — every
  handler runs on a small thread pool via ``run_in_executor`` (the
  thread then fans heavy points out over the session's process pool);
* each connection may have at most ``max_inflight`` requests running;
  beyond that the server answers immediately with a structured ``busy``
  error carrying ``retry_after_s`` — bounded queues, never unbounded
  buffering;
* writes to one connection are serialized by a per-connection lock so
  concurrent replies cannot interleave frames.

Shutdown (``SIGTERM``/``SIGINT`` or a ``shutdown`` request) drains
gracefully: the listener closes first, in-flight requests run to
completion and are answered, then connections close and the compute
pool and session shut down.
"""

from __future__ import annotations

import asyncio
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Set

from ..errors import ProtocolError, ReproError, ServeError, \
    failure_domain
from .handlers import ServeContext, coalesce_key, dispatch
from .protocol import MAX_FRAME_BYTES, Request, decode_frame, \
    encode_frame, error_reply, ok_reply, parse_request

#: Pacing hint sent with ``busy`` rejections.
BUSY_RETRY_AFTER_S = 0.1


class BrickServer:
    """One daemon instance: listener + context + compute threads.

    ``port=0`` binds an ephemeral port (the default for tests); the
    bound port is available as ``self.port`` after :meth:`start`.
    """

    def __init__(self, session, host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 8,
                 compute_threads: int = 8,
                 ops_log=None) -> None:
        if max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1, got {max_inflight}")
        self.ctx = ServeContext(session, ops_log=ops_log)
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.compute_threads = compute_threads
        self._server: Optional[asyncio.AbstractServer] = None
        self._compute: Optional[ThreadPoolExecutor] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._draining = False
        self._request_tasks: "Set[asyncio.Task]" = set()
        self._conn_tasks: "Set[asyncio.Task]" = set()
        self._writers: "Set[asyncio.StreamWriter]" = set()

    # --- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and prepare the compute tier."""
        self._shutdown_event = asyncio.Event()
        self._compute = ThreadPoolExecutor(
            max_workers=self.compute_threads,
            thread_name_prefix="repro-serve")
        # Materialize the session's persistent worker pool up front so
        # every handler thread shares the same warm executor.
        self.ctx.session.worker_pool()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port,
            limit=MAX_FRAME_BYTES + 2)
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Ask the serve loop to drain and exit (signal-handler safe)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def drain(self) -> None:
        """Graceful teardown: stop accepting, finish in-flight work,
        answer it, then close connections and the compute tier."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self._request_tasks:
            await asyncio.gather(*list(self._request_tasks),
                                 return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        while self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        if self._compute is not None:
            self._compute.shutdown(wait=True)

    async def run(self,
                  ready: Optional[Callable[["BrickServer"], None]]
                  = None) -> None:
        """Start, announce via ``ready(self)``, serve until a shutdown
        signal or request, then drain.  The caller owns the session's
        final ``close()``."""
        await self.start()
        if ready is not None:
            ready(self)
        loop = asyncio.get_running_loop()
        hooked = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-POSIX loop or a loop off the main thread (tests):
                # rely on shutdown requests instead of signals.
                pass
        try:
            await self._shutdown_event.wait()
        finally:
            for signum in hooked:
                loop.remove_signal_handler(signum)
            await self.drain()

    # --- connection handling ----------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        inflight: "Set[asyncio.Task]" = set()
        try:
            await self._connection_loop(reader, writer, write_lock,
                                        inflight)
        finally:
            # Let this client's in-flight replies land before closing.
            while inflight:
                await asyncio.gather(*list(inflight),
                                     return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            if task is not None:
                self._conn_tasks.discard(task)

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter,
                               write_lock: asyncio.Lock,
                               inflight: "Set[asyncio.Task]") -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # Line longer than the reader limit: the framing is
                # lost, so reject and drop the connection (only this
                # one — the daemon keeps serving everyone else).
                await self._send(writer, write_lock, error_reply(
                    "", "too_large",
                    f"frame exceeds {MAX_FRAME_BYTES} bytes"))
                return
            if not line:
                return  # EOF: client hung up
            if line.strip() == b"":
                continue
            frame: Optional[Dict[str, Any]] = None
            try:
                frame = decode_frame(line)
                request = parse_request(frame)
            except ProtocolError as exc:
                frame_id = ""
                if isinstance(frame, dict):
                    candidate = frame.get("id", "")
                    if isinstance(candidate, str):
                        frame_id = candidate
                await self._send(writer, write_lock, error_reply(
                    frame_id, getattr(exc, "code", "bad_request"),
                    str(exc)))
                continue
            if request.type == "shutdown":
                await self._send(writer, write_lock, ok_reply(
                    request.id, "shutdown", {"draining": True}))
                self.request_shutdown()
                continue
            if self._draining:
                await self._send(writer, write_lock, error_reply(
                    request.id, "shutting_down",
                    "server is draining"))
                continue
            if len(inflight) >= self.max_inflight:
                # Structured backpressure instead of unbounded
                # queueing: the client knows exactly when to retry.
                self.ctx.count("serve.busy_rejections")
                await self._send(writer, write_lock, error_reply(
                    request.id, "busy",
                    f"{len(inflight)} requests already in flight on "
                    f"this connection (limit {self.max_inflight})",
                    retry_after_s=BUSY_RETRY_AFTER_S))
                continue
            task = asyncio.ensure_future(
                self._process(request, writer, write_lock))
            inflight.add(task)
            self._request_tasks.add(task)
            task.add_done_callback(inflight.discard)
            task.add_done_callback(self._request_tasks.discard)

    # --- request processing ----------------------------------------------

    async def _process(self, request: Request,
                       writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock) -> None:
        reply = await self._reply_for(request)
        await self._send(writer, write_lock, reply)

    async def _reply_for(self, request: Request) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        ctx = self.ctx
        started = time.perf_counter()
        try:
            key = coalesce_key(request, ctx.session)
        except ReproError as exc:
            # Refused before the coalescer: nothing computed, but the
            # request still counts once, as an error of its type.
            ctx.record_request(request, time.perf_counter() - started,
                               ok=False, rejected=True)
            return _failure_reply(request.id, exc)
        coalesced = ctx.coalescer.is_inflight(key)

        async def compute() -> Dict[str, Any]:
            return await loop.run_in_executor(
                self._compute, dispatch, ctx, request)

        marks = ctx.cache_marks()
        ok = False
        ctx.track_inflight(request.type, +1)
        try:
            result = await ctx.coalescer.run(key, compute)
            ok = True
            return ok_reply(request.id, request.type, result)
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            return _failure_reply(request.id, exc)
        finally:
            ctx.track_inflight(request.type, -1)
            if coalesced:
                # The computing request was recorded inside dispatch();
                # waiters are recorded here so every request shows up
                # in the per-request log exactly once.
                ctx.record_request(
                    request, time.perf_counter() - started, ok=ok,
                    coalesced=True, cache_before=marks,
                    cache_after=ctx.cache_marks())

    async def _send(self, writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock,
                    reply: Dict[str, Any]) -> None:
        try:
            blob = encode_frame(reply)
        except ProtocolError as exc:
            # A result too large to frame inline degrades to an error
            # reply pointing the client at the artifact store.
            blob = encode_frame(error_reply(
                str(reply.get("id", "")), "too_large",
                f"reply exceeds frame limit; fetch by artifact id "
                f"({exc})"))
        async with write_lock:
            try:
                writer.write(blob)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client vanished mid-reply; nothing to salvage


def _failure_reply(request_id: str, exc: Exception) -> Dict[str, Any]:
    """The structured error reply for a request that raised ``exc``."""
    if isinstance(exc, KeyError):
        return error_reply(request_id, "not_found",
                           f"no artifact {exc.args[0]!r}")
    if isinstance(exc, ServeError):
        return error_reply(request_id, "bad_request", str(exc))
    if isinstance(exc, ReproError):
        return error_reply(request_id, "internal",
                           f"{failure_domain(exc)}: {exc}")
    return error_reply(request_id, "internal",
                       f"{type(exc).__name__}: {exc}")


def serve_forever(session, host: str = "127.0.0.1", port: int = 0,
                  max_inflight: int = 8,
                  ready: Optional[Callable[[BrickServer], None]]
                  = None, ops_log=None) -> None:
    """Blocking convenience wrapper: run one :class:`BrickServer` until
    it is told to shut down (the ``repro serve`` entry point)."""
    server = BrickServer(session, host=host, port=port,
                         max_inflight=max_inflight, ops_log=ops_log)
    asyncio.run(server.run(ready=ready))
