"""Benchmark: characterization-as-a-service vs the batch CLI.

The server exists to amortize what the batch CLI pays on every
invocation — interpreter start, imports, cache open, executor spin-up
and the characterization itself.  This benchmark prices both paths for
the paper's Fig. 4c sweep:

* **cold CLI** — ``python -m repro --no-cache sweep`` in a fresh
  subprocess, the historical one-shot cost;
* **warm served** — the same sweep requested from a running
  :class:`~repro.serve.server.BrickServer` whose session cache is
  already warm (every repeat is a cache hit answered from the artifact
  store).

It asserts the served warm path is at least 5x faster than the cold
CLI, the floor the serving layer must hold.  perfbench's
``serve_mixed`` times requests only inside a running daemon, so it has
no twin for this ratio.
"""

import asyncio
import os
import subprocess
import sys
import threading
import time

from bench_util import print_table
from repro.perf.cache import CharacterizationCache
from repro.serve import BrickServer, ServeClient
from repro.session import Session
from repro.tech import cmos65

#: The serving layer must beat the cold CLI by at least this factor.
SPEEDUP_FLOOR = 5.0

SWEEP_PARAMS = {"total_words": 128, "bits": [8, 16, 32],
                "brick_words": [16, 32, 64]}

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _start_server(session):
    """Run one BrickServer on a daemon thread; returns it once bound."""
    server = BrickServer(session)
    ready = threading.Event()

    def run():
        async def main():
            await server.start()
            ready.set()
            await server._shutdown_event.wait()
            await server.drain()
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(20), "server failed to start"
    return server, thread


def _cold_cli_seconds(repeats=3):
    """Best-of wall clock of the full batch CLI path (fresh process,
    no cache): what one-shot invocations paid before the server."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "--no-cache", "sweep"],
            check=True, capture_output=True, cwd=_REPO_ROOT, env=env)
        best = min(best, time.perf_counter() - start)
    return best


def _warm_served_seconds(client, repeats=5):
    """Best-of round-trip for the already-computed sweep (cache hit +
    artifact-store lookup; includes the TCP round trip)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        client.sweep(**SWEEP_PARAMS)
        best = min(best, time.perf_counter() - start)
    return best


def test_serve_warm_beats_cold_cli():
    session = Session(cmos65(), cache=CharacterizationCache())
    server, thread = _start_server(session)
    try:
        with ServeClient(port=server.port) as client:
            start = time.perf_counter()
            client.sweep(**SWEEP_PARAMS)  # first request: cold compute
            first_request_s = time.perf_counter() - start
            warm_s = _warm_served_seconds(client)
            client.shutdown()
        thread.join(20)
    finally:
        session.close()

    cold_s = _cold_cli_seconds()
    speedup = cold_s / warm_s

    print_table(
        "characterization-as-a-service vs batch CLI (Fig. 4c sweep)",
        ("path", "wall clock", "notes"),
        [("cold CLI", f"{cold_s * 1e3:8.1f} ms",
          "fresh process, no cache"),
         ("served first", f"{first_request_s * 1e3:8.1f} ms",
          "daemon cold compute"),
         ("served warm", f"{warm_s * 1e3:8.1f} ms",
          f"cache hit, {speedup:.0f}x vs cold CLI")])
    assert speedup >= SPEEDUP_FLOOR, (
        f"serving layer regression: warm served path only "
        f"{speedup:.1f}x faster than the cold CLI "
        f"(floor {SPEEDUP_FLOOR:.0f}x)")
