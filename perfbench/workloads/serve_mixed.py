"""serve_mixed: the characterization daemon under a mixed request load.

``repro --jobs 1 serve`` runs in its own process; two client threads of
this process each hold one connection and send their next request only
after the previous reply (closed loop).  A block is 40 requests in a
seeded order: 12 characterize repeats (answered warm), 6 characterize
of never-seen bricks (cold), 6 repeats of Fig-4c-sized sweeps, 4 novel
9-point sweeps, 11 fetches of stored artifacts and 1 novel 2000-sample
signoff.  The repeat share sets cache hits against misses and puts; the
signoffs are long enough to queue the other client behind them.

The mix is an assumption, not measured traffic: the repo holds no
recorded ``serve --ops-log`` trace to derive it from, and these shares
are unverified.  The reasons for each share:

* characterize, 18 of 40: the daemon's basic verb, so the largest
  share; two thirds repeats so most are answered warm, one third novel
  so cache misses and puts keep happening all run.
* sweep, 10 of 40: each is nine bricks' worth of work, so fewer than
  characterizations; repeats outnumber novel ones for the same reason.
* fetch, 11 of 40: about one per characterize/sweep pair, a client
  collecting an artifact it was handed earlier.
* signoff, 1 of 40: the longest request by far; one per block is
  enough to queue the other client behind it without its wall
  dominating the run.

Replace the shares with those of a recorded ops log once one exists.
"""

from __future__ import annotations

import contextlib
import os
import random
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.explore import engine as explore_engine
from repro.perf.cache import CharacterizationCache
from repro.serve import client as serve_client
from repro.serve import handlers
from repro.session import Session

from .. import harness
from .common import ready

#: This workload times its own set-up: daemon start to first ping.
SETUP_IN_RUN = True
START_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
CLIENTS = 2
BLOCK = {"characterize_warm": 12, "characterize_cold": 6,
         "sweep_warm": 6, "sweep_cold": 4, "fetch": 11, "signoff": 1}
#: Novel brick characterizations draw from this space (every point
#: compiles; 3780 points, far more than a run uses).
COLD_TYPES = ("6T", "8T", "DP")
COLD_WORDS = (8, 16, 32, 64, 128)
COLD_BITS = tuple(range(2, 65))
COLD_STACKS = (1, 2, 3, 4)
#: Repeated characterize requests: a fixed catalog, so every seed
#: repeats bricks of the same cost (the seed orders and picks them).
WARM_BRICKS = (("8T", 16, 10, 1), ("8T", 32, 12, 1), ("8T", 16, 10, 2),
               ("6T", 32, 8, 1), ("DP", 16, 16, 1), ("8T", 64, 32, 2))
WARM_SWEEPS = ({}, {"total_words": 256}, {"total_words": 512,
                                           "bits": [4, 12, 24]})
SIGNOFF_SAMPLES = 2000
#: Requests whose answers come from the daemon's cache or store.
WARM_KINDS = ("characterize_warm", "sweep_warm", "fetch")


def inputs(seed: int) -> Dict[str, Any]:
    """The warm catalog plus the seed for per-block request streams
    (see :func:`block_requests`)."""
    rng = random.Random(f"serve_mixed:{seed}")
    space = [(t, w, b, s) for t in COLD_TYPES for w in COLD_WORDS
             for b in COLD_BITS for s in COLD_STACKS]
    space = [spec for spec in space if spec not in WARM_BRICKS]
    rng.shuffle(space)
    warm = [dict(zip(("type", "words", "bits", "stack"), spec))
            for spec in WARM_BRICKS]
    return {"warm_bricks": warm, "warm_sweeps": list(WARM_SWEEPS),
            "cold_bricks": [list(spec) for spec in space],
            "stream_seed": rng.randrange(1 << 31)}


def _cold_sweep(j: int) -> Dict[str, Any]:
    """The ``j``-th novel 9-point sweep (distinct for j < 12800)."""
    return {"total_words": 64 * (1 + j % 32),
            "bits": [2 + (j // 32) % 20, 30 + (j // 640) % 20, 60],
            "brick_words": [16, 32, 64]}


def block_requests(data: Dict[str, Any], client: int, block: int
                   ) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Block ``block`` of client ``client``: ``(kind, type, params)``
    triples.  Fetch params name a warm artifact by catalog position."""
    rng = random.Random(f"{data['stream_seed']}:{client}:{block}")
    serial = block * CLIENTS + client
    requests: List[Tuple[str, str, Dict[str, Any]]] = []
    for _ in range(BLOCK["characterize_warm"]):
        requests.append(("characterize_warm", "characterize",
                         dict(rng.choice(data["warm_bricks"]))))
    for i in range(BLOCK["characterize_cold"]):
        spec = data["cold_bricks"][serial * BLOCK["characterize_cold"]
                                   + i]
        requests.append(("characterize_cold", "characterize",
                         dict(zip(("type", "words", "bits", "stack"),
                                  spec))))
    for _ in range(BLOCK["sweep_warm"]):
        requests.append(("sweep_warm", "sweep",
                         dict(rng.choice(data["warm_sweeps"]))))
    for i in range(BLOCK["sweep_cold"]):
        requests.append(("sweep_cold", "sweep",
                         _cold_sweep(serial * BLOCK["sweep_cold"] + i)))
    n_warm = len(data["warm_bricks"]) + len(data["warm_sweeps"])
    for _ in range(BLOCK["fetch"]):
        requests.append(("fetch", "fetch",
                         {"warm_index": rng.randrange(n_warm)}))
    for i in range(BLOCK["signoff"]):
        requests.append(("signoff", "signoff",
                         {"samples": SIGNOFF_SAMPLES,
                          "seed": data["stream_seed"] + serial + i}))
    rng.shuffle(requests)
    return requests


# --- the daemon -------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process started from the checkout."""

    def __init__(self, ctx: harness.Context) -> None:
        self.log = open(os.path.join(ctx.work_dir, "serve.log"), "ab")
        cpu = ctx.cpu
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--jobs", "1", "serve",
             "--port", "0"], env=ctx.child_env(),
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            preexec_fn=None if cpu is None else lambda: harness.pin({cpu}))
        self.port: Optional[int] = None

    def wait_ready(self) -> None:
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def client(self) -> serve_client.ServeClient:
        return serve_client.ServeClient(port=self.port, timeout_s=120.0)

    def stop(self) -> None:
        try:
            if self.proc.poll() is None and self.port is not None:
                with self.client() as cl:
                    cl.shutdown()
                self.proc.wait(timeout=START_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - fall back to killing it
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.log.close()


def _start(ctx: harness.Context) -> Tuple[Daemon, float]:
    """Start a daemon; seconds from process start to its first ping,
    less the time stolen from the daemon's CPU meanwhile."""
    stolen = harness.stolen_s(ctx.cpu)
    start = time.perf_counter()
    daemon = Daemon(ctx)
    try:
        daemon.wait_ready()
        with daemon.client() as cl:
            cl.ping()
    except BaseException:
        daemon.stop()
        raise
    return daemon, (time.perf_counter() - start
                    - (harness.stolen_s(ctx.cpu) - stolen))


# --- the load ---------------------------------------------------------------


class _Client(threading.Thread):
    """One closed-loop connection running blocks until the deadline."""

    def __init__(self, ctx, data, index, daemon, artifacts, deadline):
        super().__init__(name=f"client{index}")
        self.ctx, self.data, self.index = ctx, data, index
        self.daemon, self.artifacts = daemon, artifacts
        self.deadline = deadline
        #: (traced, kind, type, ms, ok) per request
        self.samples: List[Tuple[bool, str, str, float, bool]] = []
        self.replies: Dict[int, Any] = {}   # block 0 replies by position
        self.errors: List[str] = []
        self.exc: Optional[BaseException] = None

    def run(self) -> None:
        try:
            with self.daemon.client() as cl:
                self._loop(cl)
        except BaseException as exc:  # noqa: BLE001 - reported by main
            self.exc = exc

    def _loop(self, cl) -> None:
        ctx = self.ctx
        block = 0
        while block < 2 or time.perf_counter() < self.deadline:
            traced = ctx.trace and block % 2 == 1
            with ctx.round(traced, instrument=False) as tally:
                for pos, (kind, rtype, params) in enumerate(
                        block_requests(self.data, self.index, block)):
                    if rtype == "fetch":
                        params = {"artifact": self.artifacts[
                            params["warm_index"]]}
                    start = time.perf_counter()
                    ok = True
                    try:
                        with ctx.op(traced, key=kind):
                            reply = cl.request(rtype, params)
                    except ReproError as exc:
                        ok, reply = False, None
                        self.errors.append(f"{rtype} {params}: {exc}")
                    ms = (time.perf_counter() - start) * 1e3
                    self.samples.append((traced, kind, rtype, ms, ok))
                    tally["work"] += 1
                    if block == 0:
                        self.replies[pos] = (kind, rtype, params, reply)
            block += 1


def _local_check(tech, replies, cl) -> Tuple[int, int]:
    """Served characterize/sweep data vs the same computation done
    locally; returns (checked, mismatched).  Sweep tables are fetched
    again by re-sending the sweep (the store may have evicted the
    run's artifact)."""
    session = Session(tech, jobs=1, cache=CharacterizationCache())
    checked = bad = 0
    for kind, rtype, params, reply in replies:
        if reply is None or rtype not in ("characterize", "sweep"):
            continue
        if rtype == "characterize":
            local = handlers.brick_report_data(
                session, params.get("type", "8T"), params["words"],
                params["bits"], params["stack"])
            served = reply["data"]
        else:
            engine = explore_engine.SweepEngine(
                session,
                total_words_options=[params.get("total_words", 128)],
                bits_options=params.get("bits", (8, 16, 32)),
                brick_words_options=params.get("brick_words",
                                               (16, 32, 64)))
            local = handlers.sweep_report_data(
                engine.run().to_sweep_result())
            served = cl.sweep_data(**params)
            served.pop("artifact")
        checked += 1
        bad += harness.canonical(local) != harness.canonical(served)
    return checked, bad


def _telemetry_totals(tel: Dict[str, Any]) -> Dict[str, Tuple[int, float]]:
    return {rtype: (entry["hist"]["count"], entry["hist"]["total_s"])
            for rtype, entry in tel["requests"].items()}


def run(ctx: harness.Context, data: Dict[str, Any]) -> None:
    tech = ready().tech
    # The daemon gets the work CPU and this process (the clients) the
    # others; the reference kernel is timed by a process of its own on
    # the daemon's CPU.
    if ctx.cpu is not None:
        others = os.sched_getaffinity(0) - {ctx.cpu}
        if others:
            harness.pin(others)
    ctx.rescale["serve.protocol.frame_s"] = ("serve.protocol.frame_us",
                                             1e6)
    daemons: List[Daemon] = []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if daemons:
                daemons.pop().stop()
            daemon, seconds = _start(ctx)
            daemons.append(daemon)
            setups.append(seconds)
        ctx.setup_s = harness.median(setups)
        daemon = daemons[0]
        _load(ctx, data, daemon, tech)
    finally:
        for daemon in daemons:
            daemon.stop()


def _load(ctx, data, daemon, tech) -> None:
    report = ctx.report
    with daemon.client() as cl:
        artifacts = [cl.characterize(**p)["artifact"]
                     for p in data["warm_bricks"]]
        artifacts += [cl.sweep(**p)["artifact"]
                      for p in data["warm_sweeps"]]
        before = _telemetry_totals(cl.telemetry())
    # The kernel is timed on the daemon's CPU (``ctx.cpu``).
    with ctx.sampling(daemon.proc.pid):
        start = time.perf_counter()
        clients = [_Client(ctx, data, i, daemon, artifacts,
                           start + ctx.seconds) for i in range(CLIENTS)]
        # Both threads share one installation; untraced blocks open no
        # op, so the wrappers only pass calls through there.
        with (ctx.instrumentation if ctx.trace
              else contextlib.nullcontext()):
            for client in clients:
                client.start()
            for client in clients:
                client.join()
        wall = time.perf_counter() - start
    ctx.peak_rss = harness.peak_rss_mb(daemon.proc.pid)
    for client in clients:
        if client.exc is not None:
            raise client.exc
    with daemon.client() as cl:
        tel = cl.telemetry()
        stats = cl.stats()
        checked, bad = _local_check(
            tech, [r for c in clients for _, r in sorted(c.replies.items())],
            cl)
    after = _telemetry_totals(tel)

    samples = [s for c in clients for s in c.samples]
    for client in clients:
        for why in client.errors:
            report.op_done(False, why)
    for *_, ok in samples:
        if ok:
            report.op_done(True)
    report.check("serve.served_equals_local", checked > 0 and bad == 0,
                 f"{checked - bad}/{checked} characterize/sweep replies "
                 f"equal to local brick_report_data/sweep_report_data")

    untraced = [s for s in samples if not s[0]] or samples
    all_ms = [s[3] for s in untraced]
    warm_ms = [s[3] for s in untraced if s[1] in WARM_KINDS]
    completed = sum(1 for s in samples if s[4])
    rate = completed / wall
    p50, p95 = harness.median(all_ms), harness.quantile(all_ms, 0.95)
    report.metric("serve_req_per_s", rate, "1/s",
                  f"{completed} requests, {CLIENTS} closed-loop clients")
    report.metric("serve_ms_p50", p50, "ms", f"n={len(all_ms)}")
    report.metric("serve_ms_p95", p95, "ms",
                  f"n={len(all_ms)}, "
                  f"{harness.tail_room(len(all_ms), 0.95)} beyond")
    report.metric("serve_warm_ms_p50", harness.median(warm_ms), "ms",
                  f"n={len(warm_ms)} repeats and fetches")
    # Gated: the median block, and a request of the block's mix at each
    # type's median cost.  How the two clients' requests interleave on
    # the daemon moves the fastest block, and any one block's median
    # round trip, by up to 30 % between runs.
    size = sum(BLOCK.values())
    blocks = ctx.round_costs()
    ctx.gate(CLIENTS * size / harness.median(blocks),
             sum(count * ctx.cost(key=kind)
                 for kind, count in BLOCK.items()) / size,
             f"median of n={len(blocks)} blocks",
             f"medians of n={len(untraced)} requests, "
             f"{len(BLOCK)} types")
    first_blocks = {f"client{c.index}": [
        [kind, rtype, params, reply]
        for _, (kind, rtype, params, reply) in sorted(c.replies.items())]
        for c in clients}
    report.digest("serve.block0_replies", first_blocks,
                  "served data of each client's first block")

    for rtype in ("characterize", "sweep", "fetch", "signoff"):
        trips = [s[3] for s in samples if s[2] == rtype]
        n0, t0 = before.get(rtype, (0, 0.0))
        n1, t1 = after.get(rtype, (0, 0.0))
        if trips:
            trip = sum(trips) / len(trips)
            handler = (t1 - t0) / (n1 - n0) * 1e3 if n1 > n0 else 0.0
            ctx.layer(f"serve.roundtrip_ms.{rtype}", trip)
            ctx.layer(f"serve.handler_ms.{rtype}", handler)
            ctx.layer(f"serve.wait_ms.{rtype}", trip - handler)
    ctx.layer("serve.coalesce.hit_rate", tel["coalesce"]["hit_rate"])
    ctx.layer("serve.daemon.cache.hit_rate", tel["cache"]["hit_rate"])
    ctx.layer("serve.store.artifacts", stats["artifacts"])
    ctx.layer("serve.busy", stats["snapshot"]["counters"].get(
        "serve.busy_rejections", 0))
