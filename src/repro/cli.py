"""Command-line interface to the LiM synthesis flow.

Exposes the paper's workflow as subcommands::

    python -m repro brick --type 8T --words 16 --bits 10 --stack 4
    python -m repro library --out bricks.lib 16x10x2 32x12x1
    python -m repro sram --words 128 --bits 10 --brick-words 16 \\
                         --partitions 4 --seed 7 --verilog out.v
    python -m repro sweep --total-words 128 --bits 8 16 32
    python -m repro spgemm --scale small
    python -m repro testchip --configs A B E --chips 3

Every subcommand prints the same reports the examples and benchmarks
produce, so the flow is scriptable without writing Python.

Each invocation builds one :class:`~repro.session.Session` from the
global flags (``--tech``, ``--jobs``, ``--seed`` where applicable) and
a characterization cache built from ``--cache-dir``/``--no-cache``;
the session is passed down through every layer instead of loose
keyword arguments.  ``--trace-stages`` attaches a printing event sink
so each pipeline stage reports its wall clock on stderr.

Observability (``repro.obs``) rides on the same session: every
subcommand accepts ``--trace-out FILE`` (hierarchical span trace as
JSONL), ``--metrics`` (unified cache/executor/stage snapshot on
stderr at exit) and ``--profile-out DIR`` (cProfile dump per pipeline
stage), and ``repro report TRACE`` renders a saved trace as the
per-stage time table / Chrome trace / timing-stripped canonical form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Optional, Sequence

from .bricks import (
    BrickSpec,
    generate_brick_library,
    partitioned,
    single_partition,
)
from .cells import make_stdcell_library
from .errors import ReproError, exit_code_for, failure_domain
from .explore import AUTO_SHARD_THRESHOLD, SweepEngine
from .liberty import write_liberty
from .obs.export import (
    read_trace_jsonl,
    stitch_traces,
    stitched_chrome_trace,
    stitched_lines,
    strip_timing,
    trace_source,
    write_chrome_trace,
    write_trace_jsonl,
)
from .obs.metrics import MetricsRegistry, collect_snapshot, render_snapshot
from .obs.report import filter_request_records, render_report
from .obs.telemetry import OpsLog, render_dashboard, render_prometheus
from .obs.trace import Tracer, maybe_span
from .perf import (
    CharacterizationCache,
    ExecutorPolicy,
    executor_stats,
    reset_executor_stats,
    set_default_executor_policy,
)
from .rtl import build_sram, emit_hierarchy
from .session import DEFAULT_SEED, PrintingSink, Session
from .synth import flow_report, prepare_libraries
from .tech import by_name
from .units import MHZ, PJ


def _session(args) -> Session:
    """The run context for one CLI invocation.

    An injected session (``main(argv, session=...)``) wins — that is the
    embedding/test hook; otherwise the session is assembled from the
    parsed flags, around the cache ``main`` built from
    ``--cache-dir``/``--no-cache``.
    """
    if getattr(args, "_session", None) is not None:
        return args._session
    sink = PrintingSink() if args.trace_stages else None
    return Session(by_name(args.tech), jobs=args.jobs, cache=args._cache,
                   seed=getattr(args, "seed", DEFAULT_SEED), sink=sink,
                   tracer=getattr(args, "_tracer", None),
                   metrics=getattr(args, "_metrics", None),
                   profile_dir=getattr(args, "profile_out", None))


def _parse_brick_token(token: str) -> tuple:
    """Parse ``WORDSxBITSxSTACK`` (e.g. ``16x10x2``)."""
    parts = token.lower().split("x")
    if len(parts) not in (2, 3):
        raise ReproError(
            f"brick spec {token!r} must be WORDSxBITS[xSTACK]")
    words, bits = int(parts[0]), int(parts[1])
    stack = int(parts[2]) if len(parts) == 3 else 1
    return words, bits, stack


def _yield_plan(args):
    from .faults import RepairPlan
    return RepairPlan(spare_rows=args.spare_rows,
                      spare_cols=args.spare_cols, ecc=args.ecc)


def cmd_brick(args) -> int:
    # The report is built and rendered by the same functions the serve
    # layer uses, so ``repro brick`` and ``repro client brick`` emit
    # byte-identical stdout.
    from .serve.handlers import brick_report_data, render_brick_report
    session = _session(args)
    data = brick_report_data(session, args.type, args.words, args.bits,
                             args.stack)
    print(render_brick_report(data))
    if args.yield_:
        from .faults import analyze_yield
        spec = BrickSpec(args.type, args.words, args.bits)
        report = analyze_yield(spec, stack=args.stack,
                               n_bricks=args.population,
                               plan=_yield_plan(args),
                               session=session)
        print(report.render())
    return 0


def cmd_faults(args) -> int:
    from .faults import analyze_yield
    session = _session(args)
    spec = BrickSpec(args.type, args.words, args.bits)
    report = analyze_yield(spec, stack=args.stack,
                           partitions=args.partitions,
                           n_bricks=args.population,
                           plan=_yield_plan(args),
                           session=session)
    print(report.render())
    return 0


def cmd_library(args) -> int:
    session = _session(args)
    requests = []
    for token in args.bricks:
        words, bits, stack = _parse_brick_token(token)
        requests.append((BrickSpec(args.type, words, bits), stack))
    library, elapsed = generate_brick_library(requests,
                                              session=session)
    print(f"generated {len(library)} brick cells in "
          f"{elapsed * 1e3:.1f} ms")
    if args.out:
        if args.include_stdcells:
            library = make_stdcell_library(
                session.tech).merged_with(library)
        write_liberty(library, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_sram(args) -> int:
    session = _session(args)
    brick = BrickSpec(args.type, args.brick_words, args.bits)
    if args.partitions > 1:
        config = partitioned(brick, args.words, args.partitions)
    else:
        config = single_partition(brick, args.words)
    print(f"building {config.describe()}")
    library = prepare_libraries([(config.brick, config.stack)],
                                session=session)
    module = build_sram(config)
    if args.verilog:
        with open(args.verilog, "w", encoding="utf-8") as handle:
            handle.write(emit_hierarchy(module))
        print(f"wrote {args.verilog}")

    def stimulus(sim):
        rng = session.rng("sram-stimulus")
        for _ in range(args.cycles):
            sim.set_input("raddr", rng.randrange(config.words))
            sim.set_input("waddr", rng.randrange(config.words))
            sim.set_input("din", rng.randrange(1 << config.bits))
            sim.set_input("we", 1)
            sim.clock()

    result = session.run_flow(module, library, stimulus=stimulus,
                              anneal_moves=args.anneal,
                              utilization=args.utilization)
    print(flow_report(result))
    return 0


def _print_sweep_data(data) -> None:
    """Render a sweep data dict the way ``repro sweep`` reports it:
    wall clock and skipped points on stderr (nondeterministic or
    diagnostic), the table and pareto line on stdout (deterministic, so
    local and served runs diff clean)."""
    from .serve.handlers import render_sweep_table
    print(f"{data['n_points']} design points in "
          f"{data['wall_clock_s'] * 1e3:.0f} ms", file=sys.stderr)
    for failed in data["failures"]:
        print(f"skipped {failed['label']}: {failed['error']}",
              file=sys.stderr)
    print(render_sweep_table(data))


def cmd_sweep(args) -> int:
    from .serve.handlers import sweep_report_data
    session = _session(args)
    engine = SweepEngine(
        session,
        total_words_options=tuple(args.total_words),
        bits_options=tuple(args.bits),
        brick_words_options=tuple(args.brick_words),
        memory_type=args.type,
        top_k=args.top_k,
        shard_size=args.shard_size)
    result = engine.run(keep_going=args.keep_going)
    if args.refine:
        result = engine.refine(rounds=args.refine,
                               keep_going=args.keep_going)
    if result.mode == "sharded":
        refined = (f" + {result.n_refined} refined"
                   if result.n_refined else "")
        print(f"sharded sweep: {result.n_priced} points priced "
              f"({result.n_points} lattice{refined}) in "
              f"{result.shards_done}/{result.shards_total} shards "
              f"({result.resumed_shards} resumed); "
              f"frontier {len(result.frontier)}, "
              f"top-{len(result.top)} kept", file=sys.stderr)
    _print_sweep_data(sweep_report_data(result.to_sweep_result()))
    return 0


def cmd_signoff(args) -> int:
    """Monte Carlo statistical signoff: PVT variation x defect yield.

    The rendered report is deterministic and goes to stdout (so two
    runs diff clean at any ``--jobs`` or kill/resume history); wall
    clock and resume counts go to stderr.
    """
    from .serve.handlers import signoff_report_data
    from .signoff import SignoffEngine
    session = _session(args)
    engine = SignoffEngine(
        session, memory_type=args.type, words=args.words,
        bits=args.bits, stack=args.stack, n_samples=args.samples,
        chunk_size=args.chunk_size, ci_target=args.ci_target,
        corners=tuple(args.corners))
    report = engine.run(keep_going=args.keep_going,
                        resume=args.resume)
    print(f"signoff: {report.samples_used}/{report.n_samples} "
          f"samples in {report.chunks_used}/{report.chunks_total} "
          f"chunks ({report.resumed_chunks} resumed) in "
          f"{report.wall_clock_s * 1e3:.0f} ms", file=sys.stderr)
    data = signoff_report_data(report)
    print(data["render"])
    if args.json_out:
        del data["render"]
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0


def cmd_spgemm(args) -> int:
    # The SpGEMM chips are fixed cycle-level silicon models: the session
    # contributes nothing (no technology, no characterization, no flow
    # seed), so this subcommand is the one that does not consume it.
    from .spgemm import (
        CAMSpGEMMAccelerator,
        HeapSpGEMMAccelerator,
        benchmark_suite,
    )
    cam_chip = CAMSpGEMMAccelerator()
    heap_chip = HeapSpGEMMAccelerator()
    header = (f"{'workload':>14s} {'work':>8s} {'speedup':>8s} "
              f"{'energyX':>8s}")
    print(header)
    print("-" * len(header))
    for workload in benchmark_suite(args.scale):
        cam = cam_chip.simulate(workload.a, workload.b,
                                with_dram=args.dram)
        heap = heap_chip.simulate(workload.a, workload.b,
                                  with_dram=args.dram)
        print(f"{workload.name:>14s} {workload.work:>8d} "
              f"{heap.completion_time_s / cam.completion_time_s:>7.1f}x"
              f" {heap.energy_j / cam.energy_j:>7.1f}x")
    return 0


def cmd_testchip(args) -> int:
    from .silicon import measure_chips, simulate_corners
    session = _session(args)
    measured = measure_chips(args.configs, n_chips=args.chips,
                             anneal_moves=args.anneal,
                             session=session)
    simulated = simulate_corners(args.configs,
                                 anneal_moves=args.anneal,
                                 session=session)
    header = (f"{'cfg':>4s} {'measured':>10s} {'spread':>16s} "
              f"{'sim w/n/b [MHz]':>20s} {'energy':>9s}")
    print(header)
    print("-" * len(header))
    for name in args.configs:
        m, s = measured[name], simulated[name]
        print(f"{name:>4s} {m.mean_fmax / MHZ:>8.0f}MHz "
              f"[{m.min_fmax / MHZ:.0f}..{m.max_fmax / MHZ:.0f}] "
              f"{s.fmax_worst / MHZ:>6.0f}/{s.fmax_nominal / MHZ:.0f}/"
              f"{s.fmax_best / MHZ:.0f} "
              f"{m.mean_energy / PJ:>7.2f}pJ")
    return 0


def cmd_serve(args) -> int:
    """Run the brick-library daemon until SIGTERM/SIGINT or a client
    ``shutdown`` request, then drain gracefully."""
    from .serve import serve_forever
    session = _session(args)
    if session.tracer is None:
        # The daemon always traces: its ``report`` request renders the
        # accumulated spans, batch-CLI style.  The "server" source tags
        # every span record so a saved daemon trace stitches against
        # client traces without the operator naming sides by hand.
        session.tracer = Tracer(source="server")
        session.tracer.sink = session.sink
    ops_log = (OpsLog(args.ops_log, max_bytes=args.ops_log_max_bytes)
               if args.ops_log else None)

    def ready(server) -> None:
        # Machine-readable announce line (scripts parse the port when
        # --port 0 picked an ephemeral one).
        print(f"serving on {server.host}:{server.port}", flush=True)

    with session:
        serve_forever(session, host=args.host, port=args.port,
                      max_inflight=args.max_inflight, ready=ready,
                      ops_log=ops_log)
    print("server drained", file=sys.stderr)
    return 0


def cmd_client(args) -> int:
    """Thin client: send one request to a running daemon and render the
    reply with the same formatters the local subcommands use."""
    from .serve import ServeClient
    from .serve.handlers import render_brick_report
    with ServeClient(host=args.host, port=args.port,
                     timeout_s=args.timeout,
                     tracer=getattr(args, "_tracer", None)) as client:
        cmd = args.client_command
        if cmd == "ping":
            result = client.ping()
            print(f"pong from {args.host}:{args.port} "
                  f"(tech {result['tech']}, "
                  f"protocol v{result['protocol']})")
        elif cmd == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        elif cmd == "telemetry":
            reply = client.telemetry()
            if args.prom:
                print(render_prometheus(reply), end="")
            else:
                print(json.dumps(reply, indent=2, sort_keys=True))
        elif cmd == "report":
            print(client.report()["render"])
        elif cmd == "brick":
            result = client.request("characterize", {
                "type": args.type, "words": args.words,
                "bits": args.bits, "stack": args.stack})
            print(render_brick_report(result["data"]))
        elif cmd == "sweep":
            data = client.sweep_data(
                total_words=list(args.total_words),
                bits=list(args.bits),
                brick_words=list(args.brick_words), type=args.type,
                keep_going=args.keep_going,
                shard_size=args.shard_size, top_k=args.top_k)
            _print_sweep_data(data)
        elif cmd == "yield":
            result = client.request("yield", {
                "type": args.type, "words": args.words,
                "bits": args.bits, "stack": args.stack,
                "partitions": args.partitions,
                "population": args.population,
                "spare_rows": args.spare_rows,
                "spare_cols": args.spare_cols, "ecc": args.ecc,
                "seed": args.seed})
            print(result["data"]["render"])
        elif cmd == "signoff":
            result = client.signoff(
                type=args.type, words=args.words, bits=args.bits,
                stack=args.stack, samples=args.samples,
                chunk_size=args.chunk_size,
                ci_target=args.ci_target,
                corners=list(args.corners),
                keep_going=args.keep_going, seed=args.seed)
            print(result["data"]["render"])
        elif cmd == "fetch":
            print(json.dumps(client.fetch(args.artifact), indent=2,
                             sort_keys=True))
        else:
            assert cmd == "shutdown", cmd
            client.shutdown()
            print("server draining", file=sys.stderr)
    return 0


def cmd_top(args) -> int:
    """Poll a daemon's ``telemetry`` verb and render the refreshing
    one-screen dashboard (request rates, latency percentiles, cache and
    coalesce hit ratios, active work)."""
    from .serve import ServeClient
    with ServeClient(host=args.host, port=args.port,
                     timeout_s=args.timeout) as client:
        prev = None
        iteration = 0
        try:
            while True:
                reply = client.telemetry()
                screen = render_dashboard(reply, prev=prev,
                                          interval_s=args.interval)
                if not args.no_clear:
                    # ANSI clear + home, like top(1); --no-clear keeps
                    # every frame (tests, CI logs, dumb terminals).
                    print("\x1b[2J\x1b[H", end="")
                print(screen, flush=True)
                prev = reply
                iteration += 1
                if args.iterations and iteration >= args.iterations:
                    break
                time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
    return 0


def cmd_stitch(args) -> int:
    """Merge per-process traces (client/server/...) into one globally
    referenced trace; optionally emit the multi-process Chrome view."""
    traces = []
    seen = set()
    for path in args.traces:
        records = read_trace_jsonl(path)
        source = trace_source(records)
        if source is None:
            # No trace_meta header (pre-stitching trace or hand-made
            # file): fall back to the file name as the source label.
            source = os.path.splitext(os.path.basename(path))[0]
        if source in seen:
            raise ReproError(
                f"duplicate trace source {source!r} ({path}): span "
                f"references would collide; rename one file")
        seen.add(source)
        traces.append((source, records))
    stitched = stitch_traces(traces)
    lines = stitched_lines(stitched, strip=args.strip_timing)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        for line in lines:
            print(line)
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(stitched_chrome_trace(stitched), handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.chrome}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    """Render a saved JSONL trace (table, Chrome trace, or canonical)."""
    records = read_trace_jsonl(args.trace)
    if getattr(args, "request", None):
        records = filter_request_records(records, args.request)
    if args.chrome:
        write_chrome_trace(records, args.chrome)
        print(f"wrote {args.chrome}")
    if args.strip_timing:
        # Canonical timing-stripped form: what the CI traced-flow job
        # diffs byte-for-byte between two same-seed runs.
        for record in records:
            print(json.dumps(strip_timing(record), sort_keys=True))
        return 0
    print(render_report(records, title=f"run report: {args.trace}"))
    return 0


def _non_negative_int(zero_means: str) -> Callable[[str], int]:
    """An argparse ``type`` accepting integers >= 0."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, "
                                             f"got {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"must be >= 0 (0 = {zero_means})")
        return value
    return parse


_jobs_count = _non_negative_int("all cores")
_anneal_moves = _non_negative_int("no annealing")


def _utilization(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, "
                                         f"got {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LiM synthesis methodology reproduction (DAC 2015)")
    parser.add_argument("--tech", default="cmos65",
                        help="technology preset (default: cmos65)")
    parser.add_argument("--jobs", type=_jobs_count, default=1,
                        help="characterization worker processes "
                             "(0 = all cores, default: 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="persist characterization results in this "
                             "directory (safe to delete)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the characterization cache")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print cache hit/miss statistics on exit")
    parser.add_argument("--trace-stages", action="store_true",
                        help="print per-stage wall clock of every "
                             "pipeline run to stderr")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-task timeout in seconds for parallel "
                             "characterization (default: none)")
    parser.add_argument("--keep-going", action="store_true",
                        help="skip-and-report failed design points "
                             "instead of aborting (sweep, signoff)")
    # Observability flags are accepted by every subcommand (a parent
    # parser, so they work after the subcommand name where they read
    # naturally: ``repro sram --trace-out t.jsonl --metrics``).
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write the hierarchical span trace as JSONL")
    obs.add_argument("--metrics", action="store_true",
                     help="print the unified metrics snapshot "
                          "(cache/executor/counters/timings) on exit")
    obs.add_argument("--profile-out", default=None, metavar="DIR",
                     help="dump one cProfile .prof per pipeline stage "
                          "into DIR")
    sub = parser.add_subparsers(dest="command", required=True)

    def _yield_args(p, with_partitions=False):
        p.add_argument("--population", type=int, default=1000,
                       help="sampled brick instances (default: 1000)")
        p.add_argument("--spare-rows", type=int, default=2)
        p.add_argument("--spare-cols", type=int, default=1)
        p.add_argument("--ecc", action="store_true",
                       help="extend words with SEC-DED check bits")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="session master seed driving defect "
                            f"sampling (default: {DEFAULT_SEED})")
        if with_partitions:
            p.add_argument("--partitions", type=int, default=1)

    p = sub.add_parser("brick", parents=[obs],
                       help="compile and estimate one brick")
    p.add_argument("--type", default="8T",
                   choices=["6T", "8T", "CAM", "EDRAM", "DP"])
    p.add_argument("--words", type=int, default=16)
    p.add_argument("--bits", type=int, default=10)
    p.add_argument("--stack", type=int, default=1)
    p.add_argument("--yield", dest="yield_", action="store_true",
                   help="append a defect/yield/repair analysis")
    _yield_args(p)
    p.set_defaults(func=cmd_brick)

    p = sub.add_parser("faults", parents=[obs],
                       help="defect injection and yield-after-repair "
                            "analysis of one brick population")
    p.add_argument("--type", default="8T",
                   choices=["6T", "8T", "CAM", "EDRAM", "DP"])
    p.add_argument("--words", type=int, default=16)
    p.add_argument("--bits", type=int, default=10)
    p.add_argument("--stack", type=int, default=1)
    _yield_args(p, with_partitions=True)
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("library", parents=[obs],
                       help="generate a brick library (.lib)")
    p.add_argument("bricks", nargs="+",
                   help="brick specs as WORDSxBITS[xSTACK]")
    p.add_argument("--type", default="8T")
    p.add_argument("--out", help="Liberty output path")
    p.add_argument("--include-stdcells", action="store_true")
    p.set_defaults(func=cmd_library)

    p = sub.add_parser("sram", parents=[obs],
                       help="synthesize an SRAM from bricks")
    p.add_argument("--words", type=int, default=32)
    p.add_argument("--bits", type=int, default=10)
    p.add_argument("--brick-words", type=int, default=16)
    p.add_argument("--partitions", type=int, default=1)
    p.add_argument("--type", default="8T")
    p.add_argument("--cycles", type=int, default=64)
    p.add_argument("--anneal", type=_anneal_moves, default=2000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="session master seed: placement annealing and "
                        f"stimulus (default: {DEFAULT_SEED})")
    p.add_argument("--utilization", type=_utilization, default=0.65,
                   help="std-cell core utilization target in (0, 1] "
                        "(default: 0.65)")
    p.add_argument("--verilog", help="write structural Verilog here")
    p.set_defaults(func=cmd_sram)

    p = sub.add_parser("sweep", parents=[obs],
                       help="design-space exploration")
    p.add_argument("--total-words", type=int, nargs="+",
                   default=[128],
                   help="memory sizes to sweep (one or more)")
    p.add_argument("--bits", type=int, nargs="+",
                   default=[8, 16, 32])
    p.add_argument("--brick-words", type=int, nargs="+",
                   default=[16, 32, 64])
    p.add_argument("--type", default="8T")
    p.add_argument("--shard-size", type=int, default=8192,
                   help="points per shard; lattices over "
                        f"{AUTO_SHARD_THRESHOLD} points run sharded "
                        "(default: 8192)")
    p.add_argument("--top-k", type=int, default=16,
                   help="best-by-score points kept besides the "
                        "frontier (default: 16)")
    p.add_argument("--refine", type=int, default=0, metavar="ROUNDS",
                   help="successive-halving zoom rounds around the "
                        "frontier after the sweep (default: 0)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("signoff", parents=[obs],
                       help="Monte Carlo statistical signoff "
                            "(PVT variation x defect yield)")
    p.add_argument("--type", default="8T",
                   choices=["6T", "8T", "CAM", "EDRAM", "DP"])
    p.add_argument("--words", type=int, default=16)
    p.add_argument("--bits", type=int, default=10)
    p.add_argument("--stack", type=int, default=1)
    p.add_argument("--samples", type=int, default=2000,
                   help="Monte Carlo population / hard sample cap "
                        "(default: 2000)")
    p.add_argument("--chunk-size", type=int, default=256,
                   help="samples per checkpointed chunk "
                        "(default: 256)")
    p.add_argument("--ci-target", type=float, default=None,
                   help="early-stop when the relative 95%% CI "
                        "half-width of the lead metric falls below "
                        "this (e.g. 0.01; default: run to the cap)")
    p.add_argument("--corners", nargs="+",
                   default=["nominal", "best", "worst"],
                   choices=["nominal", "best", "worst"],
                   help="corner grid to cross with the Monte Carlo "
                        "(default: nominal best worst)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="session master seed driving the sample "
                        f"streams (default: {DEFAULT_SEED})")
    p.add_argument("--resume", dest="resume", action="store_true",
                   default=True,
                   help="reuse chunk checkpoints from the cache "
                        "(default)")
    p.add_argument("--no-resume", dest="resume",
                   action="store_false",
                   help="ignore existing chunk checkpoints")
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="also write the report payload as JSON")
    p.set_defaults(func=cmd_signoff)

    p = sub.add_parser("serve", parents=[obs],
                       help="run the brick-library daemon "
                            "(characterization-as-a-service)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port; 0 picks an ephemeral port and "
                        "announces it on stdout (default: 0)")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="per-connection concurrent request limit; "
                        "excess requests get a structured busy reply "
                        "(default: 8)")
    p.add_argument("--ops-log", default=None, metavar="FILE",
                   help="append one JSONL record per served request "
                        "here, rotating by size (bounded disk)")
    p.add_argument("--ops-log-max-bytes", type=int, default=1_000_000,
                   help="rotate the ops log past this size "
                        "(default: 1000000)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", parents=[obs],
                       help="send one request to a running daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="port the daemon announced")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="socket timeout in seconds (default: 120)")
    csub = p.add_subparsers(dest="client_command", required=True)
    csub.add_parser("ping", help="liveness check")
    csub.add_parser("stats",
                    help="metrics snapshot (serve.* counters "
                         "included) + recent per-request log")
    c = csub.add_parser("telemetry",
                        help="live latency percentiles, uptime, "
                             "inflight and hit rates")
    c.add_argument("--prom", action="store_true",
                   help="Prometheus text exposition instead of JSON")
    csub.add_parser("report", help="render the daemon's run report")
    csub.add_parser("shutdown", help="drain the daemon and exit it")
    c = csub.add_parser("brick",
                        help="served brick characterization "
                             "(stdout identical to 'repro brick')")
    c.add_argument("--type", default="8T",
                   choices=["6T", "8T", "CAM", "EDRAM", "DP"])
    c.add_argument("--words", type=int, default=16)
    c.add_argument("--bits", type=int, default=10)
    c.add_argument("--stack", type=int, default=1)
    c = csub.add_parser("sweep",
                        help="served design-space sweep "
                             "(stdout identical to 'repro sweep')")
    c.add_argument("--total-words", type=int, nargs="+",
                   default=[128])
    c.add_argument("--bits", type=int, nargs="+", default=[8, 16, 32])
    c.add_argument("--brick-words", type=int, nargs="+",
                   default=[16, 32, 64])
    c.add_argument("--type", default="8T")
    c.add_argument("--shard-size", type=int, default=8192)
    c.add_argument("--top-k", type=int, default=16)
    c = csub.add_parser("yield",
                        help="served yield/repair analysis")
    c.add_argument("--type", default="8T",
                   choices=["6T", "8T", "CAM", "EDRAM", "DP"])
    c.add_argument("--words", type=int, default=16)
    c.add_argument("--bits", type=int, default=10)
    c.add_argument("--stack", type=int, default=1)
    _yield_args(c, with_partitions=True)
    c = csub.add_parser("signoff",
                        help="served Monte Carlo signoff "
                             "(stdout identical to 'repro signoff')")
    c.add_argument("--type", default="8T",
                   choices=["6T", "8T", "CAM", "EDRAM", "DP"])
    c.add_argument("--words", type=int, default=16)
    c.add_argument("--bits", type=int, default=10)
    c.add_argument("--stack", type=int, default=1)
    c.add_argument("--samples", type=int, default=2000)
    c.add_argument("--chunk-size", type=int, default=256)
    c.add_argument("--ci-target", type=float, default=None)
    c.add_argument("--corners", nargs="+",
                   default=["nominal", "best", "worst"],
                   choices=["nominal", "best", "worst"])
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c = csub.add_parser("fetch",
                        help="fetch a stored artifact by id as JSON")
    c.add_argument("artifact", help="artifact id from a reply")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("spgemm", parents=[obs],
                       help="LiM CAM chip vs heap baseline (Fig. 6)")
    p.add_argument("--scale", default="small",
                   choices=["tiny", "small", "medium"])
    p.add_argument("--dram", action="store_true")
    p.set_defaults(func=cmd_spgemm)

    p = sub.add_parser("testchip", parents=[obs],
                       help="Fig. 4b chip-measurement emulation")
    p.add_argument("--configs", nargs="+", default=["A", "B", "C"],
                   choices=["A", "B", "C", "D", "E"])
    p.add_argument("--chips", type=int, default=3)
    p.add_argument("--anneal", type=_anneal_moves, default=1000)
    p.set_defaults(func=cmd_testchip)

    p = sub.add_parser("report",
                       help="render a saved --trace-out JSONL trace")
    p.add_argument("trace", help="trace file written by --trace-out")
    p.add_argument("--chrome", metavar="FILE",
                   help="also convert to Chrome trace-event JSON "
                        "(load in Perfetto / chrome://tracing)")
    p.add_argument("--strip-timing", action="store_true",
                   help="print the canonical timing-stripped JSONL "
                        "instead of the report (CI diffs this)")
    p.add_argument("--request", default=None, metavar="ID",
                   help="only the spans of one serve request id "
                        "(e.g. c3) from a daemon trace")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("stitch",
                       help="merge client/server/worker traces into "
                            "one cross-process trace")
    p.add_argument("traces", nargs="+",
                   help="JSONL trace files (sources read from their "
                        "trace_meta headers, else the file names)")
    p.add_argument("--out", metavar="FILE",
                   help="write the stitched JSONL here instead of "
                        "stdout")
    p.add_argument("--chrome", metavar="FILE",
                   help="also write the multi-process Chrome "
                        "trace-event JSON (one pid per source)")
    p.add_argument("--strip-timing", action="store_true",
                   help="emit the canonical timing-stripped form "
                        "(CI diffs this byte-for-byte)")
    p.set_defaults(func=cmd_stitch)

    p = sub.add_parser("top",
                       help="live telemetry dashboard for a running "
                            "daemon (like top(1))")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="port the daemon announced")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="socket timeout in seconds (default: 10)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default: 2)")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after N refreshes (0 = until Ctrl-C; "
                        "CI and tests set this)")
    p.add_argument("--no-clear", action="store_true",
                   help="do not clear the screen between refreshes "
                        "(append frames; for logs and dumb terminals)")
    p.set_defaults(func=cmd_top)
    return parser


def main(argv: Optional[Sequence[str]] = None,
         session: Optional[Session] = None) -> int:
    """CLI entry point.

    ``session`` injects a pre-built run context (its tech/jobs/seed/sink
    override the corresponding flags) — the hook embedders and tests use
    to observe stage events from a CLI invocation.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    args._session = session
    # The trace source names this process's side of a cross-process
    # trace; ``repro stitch`` reads it back from the trace_meta header
    # so client and server files merge without manual labelling.
    trace_sources = {"client": "client", "serve": "server"}
    tracer = (Tracer(source=trace_sources.get(args.command, "cli"))
              if getattr(args, "trace_out", None) else None)
    metrics = (MetricsRegistry()
               if getattr(args, "metrics", False) else None)
    args._tracer = tracer
    args._metrics = metrics
    # The run's one cache: --cache-stats, --metrics and the trace's
    # metrics record all read the cache the session characterizes into.
    args._cache = (session.cache if session is not None
                   else CharacterizationCache(cache_dir=args.cache_dir,
                                              enabled=not args.no_cache))
    # Fresh executor counters per invocation (like the cache stats), so
    # a --metrics snapshot covers exactly this run even when main() is
    # called repeatedly in-process.
    reset_executor_stats()
    set_default_executor_policy(ExecutorPolicy(
        task_timeout_s=args.task_timeout))
    try:
        with maybe_span(tracer, f"cli:{args.command}", kind="command",
                        tech=args.tech):
            return args.func(args)
    except ReproError as exc:
        # One exit code per failure domain (see repro.errors.EXIT_CODES)
        # so scripts can triage without parsing the message.
        print(f"error: {failure_domain(exc)}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        # One snapshot serves --metrics, --cache-stats and the trace's
        # embedded metrics record, so every surface agrees.
        snapshot = None
        if tracer is not None or metrics is not None or args.cache_stats:
            snapshot = collect_snapshot(metrics, args._cache.stats,
                                        executor_stats())
        if tracer is not None:
            write_trace_jsonl(tracer.spans, args.trace_out,
                              metrics=snapshot,
                              source=tracer.source or None)
            print(f"wrote trace {args.trace_out}", file=sys.stderr)
        if metrics is not None:
            rendered = render_snapshot(snapshot)
            if rendered:
                print(rendered, file=sys.stderr)
        elif args.cache_stats:
            print(render_snapshot(snapshot, sections=("cache",)),
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
