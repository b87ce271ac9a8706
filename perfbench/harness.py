"""Span recording, self-time arithmetic, statistics and reporting.

Everything here is independent of the program under test, so the
helpers can be unit-tested on synthetic inputs (``perfbench/tests``).

Tracing model: the benchmark opens one *op* span per unit of work it
times (a design flow, a Table-1 cell, a sweep, a request) and the
instrumentation in ``instrument.py`` opens one child span per call into
a program layer.  A span is ``[id, parent, name, start, end]`` with
``perf_counter`` times; spans of one thread nest, so a layer's self
time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy

#: The form of a metric or workload name in ``BENCHMARK.json``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Result keys whose values differ between runs of the same inputs
#: (wall clocks, and how much a run resumed from checkpoints); stripped
#: before digesting so a digest covers only simulated outputs.
PER_RUN_KEYS = frozenset({"wall_clock_s", "uptime_s", "resumed_chunks",
                          "resumed_shards"})


#: The host's speed swings by up to 2x, for whole runs and within them
#: (other tenants on the same cores, beyond the time stolen from the
#: vCPU), so the gated timings are made relative to a reference kernel
#: that a sampler process times every ``SAMPLE_EVERY_S`` on the CPU
#: doing the work, for the whole run (``Context.sampling``).  An op is
#: priced in the mean kernel run timed during it (``local_cost``),
#: which tracks an op's wall with a correlation of ~0.95 on this host,
#: and a kind of op at the median of its costs (``Context.cost``).
#: Sampling every 0.1 s instead of 0.05 s doubled the spread of the
#: costs between runs; the sampler takes ~10 % of the CPU, in every op
#: alike.
SAMPLE_EVERY_S = 0.05
#: An op shorter than this is priced in the kernel runs of the window
#: of this length centred on it.
SAMPLE_WINDOW_S = 0.5
#: The longest a sampler runs: a whole run must end within 180 s.
SAMPLE_MAX_S = 170.0
#: The niceness the process doing the work runs at under the sampler,
#: so that the sampler's kernel runs are rarely cut into by the work:
#: at equal priority its runs took 3-4x their solo time, and the
#: costs then moved with how the scheduler shared the CPU.
WORK_NICE = 10
_REF_RNG = numpy.random.default_rng(0)
_REF_A = _REF_RNG.random((48, 48)) + 48 * numpy.eye(48)
_REF_B = _REF_RNG.random(48)


def reference_s() -> float:
    """Wall seconds of one run of the reference kernel (about 3 ms on a
    2.0 GHz Xeon vCPU): a fixed mix of interpreter work (dict and list
    churn) and small dense solves, the two kinds of work the program's
    layers do."""
    start = time.perf_counter()
    table = {}
    for k in range(3000):
        table[(k, k % 7)] = [k * 7919 % 1009, str(k)]
    sorted(table.items(), key=lambda item: item[1][0])
    for _ in range(40):
        numpy.linalg.solve(_REF_A, _REF_B)
    return time.perf_counter() - start


# --- spans ----------------------------------------------------------------


class SpanRecorder:
    """In-memory span store, safe to use from several threads.

    ``op(phase)`` opens a root span for one timed unit of work; the
    phase (``""`` or e.g. ``"fig4c"``) prefixes every per-layer metric
    measured under it.  ``count`` adds to a counter of the current
    op's phase, so counts are taken at the same boundaries as spans.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self.root_phase: Dict[int, str] = {}
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def active(self) -> bool:
        """True inside an op on the calling thread."""
        return bool(self._stack())

    def open(self, name: str) -> list:
        stack = self._stack()
        record = [next(self._ids), stack[-1][0] if stack else 0, name,
                  time.perf_counter(), None]
        self.spans.append(record)
        stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[4] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        else:  # an unbalanced close (exception unwinding): drop it
            stack.remove(record)

    @contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    @contextmanager
    def op(self, phase: str = ""):
        if self._stack():
            raise RuntimeError("ops do not nest")
        record = self.open("bench.harness")
        self.root_phase[record[0]] = phase
        self._local.phase = phase
        try:
            yield record
        finally:
            self.close(record)

    def count(self, name: str, amount: float = 1.0) -> None:
        phase = getattr(self._local, "phase", "")
        self.counters[(phase, name)] += amount

    def write_jsonl(self, path: str) -> None:
        """Dump every span as one JSON line (written when a run ends)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end}) + "\n")


def self_times(spans: Iterable[Sequence]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    spans = [s for s in spans if s[4] is not None]
    children: Dict[int, List[Sequence]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    result: Dict[int, float] = {}
    for sid, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for child in sorted(children.get(sid, ()), key=lambda s: s[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def aggregate(recorder: SpanRecorder
              ) -> Tuple[Dict[Tuple[str, str], float], Dict[str, int],
                         Dict[str, float]]:
    """Fold spans into ``{(phase, layer): self seconds}``.

    Also returns the op count per phase and the summed op (root) wall
    per phase, against which the self times must add up.
    """
    spans = [s for s in recorder.spans if s[4] is not None]
    parent = {s[0]: s[1] for s in spans}
    roots: Dict[int, int] = {}

    def root_of(sid: int) -> int:
        path = []
        while sid not in roots and parent.get(sid, 0):
            path.append(sid)
            sid = parent[sid]
        root = roots.get(sid, sid)
        for node in path:
            roots[node] = root
        roots[sid] = root
        return root

    selfs = self_times(spans)
    layers: Dict[Tuple[str, str], float] = defaultdict(float)
    n_ops: Dict[str, int] = defaultdict(int)
    op_wall: Dict[str, float] = defaultdict(float)
    for sid, par, name, start, end in spans:
        phase = recorder.root_phase.get(root_of(sid))
        if phase is None:
            continue  # a span outside any op: not part of the workload
        layers[(phase, name)] += selfs[sid]
        if par == 0:
            n_ops[phase] += 1
            op_wall[phase] += end - start
    return dict(layers), dict(n_ops), dict(op_wall)


# --- statistics -----------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail_room(n: int, q: float) -> int:
    """Samples strictly beyond the ``q`` quantile of ``n`` samples."""
    return n - math.ceil(q * n)


# --- identity -------------------------------------------------------------


def host_fingerprint() -> Dict[str, Any]:
    """CPU model, core count and interpreter/library versions."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = "missing"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), **versions}


def canonical(obj: Any) -> Any:
    """``obj`` with wall-clock fields removed, floats kept exact."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()
                if k not in PER_RUN_KEYS}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, float):
        return repr(obj)
    return obj


def digest(obj: Any) -> str:
    """Short sha256 over the canonical JSON of simulated outputs."""
    blob = json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def stolen_s(cpu: Optional[int]) -> float:
    """Seconds the hypervisor has taken from ``cpu`` so far (the steal
    column of ``/proc/stat``, 10 ms resolution); 0.0 when ``cpu`` is
    None or the kernel does not report it."""
    if cpu is None:
        return 0.0
    prefix = f"cpu{cpu} "
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(prefix):
                    fields = line.split()
                    if len(fields) > 8:
                        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except OSError:
        pass
    return 0.0


def work_cpu() -> Optional[int]:
    """The CPU the process doing a run's work is pinned to, so that
    time stolen from that CPU is time stolen from the work: the highest
    this process may use (None where affinity is unavailable)."""
    try:
        return max(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def pin(cpus: Iterable[int]) -> None:
    """Restrict the calling process to ``cpus``."""
    os.sched_setaffinity(0, set(cpus))


class Sampler:
    """A process (on ``cpu`` when given) timing the reference kernel
    every ``every`` seconds for up to ``seconds``.  Starting it waits
    for its first kernel run, so it covers all that follows."""

    def __init__(self, cpu: Optional[int], seconds: float, every: float,
                 env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.probe", "--reference",
             repr(seconds), repr(every)], env=env,
            stdout=subprocess.PIPE, text=True,
            preexec_fn=None if cpu is None else lambda: pin({cpu}))
        self._first = self.proc.stdout.readline()

    def stop(self) -> List[Tuple[float, float]]:
        """Stop the sampler; its ``(start, wall)`` kernel runs.
        ``start`` is a ``perf_counter`` time, which every process of
        the host shares."""
        proc = self.proc
        try:
            proc.terminate()
            out, _ = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        samples = []
        for line in (self._first + out).splitlines():
            fields = line.split()
            if len(fields) == 2:  # a line cut short by the stop: dropped
                samples.append((float(fields[0]), float(fields[1])))
        return samples


def local_cost(start: float, wall: float,
               samples: Sequence[Tuple[float, float]]) -> float:
    """An op of ``wall`` seconds from ``start`` in units of the mean
    reference kernel run started during it, or during the
    ``SAMPLE_WINDOW_S`` centred on a shorter op (the nearest run, when
    none started there)."""
    middle = start + wall / 2
    half = max(wall, SAMPLE_WINDOW_S) / 2
    walls = [w for t, w in samples if abs(t - middle) <= half]
    if not walls:
        walls = [min(samples, key=lambda s: abs(s[0] - start))[1]]
    return wall / (sum(walls) / len(walls))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# --- reporting ------------------------------------------------------------


class Report:
    """Collects one run's checks, metrics and digests, then prints them.

    ``named`` metrics are the workload's own (e.g. ``flow_designs_per_s``)
    and print as human-readable lines; ``end_to_end`` and ``per_layer``
    are the ``BENCHMARK.json`` metrics that go into the final JSON line.
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.checks: List[Tuple[str, bool, str]] = []
        self.named: List[Tuple[str, float, str, str]] = []
        self.end_to_end: Dict[str, Tuple[float, str]] = {}
        self.per_layer: Dict[str, Tuple[float, str]] = {}
        self.digests: List[Tuple[str, str, str]] = []

    def op_done(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(why)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def metric(self, name: str, value: float, unit: str,
               note: str = "") -> None:
        self.named.append((name, float(value), unit, note))

    def digest(self, name: str, obj: Any, what: str) -> None:
        self.digests.append((name, digest(obj), what))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)

    def emit(self, host: Dict[str, Any], stream=None) -> None:
        out = stream if stream is not None else sys.stdout
        print(f"# workload {self.workload}  seed {self.seed}  "
              f"seconds {self.seconds:g}  trace {int(self.trace)}",
              file=out)
        print("# host " + "  ".join(f"{k}={v}" for k, v in host.items()),
              file=out)
        for name, value, unit, note in self.named:
            tail = f"  ({note})" if note else ""
            print(f"metric {name:<34s} {value:>14.6g} {unit}{tail}",
                  file=out)
        for name, sha, what in self.digests:
            print(f"digest {name:<34s} {sha}  ({what})", file=out)
        for name, ok, detail in self.checks:
            status = "ok" if ok else "FAILED"
            print(f"check  {name:<34s} {status}  {detail}", file=out)
        for why in self.failures:
            print(f"failed op: {why}", file=out)
        metrics = self.per_layer if self.trace else self.end_to_end
        if self.trace:
            for name, (value, unit) in sorted(self.per_layer.items()):
                print(f"layer  {name:<40s} {value:>14.6g} {unit}",
                      file=out)
        result = {
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result, sort_keys=False), file=out)
        out.flush()


# --- the timed loop -------------------------------------------------------


class Context:
    """One workload run: the timed round loop, tracing and reporting.

    A workload runs whole *rounds* (a fixed, seeded multiset of ops)
    for up to ``seconds`` (or a fixed number of rounds), so every run
    measures the same mix.
    In a traced run, odd rounds are traced and even rounds are not;
    the end-to-end numbers come from the untraced rounds, the
    per-layer split from the traced ones, and ``obs.overhead_pct``
    compares the two headline rates.
    """

    def __init__(self, report: Report, seconds: float,
                 instrumentation_factory=None, work_dir: str = ".",
                 child_env=None) -> None:
        self.report = report
        self.seconds = seconds
        #: scratch directory inside the checkout
        self.work_dir = work_dir
        #: ``child_env()`` -> environment for processes the run starts
        self.child_env = (child_env if child_env is not None
                          else lambda: dict(os.environ))
        #: set by the run: median set-up seconds, peak RSS of the
        #: process doing the work
        self.setup_s: Optional[float] = None
        self.peak_rss: Optional[float] = None
        self.trace = report.trace
        self.recorder = (SpanRecorder(
            f"{report.workload}-{report.seed}") if self.trace else None)
        self.instrumentation = (instrumentation_factory(self.recorder)
                                if self.trace else None)
        #: (traced, work units, wall seconds, start) per round
        self.rounds_log: List[Tuple[bool, float, float, float]] = []
        #: the CPU the process doing the work is pinned to (None: not
        #: pinned); set-up times leave out the time stolen from it
        self.cpu: Optional[int] = None
        #: (traced, phase, key, wall seconds, start) per op; the key
        #: names which op of the round it was
        self.op_log: List[Tuple[bool, str, Any, float, float]] = []
        #: ``(start, wall)`` reference kernel runs of the sampler
        #: (``sampling``), and their walls
        self.ref_samples: List[Tuple[float, float]] = []
        self.ref_walls: List[float] = []
        self.layer_values: Dict[str, float] = {}
        #: phases reported as one wall metric instead of a layer split
        self.wall_phases: Dict[str, str] = {}
        #: layer time metrics reported in another unit: name -> (name
        #: reported, factor from seconds)
        self.rescale: Dict[str, Tuple[str, float]] = {}

    def rounds(self, min_rounds: int = 1, fixed: Optional[int] = None):
        """Yield ``(index, traced)`` while another round is expected to
        end within the run's time (at least ``min_rounds``; two when
        traced, so both kinds of round are measured), or exactly
        ``fixed`` rounds whatever the host's speed."""
        min_rounds = max(min_rounds, 2 if self.trace else 1)
        index = 0
        while True:
            walls = [wall for _, _, wall, _ in self.rounds_log]
            if fixed is not None:
                if index >= max(fixed, min_rounds):
                    return
            elif index >= min_rounds and (
                    sum(walls) + max(walls) > self.seconds):
                return
            yield index, self.trace and index % 2 == 1
            index += 1

    @contextmanager
    def round(self, traced: bool, instrument: bool = True):
        """Time one round; yields a dict the body adds ``work`` to.

        ``instrument=False`` leaves installing the instrumentation to
        the caller (workloads whose rounds run on several threads
        install it once for the whole run)."""
        tally = {"work": 0.0}
        if traced and instrument:
            with self.instrumentation:
                start = time.perf_counter()
                yield tally
                wall = time.perf_counter() - start
        else:
            start = time.perf_counter()
            yield tally
            wall = time.perf_counter() - start
        self.rounds_log.append((traced, tally["work"], wall, start))

    @contextmanager
    def op(self, traced: bool, phase: str = "", key: Any = None):
        """Time one op (a root span when traced); ``key`` names which
        op of the round it is."""
        start = time.perf_counter()
        if traced:
            with self.recorder.op(phase):
                yield
        else:
            yield
        self.op_log.append((traced, phase, key,
                            time.perf_counter() - start, start))

    def op_walls(self, phase: str = "", key: Any = None) -> List[float]:
        """Untraced op walls of one phase, of one op key when given
        (all ops when no round was untraced)."""
        return [w for w, _ in self.op_times(phase, key)]

    def op_times(self, phase: str = "", key: Any = None
                 ) -> List[Tuple[float, float]]:
        """``(wall, start)`` of the ops ``op_walls`` selects."""
        rows = [(t, w, s) for t, p, k, w, s in self.op_log
                if p == phase and (key is None or k == key)]
        return ([(w, s) for t, w, s in rows if not t]
                or [(w, s) for _, w, s in rows])

    def rate(self, traced: bool) -> float:
        rows = [(work, wall) for t, work, wall, _ in self.rounds_log
                if t == traced]
        wall = sum(w for _, w in rows)
        return sum(work for work, _ in rows) / wall if wall else 0.0

    def op_keys(self, phase: str = "") -> set:
        return {k for _, p, k, *_ in self.op_log if p == phase}

    @contextmanager
    def sampling(self, pid: Optional[int] = None):
        """Time the reference kernel in a sampler process on the work
        CPU while the body runs, the process doing the work (``pid``,
        else this one) at ``WORK_NICE``."""
        sampler = Sampler(self.cpu, SAMPLE_MAX_S, SAMPLE_EVERY_S,
                          self.child_env())
        # Niceness is per thread: set it on every thread there is.
        for tid in os.listdir(f"/proc/{pid or os.getpid()}/task"):
            try:
                os.setpriority(os.PRIO_PROCESS, int(tid), WORK_NICE)
            except ProcessLookupError:  # the thread ended meanwhile
                pass
        try:
            yield
        finally:
            self.ref_samples = sampler.stop()
            self.ref_walls = [w for _, w in self.ref_samples]
        if not self.ref_samples:
            raise RuntimeError("the reference sampler timed nothing")

    def op_costs(self, phase: str = "", key: Any = None) -> List[float]:
        """The untraced ops of a phase (of one key), each in units of
        the mean kernel run sampled during it (``local_cost``)."""
        return [local_cost(start, wall, self.ref_samples)
                for wall, start in self.op_times(phase, key)]

    def cost(self, phase: str = "", key: Any = None) -> float:
        """The median op cost of a phase (of one key)."""
        return median(self.op_costs(phase, key))

    def round_cost(self, phase: str = "") -> float:
        """A round of a phase priced as the sum over its op keys of
        each key's ``cost``."""
        return sum(self.cost(phase, k) for k in self.op_keys(phase))

    def round_costs(self) -> List[float]:
        """The untraced rounds (all when none was untraced), each in
        units of the mean kernel run sampled during it."""
        rows = ([r for r in self.rounds_log if not r[0]]
                or self.rounds_log)
        return [local_cost(start, wall, self.ref_samples)
                for _, _, wall, start in rows]

    def gate(self, work_per_ref: float, op_ref: float, work_n: str,
             op_n: str) -> None:
        """The workload's gated timings from a run under ``sampling``:
        work per reference kernel run, and an op in kernel runs, with
        the samples behind each."""
        n = len(self.ref_walls)
        self.report.metric("reference_ms_mean",
                           sum(self.ref_walls) / n * 1e3, "ms",
                           f"n={n} reference kernel runs, one every "
                           f"{SAMPLE_EVERY_S:g} s")
        self.report.metric("reference_ms_min", min(self.ref_walls) * 1e3,
                           "ms", f"fastest of n={n}")
        self.report.metric("work_per_kref", work_per_ref * 1e3, "1/kref",
                           work_n)
        self.report.metric("op_cost_ref", op_ref, "ref", op_n)
        self.report.end_to_end["work_per_kref"] = (work_per_ref * 1e3,
                                                   "1/kref")
        self.report.end_to_end["op_cost_ref"] = (op_ref, "ref")

    def finish_layers(self, units: Dict[str, str]) -> None:
        """Per-layer metrics from the traced rounds: every catalog
        metric, 0 where this workload never entered the layer."""
        if not self.trace:
            return
        layers, n_ops, op_wall = aggregate(self.recorder)
        values = {name: 0.0 for name in units}
        reported = 0.0
        unknown = set()
        for (phase, layer), total in layers.items():
            if phase in self.wall_phases:
                continue
            name = f"{phase}.{layer}_s" if phase else f"{layer}_s"
            name, factor = self.rescale.get(name, (name, 1.0))
            if name not in values:
                unknown.add(name)
                continue
            values[name] += total / n_ops[phase] * factor
            reported += total
        for phase, name in self.wall_phases.items():
            if n_ops.get(phase):
                values[name] = op_wall[phase] / n_ops[phase]
                reported += op_wall[phase]
        for (phase, counter), total in self.recorder.counters.items():
            name = f"{phase}.{counter}" if phase else counter
            if name in values and n_ops.get(phase):
                values[name] = total / n_ops[phase]
        values.update({k: v for k, v in self.layer_values.items()
                       if k in values})
        traced_wall = sum(w for t, _, w, _ in self.rounds_log if t)
        untraced, traced = self.rate(False), self.rate(True)
        overhead = (untraced / traced - 1.0) * 100.0 if traced else 0.0
        unattributed = ((traced_wall - reported) / traced_wall * 100.0
                        if traced_wall else 0.0)
        values["obs.overhead_pct"] = overhead
        values["obs.unattributed_pct"] = unattributed
        self.report.check(
            "trace.self_times_sum_to_wall",
            abs(unattributed) <= max(abs(overhead), 1.0) and not unknown,
            f"unattributed {unattributed:.3f}% of {traced_wall:.3f} s "
            f"(overhead {overhead:.2f}%)"
            + (f"; layers missing from the catalog: {sorted(unknown)}"
               if unknown else ""))
        self.report.per_layer = {name: (value, units[name])
                                 for name, value in values.items()}

    def layer(self, name: str, value: float) -> None:
        """A per-layer value measured outside the span tree (counts
        read from the program's own counters)."""
        self.layer_values[name] = float(value)
