"""Traced-run instrumentation: spans around the program's layer calls.

The program is measured from outside: each entry below names a public
function (or method) of a layer, and :class:`Instrumentation` swaps it,
in every ``repro`` module that holds a reference to it, for a wrapper
that records a span while a benchmark op is open.  Leaving the context
restores every original, so the untraced rounds of a traced run execute
the unmodified program.

Benchmark code must call instrumented functions through their module
(``extract.measure_read(...)``), never through a name it imported,
or the swap cannot reach the call.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple

from .harness import SpanRecorder

#: (module, attribute, span name).  ``Class.method`` attributes are
#: patched on the class; plain functions wherever a ``repro`` module
#: refers to them.
SPANS: List[Tuple[str, str, str]] = [
    ("repro.synth.flow", "prepare_libraries", "bricks.library"),
    ("repro.rtl.memory", "build_sram", "rtl.build"),
    ("repro.perf.cache", "CharacterizationCache.get", "perf.cache.get"),
    ("repro.perf.cache", "CharacterizationCache.put", "perf.cache.put"),
    ("repro.perf.fingerprint", "cache_key", "perf.fingerprint"),
    ("repro.perf.characterize", "estimate_points",
     "perf.characterize.estimate"),
    ("repro.perf.characterize", "cached_estimate",
     "perf.characterize.estimate"),
    ("repro.perf.characterize", "plan_estimates",
     "perf.characterize.probe"),
    ("repro.bricks.compiler", "compile_brick", "bricks.compiler.compile"),
    ("repro.bricks.estimator", "estimate_brick",
     "bricks.estimator.estimate"),
    ("repro.bricks.extract", "measure_read", "bricks.extract.measure"),
    ("repro.bricks.extract", "measure_write", "bricks.extract.measure"),
    ("repro.bricks.extract", "build_read_testbench",
     "bricks.extract.testbench"),
    ("repro.bricks.extract", "build_write_testbench",
     "bricks.extract.testbench"),
    ("repro.circuit.spice", "TransientSimulator.run", "circuit.spice.run"),
    ("repro.explore.engine", "SweepEngine.plan", "explore.plan"),
    ("repro.explore.engine", "SweepEngine.run", "explore.engine"),
    ("repro.explore.lattice", "Lattice.columns", "explore.lattice"),
    ("repro.explore.pareto", "pareto_mask", "explore.pareto"),
    ("repro.bricks.batch", "compile_batch", "bricks.batch.compile"),
    ("repro.bricks.batch", "estimate_metric_columns",
     "bricks.batch.price"),
    ("repro.signoff.engine", "SignoffEngine.run", "signoff.engine"),
    ("repro.signoff.sampling", "pvt_columns", "signoff.sampling"),
    ("repro.signoff.stats", "summarize", "signoff.stats"),
    ("repro.signoff.stats", "proportion_summary", "signoff.stats"),
    ("repro.signoff.rng", "resample_indices", "signoff.stats"),
    ("repro.faults.defects", "inject", "faults.inject"),
    ("repro.faults.repair", "apply_repair", "faults.repair"),
    ("repro.serve.client", "ServeClient.request", "serve.client.request"),
]

#: Functions patched only in the one module named (the same objects are
#: used elsewhere in the program, where they are not this layer).
LOCAL_SPANS: List[Tuple[str, str, str]] = [
    ("repro.serve.client", "encode_frame", "serve.protocol.frame"),
    ("repro.serve.client", "decode_frame", "serve.protocol.frame"),
]

#: Calls counted (not timed), patched only in the named module.
COUNTERS: List[Tuple[str, str, str]] = [
    ("repro.circuit.spice", "lu_solve", "circuit.spice.steps"),
    ("repro.circuit.spice", "lu_factor", "circuit.spice.factorizations"),
]

#: Executor task functions -> the layer their work belongs to.
TASK_LAYERS: Dict[str, str] = {
    "_shard_worker": "explore.shard",
    "_chunk_worker": "signoff.chunk",
    "_estimate_batch_worker": "perf.characterize.worker",
    "_cell_model_worker": "perf.characterize.worker",
    "_estimate_worker": "perf.characterize.worker",
}


def _resolve(module: str, attr: str) -> Tuple[Any, str, Any]:
    """``(owner, name, original)`` for a dotted attribute."""
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _holders(original: Any) -> List[Tuple[Any, str]]:
    """Every ``(module, name)`` in the program bound to ``original``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


class Instrumentation:
    """Context manager installing every span/counter wrapper."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._plan: List[Tuple[List[Tuple[Any, str]], Any, Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self._flow_stages = None

    # -- wrappers --------------------------------------------------------

    def _span(self, fn: Callable, name: str) -> Callable:
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            record = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(record)
        return wrapper

    def _counter(self, fn: Callable, name: str) -> Callable:
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.active:
                rec.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _task(self, fn: Callable) -> Callable:
        return self._span(fn, TASK_LAYERS.get(
            getattr(fn, "__name__", ""), "perf.parallel.task"))

    def _parallel_map(self, fn: Callable) -> Callable:
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(task_fn, tasks, *args, **kwargs):
            if not rec.active:
                return fn(task_fn, tasks, *args, **kwargs)
            record = rec.open("perf.parallel.dispatch")
            try:
                return fn(self._task(task_fn), tasks, *args, **kwargs)
            finally:
                rec.close(record)
        return wrapper

    def _parallel_imap(self, fn: Callable) -> Callable:
        """A streaming map is timed inside each ``next()`` only: the
        caller's work between yields is not the executor's."""
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(task_fn, tasks, *args, **kwargs):
            if not rec.active:
                yield from fn(task_fn, tasks, *args, **kwargs)
                return
            stream = fn(self._task(task_fn), tasks, *args, **kwargs)
            try:
                while True:
                    record = rec.open("perf.parallel.dispatch")
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                    finally:
                        rec.close(record)
                    yield item
            finally:
                stream.close()
        return wrapper

    def _simulator_init(self, fn: Callable) -> Callable:
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(sim, circuit, tech):
            if not rec.active:
                return fn(sim, circuit, tech)
            with rec.span("circuit.spice.setup"):
                fn(sim, circuit, tech)
            rec.count("circuit.spice.transients")
            rec.count("circuit.spice.nodes_total",
                      len(circuit.free_nodes()))
        return wrapper

    # -- install / restore -------------------------------------------------

    def _build_plan(self) -> None:
        def add(module, attr, make, everywhere=True):
            owner, name, original = _resolve(module, attr)
            if isinstance(owner, type) or not everywhere:
                holders = [(owner, name)]
            else:
                holders = _holders(original)
            self._plan.append((holders, original, make(original)))

        for module, attr, span in SPANS:
            add(module, attr,
                lambda fn, span=span: self._span(fn, span))
        for module, attr, span in LOCAL_SPANS:
            add(module, attr,
                lambda fn, span=span: self._span(fn, span),
                everywhere=False)
        for module, attr, counter in COUNTERS:
            add(module, attr,
                lambda fn, counter=counter: self._counter(fn, counter),
                everywhere=False)
        add("repro.perf.parallel", "parallel_map", self._parallel_map)
        add("repro.perf.parallel", "parallel_imap", self._parallel_imap)
        add("repro.circuit.spice", "TransientSimulator.__init__",
            self._simulator_init)

    def __enter__(self) -> "Instrumentation":
        if not self._plan:
            self._build_plan()
        for holders, original, wrapper in self._plan:
            for owner, name in holders:
                if getattr(owner, name) is original:
                    setattr(owner, name, wrapper)
                    self._undo.append((owner, name, original))
        from repro.synth import flow
        from repro.synth.pipeline import FlowStage
        pipeline = flow.FLOW_PIPELINE
        self._flow_stages = pipeline.stages
        pipeline.stages = tuple(
            FlowStage(stage.name,
                      self._span(stage.run, f"synth.{stage.name}"),
                      stage.description)
            for stage in self._flow_stages)
        return self

    def __exit__(self, *exc) -> None:
        from repro.synth import flow
        flow.FLOW_PIPELINE.stages = self._flow_stages
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
