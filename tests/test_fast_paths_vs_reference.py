"""The fast paths against the straightforward code they replaced.

Three hot loops of the Fig-3 flow are written for speed: placement (a
BFS seed order that visits each net once, then an annealer over index
arrays with incremental net bounding boxes), the logic simulator's
``settle`` (precompiled gate tuples) and the LUT axis lookup
(``bisect``).  Two more belong to Monte Carlo signoff: the chunk
worker's per-die loop (one re-seeded ``random.Random``, perfect dies
skip repair) and the row-blocked paired bootstrap.  The waveform
crossing search of the Table-1 measurements is array operations.  Each
must give *exactly* the result of the plain version kept below as an
oracle: every final cell position, every toggle count, every
interpolated value, every die's outcome, every bootstrap bound and
every crossing time ``==``, not approximately equal.

The transient reference is the exception: its banded Cholesky solves
the systems of the dense LU kept below in another order of operations,
so it must agree within 1e-9 and factorize at the same steps.
"""

import math
import random
from types import SimpleNamespace
from typing import Dict, List, Set

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bricks import build_match_testbench, build_read_testbench, \
    build_write_testbench, cam_brick, compile_brick, \
    generate_brick_library, single_partition, sram_brick
from repro.bricks import extract
from repro.bricks.spec import BrickSpec
from repro.circuit import GND, SpiceCircuit, TransientSimulator, \
    Waveform, ramp
from repro.circuit import spice
from repro.circuit.spice import TransientResult
from repro.errors import SimulationError
from repro.faults import DefectModel, RepairPlan, apply_repair
from repro.faults.defects import (
    OPEN_VIA,
    STUCK_AT_0,
    STUCK_AT_1,
    WEAK_SENSE,
    WORDLINE_BRIDGE,
    Defect,
    FaultyBrick,
)
from repro.liberty.lut import LUT2D
from repro.rtl import LogicSimulator, build_cam, build_sram, elaborate
from repro.rtl.module import FlatCell, FlatNetlist
from repro.session import Session
from repro.signoff import normals, pvt_columns, resample_indices, \
    stream_key, uniforms
from repro.signoff import stats as signoff_stats
from repro.signoff.engine import ChunkResult, _chunk_worker
from repro.signoff.stats import N_BOOT, PERCENTILES, proportion_summary, \
    summarize
from repro.silicon.variation import VariationModel
from repro.synth import build_floorplan, place
from repro.synth.floorplan import Floorplan, Placement
from repro.tech.transistor import NMOS, PMOS, Transistor, conductances
from repro.units import FF, PS

from .test_circuit_netlist_spice import _CIRCUITS as GOLDEN_CIRCUITS


# --- reference placer: dict/Placement annealer with full net rescans --------


def _reference_connectivity_order(netlist):
    """BFS from the macros/outputs, revisiting nets as often as they
    appear in the frontier."""
    std_cells = [c for c in netlist.cells if not c.model.is_brick]
    net_to_cells: Dict[int, List] = {}
    for cell in std_cells:
        for net in cell.pins.values():
            net_to_cells.setdefault(net, []).append(cell)
    seeds: List[int] = []
    for cell in netlist.cells:
        if cell.model.is_brick:
            seeds.extend(cell.pins.values())
    for nets in netlist.outputs.values():
        seeds.extend(nets)
    order = []
    seen = set()
    frontier = list(dict.fromkeys(seeds))
    while frontier:
        next_frontier: List[int] = []
        for net in frontier:
            for cell in net_to_cells.get(net, []):
                if cell.name in seen:
                    continue
                seen.add(cell.name)
                order.append(cell)
                next_frontier.extend(cell.pins.values())
        frontier = next_frontier
    for cell in std_cells:
        if cell.name not in seen:
            order.append(cell)
    return order


def reference_place(netlist, floorplan, seed=2015, anneal_moves=None):
    """Row fill plus pairwise-swap annealing, recomputing each affected
    net's HPWL from ``Placement`` objects keyed by cell name."""
    rng = random.Random(seed)
    core = floorplan.core
    row_height = floorplan.row_height
    positions: Dict[str, Placement] = dict(floorplan.macros)
    std_cells = _reference_connectivity_order(netlist)
    x = core.x
    row = 0
    for cell in std_cells:
        width = max(cell.model.area / row_height, 0.1)
        if x + width > core.x + core.width:
            row += 1
            x = core.x
            assert row < floorplan.rows, "core rows ran out"
        y = core.y + row * row_height
        positions[cell.name] = Placement(x, y, width, row_height)
        x += width
    if anneal_moves is None:
        anneal_moves = min(20000, 40 * len(std_cells))
    if anneal_moves and len(std_cells) >= 2:
        _reference_anneal(netlist, floorplan, positions, std_cells, rng,
                          anneal_moves)
    return positions


def _reference_anneal(netlist, floorplan, positions, std_cells, rng,
                      moves):
    net_cells: Dict[int, List[str]] = {}
    cell_nets: Dict[str, List[int]] = {}
    for cell in netlist.cells:
        cell_nets[cell.name] = list(set(cell.pins.values()))
        for net in cell_nets[cell.name]:
            net_cells.setdefault(net, []).append(cell.name)

    def net_len(net):
        names = net_cells.get(net, [])
        if len(names) < 2:
            return 0.0
        xs = [positions[n].cx for n in names]
        ys = [positions[n].cy for n in names]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    names = [c.name for c in std_cells]
    current_cost = {net: net_len(net) for net in net_cells}
    temp = 0.3 * (floorplan.die_width + floorplan.die_height)
    cooling = 0.995 ** (1.0 / max(1, moves / 1000))
    for _ in range(moves):
        a, b = rng.sample(names, 2)
        affected = set(cell_nets[a]) | set(cell_nets[b])
        before = sum(current_cost[n] for n in affected)
        pa, pb = positions[a], positions[b]
        positions[a] = Placement(pb.x, pb.y, pa.width, pa.height)
        positions[b] = Placement(pa.x, pa.y, pb.width, pb.height)
        after_costs = {n: net_len(n) for n in affected}
        after = sum(after_costs.values())
        delta = after - before
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp,
                                                              1e-9)):
            current_cost.update(after_costs)
        else:
            positions[a], positions[b] = pa, pb
        temp *= cooling


# --- reference simulator: per-cell catalog lookups every settle ------------


class ReferenceSimulator(LogicSimulator):
    """``settle`` as a topological walk that looks each cell's gate up
    in the catalog and evaluates it through ``GateType.evaluate``."""

    def __init__(self, netlist, clock_port="clk"):
        super().__init__(netlist, clock_port)
        self._reference_order = _reference_topo_order(self._comb_cells)

    def _eval_cell(self, cell):
        from repro.circuit.gates import gate_type
        gate = gate_type(cell.model.gate_name)
        in_values = [self.values[cell.pins[pin]] for pin in gate.pins]
        self._set_net(cell.pins["Y"], gate.evaluate(in_values))

    def settle(self):
        for cell in self._reference_order:
            self._eval_cell(cell)


def _reference_topo_order(comb_cells):
    deps: Dict[int, Set[int]] = {i: set() for i in range(len(comb_cells))}
    out_of: Dict[int, int] = {}
    for i, cell in enumerate(comb_cells):
        for pin, net in cell.pins.items():
            if cell.model.pins[cell.base_pin(pin)].direction == "output":
                out_of[net] = i
    for i, cell in enumerate(comb_cells):
        for pin, net in cell.pins.items():
            if cell.model.pins[cell.base_pin(pin)].direction != \
                    "output" and net in out_of:
                deps[i].add(out_of[net])
    indeg = {i: len(deps[i]) for i in deps}
    users: Dict[int, List[int]] = {}
    for i, ds in deps.items():
        for d in ds:
            users.setdefault(d, []).append(i)
    ready = [i for i, d in indeg.items() if d == 0]
    topo: List[int] = []
    while ready:
        i = ready.pop()
        topo.append(i)
        for u in users.get(i, []):
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return [comb_cells[i] for i in topo]


# --- reference LUT lookup: numpy searchsorted per scalar --------------------


def _reference_axis_segment(axis, x):
    n = len(axis)
    if n == 1:
        return 0, 0.0
    lo = int(np.searchsorted(axis, x, side="right")) - 1
    lo = min(max(lo, 0), n - 2)
    span = axis[lo + 1] - axis[lo]
    return lo, (x - axis[lo]) / span


def reference_value(lut, slew, load):
    i, fi = _reference_axis_segment(lut.slews, slew)
    j, fj = _reference_axis_segment(lut.loads, load)
    v = lut.values
    if len(lut.slews) == 1 and len(lut.loads) == 1:
        return v[0][0]
    if len(lut.slews) == 1:
        return v[0][j] * (1 - fj) + v[0][j + 1] * fj
    if len(lut.loads) == 1:
        return v[i][0] * (1 - fi) + v[i + 1][0] * fi
    top = v[i][j] * (1 - fj) + v[i][j + 1] * fj
    bot = v[i + 1][j] * (1 - fj) + v[i + 1][j + 1] * fj
    return top * (1 - fi) + bot * fi


# --- designs ----------------------------------------------------------------

DESIGNS = {
    "fig3_32x10b_16w": (sram_brick(16, 10), 32, build_sram),
    "sram_128x16b_32w": (sram_brick(32, 16), 128, build_sram),
    "cam_16x10b_16w": (cam_brick(16, 10), 16, build_cam),
}


@pytest.fixture(scope="module")
def flat_designs(tech, stdlib):
    designs = {}
    for name, (brick, words, build) in DESIGNS.items():
        config = single_partition(brick, words)
        bricks, _ = generate_brick_library(
            [(config.brick, config.stack)], Session(tech))
        flat = elaborate(build(config), stdlib.merged_with(bricks))
        designs[name] = (flat, build_floorplan(flat, tech))
    return designs


def _hand_built(n_std):
    """A brick macro plus ``n_std`` std cells of three widths: one
    high-fanout net through the macro and every std cell, a 1-pin net, a
    net shared by the first two std cells, and a chain between
    neighbours.  With ``n_std == 2`` every swap is of two cells that
    share nets."""
    def model(is_brick, area):
        return SimpleNamespace(is_brick=is_brick, area=area)

    cells = [FlatCell("mac", model(True, 200.0), {"P0": 0, "P1": 1})]
    for i in range(n_std):
        pins = {"F": 1, "C": 10 + i, "N": 11 + i}
        if i == 0:
            pins["S"] = 2   # 1-pin net
        if i < 2:
            pins["T"] = 3   # shared by the first two std cells
        cells.append(FlatCell(f"c{i}", model(False, 2.0 * (1 + i % 3)),
                              pins))
    n_nets = 12 + n_std
    netlist = FlatNetlist("hand", [f"n{i}" for i in range(n_nets)], cells,
                          inputs={}, outputs={"o": [0]}, constants={})
    floorplan = Floorplan(
        die_width=40.0, die_height=20.0,
        macros={"mac": Placement(0.0, 0.0, 10.0, 20.0)},
        core=Placement(12.0, 0.0, 28.0, 20.0), rows=10, row_height=2.0,
        utilization_target=0.5)
    return netlist, floorplan


SEEDS = (1, 2015, 7)
MOVES = (1, 2, 50, 2000, None)


class TestAnnealerMatchesReference:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("moves", MOVES)
    def test_positions_identical(self, flat_designs, design, seed, moves):
        netlist, floorplan = flat_designs[design]
        fast = place(netlist, floorplan, seed=seed, anneal_moves=moves)
        expected = reference_place(netlist, floorplan, seed=seed,
                                   anneal_moves=moves)
        assert list(fast.positions) == list(expected)
        assert fast.positions == expected

    @pytest.mark.parametrize("n_std", (2, 12))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("moves", MOVES)
    def test_hand_built_netlist(self, n_std, seed, moves):
        netlist, floorplan = _hand_built(n_std)
        fast = place(netlist, floorplan, seed=seed, anneal_moves=moves)
        expected = reference_place(netlist, floorplan, seed=seed,
                                   anneal_moves=moves)
        assert fast.positions == expected

    def test_annealing_moves_cells(self, flat_designs):
        """Guard against a vacuous comparison: the anneal does change
        the row-fill placement."""
        netlist, floorplan = flat_designs["fig3_32x10b_16w"]
        assert place(netlist, floorplan, anneal_moves=2000).positions != \
            place(netlist, floorplan, anneal_moves=0).positions


# --- simulator ----------------------------------------------------------------


def _drive(sim, words, bits, seed=11):
    """The fig3_flow stimulus: random reads and writes every cycle."""
    rng = random.Random(seed)
    outputs = []
    for _ in range(64):
        sim.set_input("raddr", rng.randrange(words))
        sim.set_input("waddr", rng.randrange(words))
        sim.set_input("din", rng.randrange(1 << bits))
        sim.set_input("we", 1)
        sim.clock()
        outputs.append(sim.get_output("dout"))
    return outputs


class TestSimulatorMatchesReference:
    @pytest.mark.parametrize("design", ["fig3_32x10b_16w",
                                        "sram_128x16b_32w"])
    def test_activity_and_outputs_identical(self, flat_designs, design):
        netlist, _ = flat_designs[design]
        brick, words, _ = DESIGNS[design]
        fast, ref = LogicSimulator(netlist), ReferenceSimulator(netlist)
        assert _drive(fast, words, brick.bits) == \
            _drive(ref, words, brick.bits)
        assert fast.activity.toggles == ref.activity.toggles
        assert fast.activity.cell_ops == ref.activity.cell_ops
        assert fast.activity.cycles == ref.activity.cycles == 64
        assert fast.values == ref.values
        assert all(type(v) is bool for v in fast.values)
        assert sum(fast.activity.toggles.values()) > 0

    def test_cam_match_identical(self, flat_designs):
        netlist, _ = flat_designs["cam_16x10b_16w"]
        sims = LogicSimulator(netlist), ReferenceSimulator(netlist)
        for sim in sims:
            for addr, key in enumerate([5, 9, 5, 700]):
                sim.set_input("waddr", addr)
                sim.set_input("wdata", key)
                sim.set_input("we", 1)
                sim.set_input("key", 0)
                sim.clock()
            sim.set_input("we", 0)
            sim.set_input("key", 5)
            sim.clock()
        fast, ref = sims
        assert fast.get_output("ml") == ref.get_output("ml") != 0
        assert fast.activity.toggles == ref.activity.toggles
        assert fast.activity.cell_ops == ref.activity.cell_ops


# --- LUT ------------------------------------------------------------------------

SLEWS = (1e-12, 5e-12, 2e-11, 8e-11)
LOADS = (1e-15, 4e-15, 1.6e-14)


def _grid(slews, loads):
    return LUT2D.from_function(lambda s, ld: 3e-11 + 2.0 * s + 7e3 * ld
                               + 1e13 * s * ld, slews, loads)


def _probes(axis):
    lo, hi = axis[0], axis[-1]
    mids = [(a + b) / 2 for a, b in zip(axis, axis[1:])]
    return [*axis, *mids, lo - abs(lo) - 1e-12, hi * 3.0, 0.0,
            math.inf, -math.inf, math.nan]


class TestLUTMatchesReference:
    @pytest.mark.parametrize("slews,loads", [
        (SLEWS, LOADS), ((5e-12,), LOADS), (SLEWS, (4e-15,)),
        ((5e-12,), (4e-15,))], ids=["2d", "1-slew", "1-load", "1x1"])
    def test_value_identical(self, slews, loads):
        lut = _grid(slews, loads)
        for s in _probes(slews):
            for ld in _probes(loads):
                got, want = lut.value(s, ld), reference_value(lut, s, ld)
                assert got == want or (math.isnan(got)
                                       and math.isnan(want)), (s, ld)


# --- reference signoff worker: a fresh Random per die, every die repaired ---


def _reference_poisson(rng, lam):
    if lam <= 0.0:
        return 0
    threshold = math.exp(-lam)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def reference_sample(model, spec, rng):
    """``DefectModel.sample`` computing each threshold per call and
    calling ``rng.sample`` even for a count of 0."""
    defects = []
    n_cells = spec.words * spec.bits
    for _ in range(min(_reference_poisson(rng, model.p_stuck_at * n_cells),
                       n_cells)):
        cell = rng.randrange(n_cells)
        kind = STUCK_AT_1 if rng.random() < 0.5 else STUCK_AT_0
        defects.append(Defect(kind, row=cell // spec.bits,
                              bit=cell % spec.bits))
    n_pairs = spec.words - 1
    lam = model.p_wordline_bridge * n_pairs
    for pair in sorted(rng.sample(range(n_pairs),
                                  min(_reference_poisson(rng, lam), n_pairs))
                       if n_pairs else []):
        defects.append(Defect(WORDLINE_BRIDGE, row=pair))
    lam = model.p_weak_sense * spec.bits
    for bit in sorted(rng.sample(range(spec.bits),
                                 min(_reference_poisson(rng, lam),
                                     spec.bits))):
        defects.append(Defect(WEAK_SENSE, bit=bit))
    lam = model.p_open_via * spec.bits
    for bit in sorted(rng.sample(range(spec.bits),
                                 min(_reference_poisson(rng, lam),
                                     spec.bits))):
        defects.append(Defect(OPEN_VIA, bit=bit))
    return tuple(defects)


def reference_chunk_worker(task):
    (spec, model, defects, repair, chunk, start, stop, key) = task
    cols = pvt_columns(model, key, start, stop)
    n = stop - start
    derate = np.ones(n, dtype=np.float64)
    raw_ok = np.zeros(n, dtype=bool)
    repaired_ok = np.zeros(n, dtype=bool)
    counts: Dict[str, int] = {}
    for i in range(n):
        die = random.Random(f"{key}:defect:{start + i}")
        faulty = FaultyBrick(spec, reference_sample(defects, spec, die))
        for defect in faulty.defects:
            counts[defect.kind] = counts.get(defect.kind, 0) + 1
        raw_ok[i] = faulty.is_perfect
        repaired_ok[i] = apply_repair(faulty, repair).ok
        derate[i] = faulty.delay_derate(defects)
    return ChunkResult(
        chunk=chunk, start=start, stop=stop,
        r_scale=cols["r_scale"], c_scale=cols["c_scale"],
        vdd_scale=cols["vdd_scale"], leak_scale=cols["leak_scale"],
        derate=derate, raw_ok=raw_ok, repaired_ok=repaired_ok,
        defect_counts=counts)


# --- reference bootstrap: the whole (n_boot, n) index matrix at once --------


def reference_resample_indices(key, n_values, n_boot, block=0):
    offset = np.uint64(block) * np.uint64(0x1000000000)
    counters = offset + np.arange(n_boot * n_values, dtype=np.uint64)
    u = uniforms(key, counters)
    idx = np.floor((1.0 - u) * n_values).astype(np.int64)
    return idx.reshape(n_boot, n_values)


def reference_summary(values, key, idx):
    p50, p95, p999 = np.percentile(values, PERCENTILES)
    if values.shape[0] == 1:
        lo = hi = values[0]
    else:
        lo, hi = np.percentile(values[idx].mean(axis=1), (2.5, 97.5))
    return {"mean": float(values.mean()), "p50": float(p50),
            "p95": float(p95), "p99_9": float(p999),
            "ci_lo": float(lo), "ci_hi": float(hi)}


SIGNOFF_BRICKS = {
    "8T_16x10": BrickSpec("8T", 16, 10),
    "1_word": BrickSpec("8T", 1, 8),    # no adjacent row pairs
    "8T_64x32": BrickSpec("8T", 64, 32),
}
#: The default rates, a hot model (every mechanism fires in a few
#: hundred dies) and one with two mechanisms switched off.
DEFECT_MODELS = {
    "default": DefectModel(),
    "hot": DefectModel(p_stuck_at=2e-3, p_wordline_bridge=2e-3,
                       p_weak_sense=5e-3, p_open_via=2e-3),
    "no_stuck_no_via": DefectModel(p_stuck_at=0.0, p_open_via=0.0,
                                   p_weak_sense=5e-3),
}
REPAIR_PLANS = {"spares": RepairPlan(), "ecc": RepairPlan(ecc=True)}
#: (chunk index, start, stop): the first chunk and one further in.
SIGNOFF_CHUNKS = ((0, 0, 300), (5, 1280, 1580))
CHUNK_FIELDS = ("r_scale", "c_scale", "vdd_scale", "leak_scale", "derate",
                "raw_ok", "repaired_ok")


def _chunk_task(brick, model, plan, chunk):
    spec = SIGNOFF_BRICKS[brick]
    index, start, stop = chunk
    key = stream_key(11, f"signoff:{spec.name}:s1")
    return (spec, VariationModel(), DEFECT_MODELS[model],
            REPAIR_PLANS[plan], index, start, stop, key)


class TestSignoffWorkerMatchesReference:
    @pytest.mark.parametrize("brick", sorted(SIGNOFF_BRICKS))
    @pytest.mark.parametrize("model", ["default", "hot"])
    @pytest.mark.parametrize("plan", sorted(REPAIR_PLANS))
    @pytest.mark.parametrize("chunk", SIGNOFF_CHUNKS,
                             ids=["start0", "start1280"])
    def test_chunk_identical(self, brick, model, plan, chunk):
        task = _chunk_task(brick, model, plan, chunk)
        fast, expected = _chunk_worker(task), reference_chunk_worker(task)
        assert (fast.chunk, fast.start, fast.stop) == \
            (expected.chunk, expected.start, expected.stop)
        for name in CHUNK_FIELDS:
            got, want = getattr(fast, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert fast.defect_counts == expected.defect_counts

    @pytest.mark.parametrize("brick", sorted(SIGNOFF_BRICKS))
    @pytest.mark.parametrize("model", sorted(DEFECT_MODELS))
    def test_sampler_consumes_the_same_draws(self, brick, model):
        """One stream over many dies, as ``analyze_yield`` draws them:
        equal defects and an equal generator state after every die."""
        spec, defects = SIGNOFF_BRICKS[brick], DEFECT_MODELS[model]
        fast, ref = random.Random(2015), random.Random(2015)
        for _ in range(400):
            assert defects.sample(spec, fast) == \
                reference_sample(defects, spec, ref)
            assert fast.getstate() == ref.getstate()

    def test_cases_are_not_vacuous(self):
        """The compared chunks hold perfect dies, defective dies that
        repair, dies that do not, and weak-column derates."""
        default = _chunk_worker(_chunk_task("8T_16x10", "default",
                                            "spares", SIGNOFF_CHUNKS[0]))
        assert default.raw_ok.any() and not default.raw_ok.all()
        assert (default.repaired_ok & ~default.raw_ok).any()
        hot = _chunk_worker(_chunk_task("8T_64x32", "hot", "ecc",
                                        SIGNOFF_CHUNKS[1]))
        assert hot.repaired_ok.any() and not hot.repaired_ok.all()
        assert (hot.derate > 1.0).any()
        assert set(hot.defect_counts) == {STUCK_AT_0, STUCK_AT_1,
                                          WORDLINE_BRIDGE, WEAK_SENSE,
                                          OPEN_VIA}
        one_word = _chunk_worker(_chunk_task("1_word", "hot", "spares",
                                             SIGNOFF_CHUNKS[0]))
        assert one_word.defect_counts
        assert WORDLINE_BRIDGE not in one_word.defect_counts


BOOT_SIZES = (1, 2, 37, 5000)


def _boot_columns(n):
    """Three float columns of different scales and two 0/1 columns."""
    g = normals(stream_key(4, f"boot-columns:{n}"), 0, n, 3)
    floats = [2e-10 * np.exp(0.1 * g[:, 0]), g[:, 1],
              1e-12 * (1.0 + g[:, 2] * g[:, 2])]
    flags = [g[:, 0] > -1.6, g[:, 1] > 0.3]
    return floats, flags


class TestBootstrapMatchesReference:
    @pytest.mark.parametrize("n", BOOT_SIZES)
    @pytest.mark.parametrize("boot_batch", [None, 64],
                             ids=["default-blocks", "one-row-blocks"])
    def test_summaries_identical(self, monkeypatch, n, boot_batch):
        if boot_batch is not None:
            monkeypatch.setattr(signoff_stats, "BOOT_BATCH", boot_batch)
        floats, flags = _boot_columns(n)
        key = stream_key(11, "signoff-boot:oracle")
        idx = reference_resample_indices(key, n, N_BOOT)
        want = ([reference_summary(col, key, idx) for col in floats]
                + [reference_summary(f.astype(np.float64), key, idx)
                   for f in flags])
        assert summarize(np.stack(floats + flags), key=key) == want
        for col, expected in zip(floats, want):
            assert summarize(col, key=key) == expected
        for f, expected in zip(flags, want[len(floats):]):
            assert proportion_summary(summarize(f, key=key)) == {
                "rate": expected["mean"], "ci_lo": expected["ci_lo"],
                "ci_hi": expected["ci_hi"]}

    @pytest.mark.parametrize("block", [0, 3])
    def test_resample_rows_identical(self, block):
        key = stream_key(9, "boot")
        whole = reference_resample_indices(key, 37, 50, block=block)
        assert np.array_equal(resample_indices(key, 37, 50, block=block),
                              whole)
        parts = [resample_indices(key, 37, min(7, 50 - first),
                                  block=block, start=first)
                 for first in range(0, 50, 7)]
        assert np.array_equal(np.concatenate(parts), whole)


# --- reference transient simulator: dense LU in sorted node order -----------


class ReferenceTransientSimulator:
    """Backward Euler over dense ``n x n`` C and G, free nodes in sorted
    order, the free block refactorized by dense LU under the banded
    simulator's refactor rule, each source current its own pair of dot
    products.  ``factorizations`` counts the LUs of the last run."""

    def __init__(self, circuit, tech):
        circuit.validate()
        self.circuit = circuit
        self.tech = tech
        self._free = circuit.free_nodes()
        driven = circuit.driven_nodes()
        self._index = {GND: -1}
        for i, node in enumerate(self._free + sorted(driven)):
            self._index[node] = i
        self._n_free = len(self._free)
        self._n_all = len(self._index) - 1
        self._sources = [driven[node] for node in sorted(driven)]
        self._driven_idx = np.array(
            [self._index[src.node] for src in self._sources], dtype=np.intp)
        self.factorizations = 0
        self._build_static()

    def _build_static(self):
        n = self._n_all
        self._cmat = np.zeros((n, n))
        self._gstatic = np.zeros((n, n))
        np.fill_diagonal(self._gstatic, spice._GMIN)

        def stamp(mat, a, b, value):
            for row, col, sign in spice._stamp_entries(self._index[a],
                                                       self._index[b]):
                mat[row, col] += sign * value

        for cap in self.circuit.capacitors:
            stamp(self._cmat, cap.a, cap.b, cap.c)
        for res in self.circuit.resistors:
            stamp(self._gstatic, res.a, res.b, 1.0 / res.r)
        mosfets = self.circuit.mosfets
        devices = [Transistor(m.kind, m.w_um) for m in mosfets]
        for mos, device in zip(mosfets, devices):
            stamp(self._cmat, mos.gate, GND, device.c_gate(self.tech))
            stamp(self._cmat, mos.drain, GND, device.c_drain(self.tech))
            stamp(self._cmat, mos.source, GND, device.c_drain(self.tech))

        def terminals(node_of):
            return np.array([self._index[node_of(m)] for m in mosfets],
                            dtype=np.intp)

        self._gate = terminals(lambda m: m.gate)
        self._drain = terminals(lambda m: m.drain)
        self._source = terminals(lambda m: m.source)
        self._is_nmos = np.array([m.kind == NMOS for m in mosfets],
                                 dtype=bool)
        self._r_on = np.array([d.r_on(self.tech) for d in devices])
        rows, cols, dev, signs = [], [], [], []
        for k, mos in enumerate(mosfets):
            for row, col, sign in spice._stamp_entries(
                    self._index[mos.drain], self._index[mos.source]):
                rows.append(row)
                cols.append(col)
                dev.append(k)
                signs.append(sign)
        self._stamp_at = (np.array(rows, dtype=np.intp),
                          np.array(cols, dtype=np.intp))
        self._stamp_dev = np.array(dev, dtype=np.intp)
        self._stamp_sign = np.array(signs)

    def _drives(self, v):
        v_g = v[self._gate]
        v_d = v[self._drain]
        v_s = v[self._source]
        return np.where(self._is_nmos, v_g - np.minimum(v_d, v_s),
                        np.maximum(v_d, v_s) - v_g)

    def run(self, t_stop, dt, v_init=None, refactor_tol=1e-3):
        steps = int(round(t_stop / dt))
        n, nf = self._n_all, self._n_free
        sources, driven_idx = self._sources, self._driven_idx
        v = np.zeros(n + 1)
        for node, value in (v_init or {}).items():
            if self._index[node] >= 0:
                v[self._index[node]] = value
        for src, idx in zip(sources, driven_idx):
            v[idx] = src.value(0.0)
        times = np.linspace(0.0, steps * dt, steps + 1)
        history = np.empty((steps + 1, n))
        history[0] = v[:n]
        c_over_dt = self._cmat / dt
        c_free = c_over_dt[:nf]
        c_rows = [self._cmat[idx] for idx in driven_idx]
        i_out = np.empty(len(sources))
        charge = np.zeros(len(sources))
        energy = np.zeros(len(sources))
        energy_history = np.zeros((len(sources), steps + 1))
        self.factorizations = 0
        g_last = None
        lu = None
        for step in range(1, steps + 1):
            t_now = times[step]
            g_mos = conductances(self._drives(v), self._r_on, self.tech)
            if lu is None or (
                    g_mos.size > 0
                    and np.abs(g_mos - g_last).max() >
                    refactor_tol * (np.abs(g_last).max() + spice._GMIN)):
                g_full = self._gstatic.copy()
                np.add.at(g_full, self._stamp_at,
                          g_mos[self._stamp_dev] * self._stamp_sign)
                a_full = c_over_dt + g_full
                lu = (scipy.linalg.lu_factor(a_full[:nf, :nf])
                      if nf else ())
                self.factorizations += 1
                coupling = a_full[:nf, nf:].copy()
                g_rows = [g_full[idx] for idx in driven_idx]
                g_last = g_mos
            v_old = v
            v = v_old.copy()
            v_driven = np.array([src.value(t_now) for src in sources])
            v[driven_idx] = v_driven
            rhs = c_free @ v_old[:n]
            if sources:
                rhs -= coupling @ v_driven
            if nf:
                v[:nf] = scipy.linalg.lu_solve(lu, rhs)
            v_now = v[:n]
            dv_dt = (v_now - v_old[:n]) / dt
            for k, (row_c, row_g) in enumerate(zip(c_rows, g_rows)):
                i_out[k] = row_c @ dv_dt + row_g @ v_now
            charge += i_out * dt
            energy += i_out * v_driven * dt
            energy_history[:, step] = energy
            history[step] = v_now
        voltages = {node: history[:, idx]
                    for node, idx in self._index.items() if idx >= 0}
        voltages[GND] = np.zeros(steps + 1)
        names = [src.name for src in sources]
        return TransientResult(times, voltages, dict(zip(names, energy)),
                               dict(zip(names, charge)),
                               dict(zip(names, energy_history)))

    def charge_scale(self, t_stop):
        """Per source name, the charge its node could move in ``t_stop``
        per volt: every capacitance and ``t_stop`` times every conductance
        on its row, devices fully on.  A source current is a sum of such
        terms, so this is the scale its rounding errors follow."""
        g_on = np.abs(self._gstatic).copy()
        for k in range(len(self._r_on)):
            for i in (self._drain[k], self._source[k]):
                if i >= 0:
                    g_on[i, i] += 2.0 / self._r_on[k]
        return {src.name: np.abs(self._cmat[idx]).sum()
                + t_stop * g_on[idx].sum()
                for src, idx in zip(self._sources, self._driven_idx)}


def _within(got, want, scale):
    """Every element of ``got`` within ``1e-9 * (|want| + scale)``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bad = np.abs(got - want) > 1e-9 * (np.abs(want) + scale)
    assert not bad.any(), (np.argwhere(bad)[:5], got[bad][:5],
                           want[bad][:5])


def _assert_matches_reference(ckt, tech, monkeypatch, **kwargs):
    """Run the banded simulator and the dense-LU oracle on ``ckt``: equal
    factorization counts, every sample within 1e-9.  Voltages compare on
    the run's largest voltage, charges and energies on each source's
    :meth:`~ReferenceTransientSimulator.charge_scale`."""
    count = [0]
    factor = spice.lu_factor

    def counting(band):
        count[0] += 1
        return factor(band)

    monkeypatch.setattr(spice, "lu_factor", counting)
    fast = TransientSimulator(ckt, tech).run(**kwargs)
    monkeypatch.setattr(spice, "lu_factor", factor)
    ref_sim = ReferenceTransientSimulator(ckt, tech)
    ref = ref_sim.run(**kwargs)
    assert count[0] == ref_sim.factorizations

    assert np.array_equal(fast.t, ref.t)
    assert fast.voltages.keys() == ref.voltages.keys()
    nodes = sorted(ref.voltages)
    want = np.stack([ref.voltages[k] for k in nodes])
    v_scale = np.abs(want).max()
    _within(np.stack([fast.voltages[k] for k in nodes]), want, v_scale)
    names = sorted(ref.source_energy)
    assert sorted(fast.source_energy) == names
    q_scale = ref_sim.charge_scale(kwargs["t_stop"])
    q_scale = v_scale * np.array([q_scale[k] for k in names])
    for k, name in enumerate(names):
        _within(fast.source_charge[name], ref.source_charge[name],
                q_scale[k])
        _within(fast.source_energy[name], ref.source_energy[name],
                q_scale[k] * v_scale)
        _within(fast.source_energy_history[name],
                ref.source_energy_history[name], q_scale[k] * v_scale)


class TestTransientMatchesReference:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CIRCUITS))
    def test_golden_circuits(self, tech, monkeypatch, name):
        ckt, kwargs = GOLDEN_CIRCUITS[name](tech)
        _assert_matches_reference(ckt, tech, monkeypatch, **kwargs)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_random_rc_mos_circuits(self, tech, monkeypatch, data):
        ckt, kwargs = data.draw(_random_circuits(tech))
        _assert_matches_reference(ckt, tech, monkeypatch, **kwargs)

    @pytest.mark.parametrize("words,bits", [(4, 4), (16, 10)])
    @pytest.mark.parametrize("build", [build_read_testbench,
                                       build_write_testbench],
                             ids=["read", "write"])
    def test_table1_testbenches(self, tech, monkeypatch, words, bits,
                                build):
        compiled = compile_brick(sram_brick(words, bits), tech,
                                 target_stack=1)
        self._check_testbench(build(compiled, tech, stack=1), tech,
                              monkeypatch)

    def test_cam_match_testbench(self, tech, monkeypatch):
        compiled = compile_brick(cam_brick(16, 10), tech)
        self._check_testbench(build_match_testbench(compiled, tech), tech,
                              monkeypatch)

    @staticmethod
    def _check_testbench(bench, tech, monkeypatch):
        _assert_matches_reference(bench.circuit, tech, monkeypatch,
                                  t_stop=bench.window[1], dt=1.0 * PS)
        # The measured numbers, through BrickTestbench.run.
        fast_numbers = bench.run(tech)
        monkeypatch.setattr(extract, "TransientSimulator",
                            ReferenceTransientSimulator)
        ref_numbers = bench.run(tech)
        assert fast_numbers == pytest.approx(ref_numbers, rel=1e-9, abs=0)


@st.composite
def _random_circuits(draw, tech):
    """Small RC+MOS circuits: constant and ramped sources (possibly
    none), resistors, grounded and coupling capacitors, and devices whose
    terminals may be driven, grounded or free; a free node may touch
    only device terminals (no resistor, no capacitor of its own).

    Source levels avoid the threshold voltage and ``refactor_tol`` is
    positive: a gate held exactly at threshold, or a zero tolerance, makes
    the refactor decision turn on rounding noise, where two solvers may
    legitimately refactorize at different steps."""
    n_free = draw(st.integers(1, 7))
    n_src = draw(st.integers(0, 3))
    free = [f"n{i}" for i in range(n_free)]
    driven = [f"s{i}" for i in range(n_src)]
    nodes = free + driven + [GND]
    levels = st.sampled_from([0.0, 0.5 * tech.vdd, tech.vdd])
    ckt = SpiceCircuit("random")
    for i, node in enumerate(driven):
        if draw(st.booleans()):
            ckt.add_vsource(f"v{i}", node, draw(levels))
        else:
            ckt.add_vsource(f"v{i}", node, ramp(
                draw(st.floats(5 * PS, 100 * PS)),
                draw(st.floats(1 * PS, 40 * PS)), draw(levels),
                draw(levels)))
    pairs = st.lists(st.tuples(st.sampled_from(nodes),
                               st.sampled_from(nodes)).filter(
        lambda p: p[0] != p[1]), max_size=10)
    for k, (a, b) in enumerate(draw(pairs)):
        ckt.add_resistor(f"r{k}", a, b, draw(st.floats(200.0, 50e3)))
    for k, (a, b) in enumerate(draw(pairs)):
        ckt.add_capacitor(f"cc{k}", a, draw(st.floats(0.1 * FF, 5 * FF)),
                          b=b)
    for k, (d, s) in enumerate(draw(pairs)):
        ckt.add_mosfet(f"m{k}", draw(st.sampled_from([NMOS, PMOS])),
                       draw(st.sampled_from(nodes)), d, s,
                       draw(st.floats(0.12, 1.0)))
    # Every free node has capacitance to ground, a device's parasitics or
    # its own capacitor, as extraction leaves it.  A node held only by
    # coupling capacitors is conditioned by GMIN alone (cond ~ C/(dt GMIN)
    # ~ 1e10), where no two solvers agree to 1e-9.
    on_device = {n for m in ckt.mosfets for n in (m.gate, m.drain,
                                                  m.source)}
    for node in free:
        if node not in on_device:
            ckt.add_capacitor(f"c_{node}", node,
                              draw(st.floats(0.5 * FF, 10 * FF)))
    v_init = {node: draw(st.floats(0.0, tech.vdd)) for node in free}
    return ckt, {"t_stop": draw(st.sampled_from([60 * PS, 150 * PS])),
                 "dt": draw(st.sampled_from([0.5 * PS, 1.0 * PS])),
                 "v_init": v_init,
                 "refactor_tol": draw(st.sampled_from([1e-6, 1e-3, 0.1]))}


# --- reference waveform crossing: the per-sample loop ------------------------


def reference_crossing(wf, level, rising=None, after=0.0):
    """``Waveform.crossing`` as a loop over every sample interval."""
    t, v = wf.t, wf.v
    above = v >= level
    for i in range(1, t.size):
        if above[i] == above[i - 1]:
            continue
        is_rising = above[i] and not above[i - 1]
        if rising is not None and rising != is_rising:
            continue
        dv = v[i] - v[i - 1]
        if dv == 0:
            crossing_time = float(t[i])
        else:
            frac = (level - v[i - 1]) / dv
            crossing_time = float(t[i - 1] + frac * (t[i] - t[i - 1]))
        if crossing_time < after:
            continue
        return crossing_time
    raise SimulationError("no crossing")


def _crossing_or_error(crossing, *args):
    with np.errstate(all="ignore"):
        try:
            return crossing(*args)
        except SimulationError:
            return "no crossing"


_LEVEL = 0.6


class TestCrossingMatchesReference:
    samples = st.one_of(
        st.floats(-0.5, 1.7),
        st.sampled_from([_LEVEL, 0.0, 1.2, float("nan"), float("inf"),
                         -float("inf")]))

    @given(st.lists(st.tuples(st.floats(1e-15, 1e-10), samples),
                    min_size=2, max_size=40),
           st.sampled_from([None, True, False]),
           st.floats(-1e-10, 2e-9))
    @settings(max_examples=400, deadline=None)
    def test_first_crossing_identical(self, steps, rising, after):
        t = np.cumsum([dt for dt, _ in steps])
        wf = Waveform(t, [v for _, v in steps])
        got = _crossing_or_error(wf.crossing, _LEVEL, rising, after)
        want = _crossing_or_error(reference_crossing, wf, _LEVEL, rising,
                                  after)
        assert got == want or (got != got and want != want)

    def test_measured_delays_identical(self, tech, monkeypatch):
        """The crossings of a real transient, every level and direction."""
        ckt, kwargs = GOLDEN_CIRCUITS["inverter_chain"](tech)
        result = TransientSimulator(ckt, tech).run(**kwargs)
        for node in ("n1", "n2", "n3"):
            wf = result.waveform(node)
            for level in np.linspace(0.05, 1.15, 12):
                for rising in (None, True, False):
                    for after in (0.0, 60 * PS, 0.2e-9):
                        assert _crossing_or_error(
                            wf.crossing, level, rising, after) == \
                            _crossing_or_error(reference_crossing, wf,
                                               level, rising, after)
