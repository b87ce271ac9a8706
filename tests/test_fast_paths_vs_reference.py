"""The fast paths against the straightforward code they replaced.

Three hot loops of the Fig-3 flow are written for speed: placement (a
BFS seed order that visits each net once, then an annealer over index
arrays with incremental net bounding boxes), the logic simulator's
``settle`` (precompiled gate tuples) and the LUT axis lookup
(``bisect``).  Four more belong to Monte Carlo signoff: the chunk
worker over a vectorized defect population, the column repair
allocator (against the one-die ``apply_repair``), the in-place counter
streams, and the count-weighted paired bootstrap.  The waveform crossing search of the Table-1 measurements is
array operations, the testbench clocks sample a whole time grid in one
call, the transient reference evaluates its device law in place, and
the brick compiler and estimator are rows of the batch kernel.  Each
must give *exactly* the result of the plain version kept below as an
oracle: every final cell position, every toggle count, every
interpolated value, every die's outcome, every stream value, every
crossing time, every stimulus sample, every conductance and every
estimated field ``==``, not approximately equal.

Three are exceptions.  The bootstrap takes each resample mean as a
count-weighted product instead of a gather, which sums in another
order: its CI bounds must agree within 1e-12 relative, and exactly on
0/1 columns.  The transient reference's tridiagonal ``L D L^T`` (and,
for wider bands, banded Cholesky) solves the systems of the dense LU
kept below in another order of operations, so it must agree within
1e-9 and factorize at the same steps.  The batch
compiler tapers its stage caps with numpy's elementwise power, which
is not Python's ``**`` in the last bit: against the scalar sizer
``reference_compile_brick`` it picks the same stage counts and widths,
and caps within 1e-14 relative (``tests/test_batch_estimator.py``).
"""

import math
import random
from types import SimpleNamespace
from typing import Dict, List, Set

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bricks import brick_cell_model, build_match_testbench, \
    build_read_testbench, build_write_testbench, cam_brick, \
    compile_brick, estimate_brick, generate_brick_library, \
    single_partition, sram_brick
from repro.bricks import extract
from repro.bricks.batch import BrickSpecBatch, brick_rows, \
    compile_batch, compiled_row, estimate_batch
from repro.bricks.compiler import CompiledBrick, MatchPeriphery
from repro.bricks.estimator import _CROWBAR_FO4, _K50, BrickPerformance
from repro.bricks.layout import generate_layout
from repro.bricks.spec import MAX_BITS, MAX_WORDS, BrickSpec
from repro.cells.bitcells import MEMORY_TYPES, make_bitcell
from repro.cells.leafcells import ControlBlock, LocalSense, \
    WordlineDriver, inverter_widths
from repro.cells.stdcells import unit_input_cap
from repro.circuit import GND, SpiceCircuit, TransientSimulator, \
    Waveform, ramp
from repro.circuit import spice
from repro.circuit.logical_effort import optimal_stage_effort, \
    parasitic_inv
from repro.circuit.spice import TransientResult
from repro.errors import SimulationError
from repro.faults import DefectModel, RepairPlan, apply_repair, inject, \
    repair_population
from repro.faults.defects import (
    OPEN_VIA,
    STUCK_AT_0,
    STUCK_AT_1,
    WEAK_SENSE,
    WORDLINE_BRIDGE,
    Defect,
    FaultyBrick,
)
from repro.liberty.lut import LUT2D, default_load_axis, default_slew_axis
from repro.rtl import LogicSimulator, build_cam, build_sram, elaborate
from repro.rtl.module import FlatCell, FlatNetlist
from repro.session import Session
from repro.signoff import normals, pvt_columns, resample_indices, \
    stream_key, uniforms
from repro.signoff import rng as rng_module
from repro.signoff import stats as signoff_stats
from repro.signoff.engine import ChunkResult, _chunk_worker
from repro.signoff.stats import N_BOOT, PERCENTILES, proportion_summary, \
    summarize
from repro.silicon.variation import VariationModel
from repro.synth import build_floorplan, place
from repro.synth.floorplan import Floorplan, Placement
from repro.synth.place import _pair_sampler
from repro.tech.corners import CORNERS
from repro.tech.presets import cmos28, cmos65
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

    @pytest.mark.parametrize("n_std", (2, 12, 21, 22))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("moves", MOVES)
    def test_hand_built_netlist(self, n_std, seed, moves):
        netlist, floorplan = _hand_built(n_std)
        fast = place(netlist, floorplan, seed=seed, anneal_moves=moves)
        expected = reference_place(netlist, floorplan, seed=seed,
                                   anneal_moves=moves)
        assert fast.positions == expected

    @pytest.mark.parametrize("n", (2, 3, 21, 22, 797))
    def test_swap_draws_match_random_sample(self, n):
        """``random.sample`` picks from a pool up to 21 members and by
        rejection above; the swap draw mirrors both branches."""
        population = random.Random(n).sample(range(10 * n), n)
        ours, theirs = random.Random(2015), random.Random(2015)
        draw = _pair_sampler(ours, population)
        for _ in range(10_000):
            assert draw() == tuple(theirs.sample(population, 2))
        assert ours.getstate() == theirs.getstate()

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


# --- reference signoff worker: a scalar loop per die, every die repaired ----


def _reference_uniform(key, counter):
    """The splitmix64 uniform at one counter, as Python integers."""
    mask = (1 << 64) - 1
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return float((z >> 11) + 1) * 2.0 ** -53


def _reference_count(u, lam, cap):
    """Inverse Poisson CDF by a linear walk: the smallest count whose
    CDF reaches ``u``, capped at ``cap``, over the same truncated sum
    as the sampler's table."""
    if lam <= 0.0:
        return 0
    count, total = 0, 0.0
    while count < cap:
        p = math.exp(count * math.log(lam) - lam - math.lgamma(count + 1))
        if count > lam and total + p == total:
            break
        total += p
        if u <= total:
            break
        count += 1
    return count


def reference_die(model, spec, key, die):
    """One die's defects straight from the counter layout
    ``die << 32 | mechanism << 24 | slot``: Floyd's algorithm with a
    set for the distinct sites."""
    dkey = stream_key(key, "defect")

    def u(mechanism, slot):
        return _reference_uniform(dkey, (die << 32) | (mechanism << 24)
                                  | slot)

    n_cells, n_pairs = spec.words * spec.bits, spec.words - 1
    rates = ((model.p_stuck_at, n_cells), (model.p_wordline_bridge, n_pairs),
             (model.p_weak_sense, spec.bits), (model.p_open_via, spec.bits))
    counts = [_reference_count(u(m, 0), rate * sites, sites)
              for m, (rate, sites) in enumerate(rates)]
    defects = []
    for slot in range(1, counts[0] + 1):
        code = int(math.floor((1.0 - u(0, slot)) * (2 * n_cells)))
        cell = code // 2
        defects.append(Defect(STUCK_AT_1 if code % 2 else STUCK_AT_0,
                              row=cell // spec.bits, bit=cell % spec.bits))
    for m, kind, field in ((1, WORDLINE_BRIDGE, "row"),
                           (2, WEAK_SENSE, "bit"), (3, OPEN_VIA, "bit")):
        sites, k, picked = rates[m][1], counts[m], set()
        for step in range(k):
            j = sites - k + step
            t = int(math.floor((1.0 - u(m, step + 1)) * (j + 1)))
            picked.add(j if t in picked else t)
        defects += [Defect(kind, **{field: site})
                    for site in sorted(picked)]
    return FaultyBrick(spec, tuple(defects))


def reference_chunk_worker(task):
    (spec, model, defects, repair, chunk, start, stop, key) = task
    cols = pvt_columns(model, key, start, stop)
    n = stop - start
    derate = np.ones(n, dtype=np.float64)
    raw_ok = np.zeros(n, dtype=bool)
    repaired_ok = np.zeros(n, dtype=bool)
    counts: Dict[str, int] = {}
    for i in range(n):
        faulty = reference_die(defects, spec, key, start + i)
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


# --- reference counter streams: one fresh array per operation ---------------


def reference_uniforms(key, counters):
    counters = np.asarray(counters, dtype=np.uint64)
    z = np.uint64(key) + (counters + np.uint64(1)) \
        * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)) + np.uint64(1)).astype(np.float64) \
        * float(2.0 ** -53)


def reference_normals(key, start, stop, n_draws):
    index = np.arange(start, stop, dtype=np.uint64)[:, None]
    draw = np.arange(n_draws, dtype=np.uint64)[None, :]
    base = index * np.uint64(2 * n_draws) + draw * np.uint64(2)
    u1 = reference_uniforms(key, base)
    u2 = reference_uniforms(key, base + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


# --- reference bootstrap: the whole (n_boot, n) index matrix, gathered ------


def reference_resample_indices(key, n_values, n_boot, block=0):
    offset = np.uint64(block) * np.uint64(0x1000000000)
    counters = offset + np.arange(n_boot * n_values, dtype=np.uint64)
    u = reference_uniforms(key, counters)
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
#: hundred dies), one with two mechanisms switched off, and a dense one
#: whose distinct-site counts reach their caps (so Floyd's algorithm
#: meets taken sites).
DEFECT_MODELS = {
    "default": DefectModel(),
    "hot": DefectModel(p_stuck_at=2e-3, p_wordline_bridge=2e-3,
                       p_weak_sense=5e-3, p_open_via=2e-3),
    "no_stuck_no_via": DefectModel(p_stuck_at=0.0, p_open_via=0.0,
                                   p_weak_sense=5e-3),
    "dense": DefectModel(p_stuck_at=0.02, p_wordline_bridge=0.6,
                         p_weak_sense=0.9, p_open_via=0.7),
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
    def test_inject_matches_reference_die(self, brick, model):
        """The one-die view and a population give the dies of the
        scalar walk over the counter layout."""
        spec, defects = SIGNOFF_BRICKS[brick], DEFECT_MODELS[model]
        key = stream_key(2015, "faults:oracle")
        population = defects.population(spec, key, 100, 500)
        for i in range(100, 500):
            want = reference_die(defects, spec, key, i)
            assert population.brick(i - 100) == want
            if i % 40 == 0:
                assert inject(spec, defects, key, i) == want

    def test_cases_are_not_vacuous(self):
        """The compared chunks hold perfect dies, defective dies that
        repair, dies that do not, and weak-column derates; some die
        places several distinct sites of one mechanism."""
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
        *_, start, stop, key = _chunk_task("8T_64x32", "hot", "ecc",
                                           SIGNOFF_CHUNKS[1])
        counts = DEFECT_MODELS["hot"].population(
            SIGNOFF_BRICKS["8T_64x32"], key, start, stop).counts
        assert (counts[:, 1:] > 1).any()
        dense = DEFECT_MODELS["dense"].population(
            SIGNOFF_BRICKS["1_word"], key, 100, 500).counts
        assert (dense[:, 2] == 8).any()  # every sense amp weak: capped
        one_word = _chunk_worker(_chunk_task("1_word", "hot", "spares",
                                             SIGNOFF_CHUNKS[0]))
        assert one_word.defect_counts
        assert WORDLINE_BRIDGE not in one_word.defect_counts


class TestRepairColumnsMatchApplyRepair:
    """The column allocator against the one-die rule it replaced in the
    chunk worker, the yield study and wafer sort: every die's ``ok``,
    and on a repaired die the spares and ECC words it uses, ``==``
    :func:`apply_repair`; so is every die's full outcome, reason
    included (the yield report prints the first three)."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(brick=st.sampled_from(sorted(SIGNOFF_BRICKS)),
           model=st.sampled_from(sorted(DEFECT_MODELS)),
           spare_rows=st.integers(0, 3), spare_cols=st.integers(0, 3),
           ecc=st.booleans(), start=st.integers(0, 1 << 20))
    @example(brick="8T_64x32", model="hot", spare_rows=3, spare_cols=3,
             ecc=False, start=0)
    @example(brick="8T_64x32", model="hot", spare_rows=3, spare_cols=3,
             ecc=True, start=0)
    def test_every_die_matches(self, brick, model, spare_rows,
                               spare_cols, ecc, start):
        plan = RepairPlan(spare_rows=spare_rows, spare_cols=spare_cols,
                          ecc=ecc)
        population = DEFECT_MODELS[model].population(
            SIGNOFF_BRICKS[brick], stream_key(2015, "faults:oracle"),
            start, start + 200)
        repair = repair_population(population, plan)
        for die in range(200):
            want = apply_repair(population.brick(die), plan)
            assert bool(repair.ok[die]) is want.ok, die
            if want.ok:
                assert (repair.bad_rows[die], repair.bad_cols[die],
                        repair.ecc_words[die]) == (
                    want.rows_used, want.cols_used, want.ecc_words), die
            assert repair.outcome(die) == want, die

    def test_cases_are_not_vacuous(self):
        """The pinned examples hold a repaired die with a stuck cell in
        a replaced column and one with a single stuck bit on a bridged
        row (the two rules a stuck cell meets before ECC), plus dies
        refused on columns and on rows."""
        spec = SIGNOFF_BRICKS["8T_64x32"]
        population = DEFECT_MODELS["hot"].population(
            spec, stream_key(2015, "faults:oracle"), 0, 200)
        plan = RepairPlan(spare_rows=3, spare_cols=3, ecc=True)
        absorbed = on_dead_row = 0
        for die in range(200):
            faulty = population.brick(die)
            if not apply_repair(faulty, plan).ok:
                continue
            bad = faulty.dead_cols | faulty.weak_cols
            stuck = faulty.stuck_cells
            absorbed += any(bit in bad for _, bit in stuck)
            on_dead_row += any(
                row in faulty.dead_rows and bit not in bad
                and sum(r == row for r, _ in stuck) == 1
                for row, bit in stuck)
        assert absorbed and on_dead_row
        bare = repair_population(population, RepairPlan(spare_rows=0,
                                                         spare_cols=0))
        reasons = {bare.outcome(die).reason.split()[2]
                   for die in np.flatnonzero(~bare.ok)}
        assert reasons == {"columns", "rows"}


class TestCounterStreamsMatchReference:
    """The in-place stream arithmetic gives the bits of the version that
    allocated a fresh array per operation."""

    def test_uniforms_identical(self):
        key = stream_key(3, "uniforms")
        counters = np.arange(0, 7 * 20_000, 7, dtype=np.uint64)
        assert np.array_equal(uniforms(key, counters),
                              reference_uniforms(key, counters))
        assert float(uniforms(key, np.array([123]))[0]) == \
            _reference_uniform(key, 123)

    @pytest.mark.parametrize("start,stop,n_draws",
                             [(0, 1000, 5), (37, 38, 1), (5000, 5300, 14)])
    def test_normals_identical(self, start, stop, n_draws):
        key = stream_key(3, "normals")
        assert np.array_equal(normals(key, start, stop, n_draws),
                              reference_normals(key, start, stop, n_draws))


BOOT_SIZES = (1, 2, 37, 5000)


def _boot_columns(n):
    """Three float columns of different scales and two 0/1 columns."""
    g = normals(stream_key(4, f"boot-columns:{n}"), 0, n, 3)
    floats = [2e-10 * np.exp(0.1 * g[:, 0]), g[:, 1],
              1e-12 * (1.0 + g[:, 2] * g[:, 2])]
    flags = [g[:, 0] > -1.6, g[:, 1] > 0.3]
    return floats, flags


def _assert_summary_close(got, want):
    """Equal mean and percentiles; CI bounds within 1e-12 relative (the
    count-weighted means sum in another order than the gathers)."""
    assert set(got) == set(want)
    for field, value in want.items():
        if field in ("ci_lo", "ci_hi"):
            assert got[field] == pytest.approx(value, rel=1e-12,
                                               abs=0.0), field
        else:
            assert got[field] == value, field


class TestBootstrapMatchesReference:
    @pytest.mark.parametrize("n", BOOT_SIZES)
    @pytest.mark.parametrize("boot_batch", [None, 64],
                             ids=["default-blocks", "one-row-blocks"])
    def test_summaries_match(self, monkeypatch, n, boot_batch):
        if boot_batch is not None:
            monkeypatch.setattr(signoff_stats, "BOOT_BATCH", boot_batch)
            monkeypatch.setattr(signoff_stats, "BOOT_MIN_ROWS", 1)
        floats, flags = _boot_columns(n)
        key = stream_key(11, "signoff-boot:oracle")
        idx = reference_resample_indices(key, n, N_BOOT)
        want = ([reference_summary(col, key, idx) for col in floats]
                + [reference_summary(f.astype(np.float64), key, idx)
                   for f in flags])
        got = summarize(np.stack(floats + flags), key=key)
        for row, expected in zip(got, want):
            _assert_summary_close(row, expected)
        # A 0/1 row's resample means are sums of integers: exact.
        assert got[len(floats):] == want[len(floats):]
        for col, expected in zip(floats, want):
            _assert_summary_close(summarize(col, key=key), expected)
        for f, expected in zip(flags, want[len(floats):]):
            assert proportion_summary(summarize(f, key=key)) == {
                "rate": expected["mean"], "ci_lo": expected["ci_lo"],
                "ci_hi": expected["ci_hi"]}

    @pytest.mark.parametrize("n", [1, 2, 37, 40_000])
    @pytest.mark.parametrize("block", [0, 3])
    def test_resample_rows_identical(self, n, block):
        """Whole matrices, 7-row parts and one-row slices are the rows of
        the gathered oracle, on both sides of the one-row group size."""
        key = stream_key(9, "boot")
        n_boot = 50 if n < 40_000 else 12
        whole = reference_resample_indices(key, n, n_boot, block=block)
        assert np.array_equal(
            resample_indices(key, n, n_boot, block=block), whole)
        parts = [resample_indices(key, n, min(7, n_boot - first),
                                  block=block, start=first)
                 for first in range(0, n_boot, 7)]
        assert np.array_equal(np.concatenate(parts), whole)
        for row in (0, 1, n_boot - 1):
            assert np.array_equal(
                resample_indices(key, n, 1, block=block, start=row),
                whole[row:row + 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 37, 40_000, 2**31 - 1, 2**31])
    def test_index_map_at_its_edges(self, n):
        """Counters crafted to mix to ``z >> 11`` of 0 and 2^53 - 1 (the
        uniforms 2^-53 and 1) map as ``floor((1 - u) * n)`` does."""
        key = stream_key(9, "boot")
        words = [0, 0x7FF, 0x800, (1 << 64) - 0x801,
                 (1 << 64) - 0x800, (1 << 64) - 1, 0x0123456789ABCDEF]
        counters = np.array([_counter_for(key, w) for w in words],
                            dtype=np.uint64)
        u = reference_uniforms(key, counters)
        assert u[0] == u[1] == 2.0 ** -53 and u[4] == u[5] == 1.0
        want = np.floor((1.0 - u) * n).astype(np.int64)
        z = (counters + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15) \
            + np.uint64(key)
        got = rng_module._indices(z, np.empty_like(z),
                                  np.empty(z.shape), n)
        assert np.array_equal(got, want)
        assert got[0] == got[1] == n - 1 and got[4] == got[5] == 0


_M64 = (1 << 64) - 1


def _unxorshift(z, shift):
    """Invert ``z ^ (z >> shift)`` on 64-bit ints."""
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def _counter_for(key, word):
    """The stream counter whose splitmix64 output under ``key`` is
    ``word``: the finalizer run backwards, then ``(c + 1) * GAMMA``."""
    z = _unxorshift(word, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _M64
    z = _unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _M64
    z = _unxorshift(z, 30)
    return ((z - key) * pow(0x9E3779B97F4A7C15, -1, 1 << 64) - 1) & _M64


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

    def test_wide_band_circuit(self, tech, monkeypatch):
        """A ring of free nodes cannot be ordered into a tridiagonal band,
        so this run takes the general banded-Cholesky path."""
        ckt, kwargs = _ring(tech)
        assert TransientSimulator(ckt, tech).bandwidth >= 2
        _assert_matches_reference(ckt, tech, monkeypatch, **kwargs)

    @pytest.mark.parametrize("words,bits", [(4, 4), (16, 10)])
    @pytest.mark.parametrize("build", [build_read_testbench,
                                       build_write_testbench],
                             ids=["read", "write"])
    def test_table1_testbenches(self, tech, monkeypatch, words, bits,
                                build):
        compiled = compile_brick(sram_brick(words, bits), tech,
                                 target_stack=1)
        bench = build(compiled, tech, stack=1)
        assert TransientSimulator(bench.circuit, tech).bandwidth <= 1
        self._check_testbench(bench, tech, monkeypatch)

    def test_table1_16x10_8x_write_testbench(self, tech, monkeypatch):
        """The stacked write path: idle-brick control on a tridiagonal
        system of ~400 free nodes."""
        compiled = compile_brick(sram_brick(16, 10), tech, target_stack=8)
        bench = build_write_testbench(compiled, tech, stack=8)
        assert TransientSimulator(bench.circuit, tech).bandwidth <= 1
        self._check_testbench(bench, tech, monkeypatch)

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


def _ring(tech):
    """Five free nodes in a resistor ring, driven through one device;
    reverse Cuthill-McKee orders a ring at bandwidth 2."""
    ckt = SpiceCircuit("ring")
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("vin", "in", ramp(40 * PS, 20 * PS, 0.0, tech.vdd))
    ring = [f"r{i}" for i in range(5)]
    for i, node in enumerate(ring):
        ckt.add_resistor(f"res{i}", node, ring[(i + 1) % 5], 2e3 + 500 * i)
        ckt.add_capacitor(f"c{i}", node, (1 + i) * FF)
    ckt.add_mosfet("mp", PMOS, "in", "r0", "vdd", 0.6)
    ckt.add_mosfet("mn", NMOS, "in", "r2", GND, 0.3)
    return ckt, {"t_stop": 300 * PS, "dt": 0.5 * PS,
                 "v_init": {node: 0.3 for node in ring}}


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


class TestDeviceLawMatchesConductances:
    """The step loop's in-place device law against the array law of
    :func:`repro.tech.transistor.conductances`, bit for bit."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_conductances_identical(self, tech, data):
        ckt, _ = data.draw(_random_circuits(tech))
        sim = TransientSimulator(ckt, tech)
        near_vth = [tech.v_th + k * 1e-16 for k in (-2, -1, 0, 1, 2)]
        level = st.one_of(st.floats(-0.5, 2 * tech.vdd),
                          st.sampled_from([0.0, -0.0, tech.vdd, 2 * tech.v_th]
                                          + near_vth))
        nodes = sorted(n for n in sim._index if n != GND)
        voltage = {node: data.draw(level) for node in nodes}
        v = np.zeros(len(nodes) + 1)
        for node, value in voltage.items():
            v[sim._index[node]] = value
        voltage[GND] = 0.0

        def drive(m):
            v_g, v_d, v_s = (voltage[m.gate], voltage[m.drain],
                             voltage[m.source])
            if m.kind == NMOS:
                return v_g - min(v_d, v_s)
            return max(v_d, v_s) - v_g

        want = conductances(np.array([drive(m) for m in ckt.mosfets]),
                            sim._r_on, tech)
        got = sim._device_law()(v, np.empty(len(ckt.mosfets)))
        assert got.tobytes() == want.tobytes()


class TestVectorStimuliMatchClosures:
    """Each testbench clock's ``sample`` over a time grid equals its
    per-sample closure bit for bit, the ``-0.0``s included."""

    @given(period=st.floats(100 * PS, 5000 * PS),
           edge_frac=st.floats(0.001, 0.25),
           vdd=st.floats(0.5, 1.5),
           invert=st.booleans(),
           dt=st.sampled_from([0.25 * PS, 0.5 * PS, 1.0 * PS, 1.7 * PS]),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_sample_equals_closure(self, period, edge_frac, vdd, invert, dt,
                                   data):
        edge = edge_frac * period
        stimuli = {
            "clock": extract._scaled_clock(period, edge, vdd),
            "square": extract._square(period, edge, vdd, invert=invert),
            "precharge": extract._sequenced_precharge(period, edge, vdd),
        }
        # Four periods of a simulation grid, then the samples that sit on
        # the branch boundaries: cycle starts, the half period, the edges
        # after both, and the precharge window's ends.
        steps = int(round(4 * period / dt))
        grid = np.linspace(0.0, steps * dt, steps + 1)
        k = np.arange(5.0)[:, None]
        offsets = np.array([0.0, edge, period / 2, period / 2 + edge,
                            0.2 * period, 0.2 * period + edge, 0.5 * period,
                            0.5 * period + edge])
        boundaries = (k * period + offsets).ravel()
        nudged = np.concatenate([np.nextafter(boundaries, -np.inf),
                                 np.nextafter(boundaries, np.inf)])
        extra = np.array(data.draw(st.lists(
            st.floats(0.0, 4 * period), max_size=20)))
        times = np.concatenate([grid, boundaries, nudged, extra])
        times = times[times >= 0.0]
        for name, stimulus in stimuli.items():
            want = np.array([stimulus(t) for t in times.tolist()])
            got = stimulus.sample(times)
            assert got.tobytes() == want.tobytes(), name


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


# --------------------------------------------------------------------------
# Brick estimator: the one batch kernel against the scalar closed forms
# --------------------------------------------------------------------------


def _reference_chain_delay(stage_caps, load, tech):
    """50 % delay through an inverter chain with a final load."""
    delay = 0.0
    caps = list(stage_caps)
    for i, c_in in enumerate(caps):
        c_out = caps[i + 1] if i + 1 < len(caps) else load
        w_n, w_p = inverter_widths(c_in, tech)
        r_drive = 0.5 * (tech.r_on_n / w_n + tech.r_on_p / w_p)
        c_self = tech.c_diff * (w_n + w_p)
        delay += _K50 * r_drive * (c_out + c_self)
    return delay


def _reference_nand_delay(c_in, load, tech):
    """50 % delay of the wordline driver's gating NAND2."""
    w_n, w_p = inverter_widths(c_in, tech)
    r_drive = 0.5 * (tech.r_on_n / w_n + tech.r_on_p / w_p)
    c_self = tech.c_diff * (2 * w_n + 2 * w_p)
    return _K50 * r_drive * (load + c_self)


def _reference_cycle_energy(cap, vdd):
    return cap * vdd * vdd


def _reference_wl_internal_cap(wl, tech):
    cap = 0.0
    w_nand_n, w_nand_p = inverter_widths(wl.nand_input_cap, tech)
    cap += tech.c_diff * (2 * w_nand_n + 2 * w_nand_p)
    for stage_cap in wl.stage_caps:
        w_n, w_p = inverter_widths(stage_cap, tech)
        cap += stage_cap + tech.c_diff * (w_n + w_p)
    return cap


def _reference_ctrl_internal_cap(control, tech):
    cap = 0.0
    for stage_cap in control.stage_caps[1:]:
        cap += stage_cap
    for stage_cap in control.stage_caps:
        w_n, w_p = inverter_widths(stage_cap, tech)
        cap += tech.c_diff * (w_n + w_p)
    for stage_cap in control.preb_stage_caps:
        w_n, w_p = inverter_widths(stage_cap, tech)
        cap += stage_cap + tech.c_diff * (w_n + w_p)
    return cap


_AREAS: Dict[tuple, float] = {}


def _reference_area(compiled, tech):
    """The generated layout's area, memoized: it depends on neither the
    pricing stack nor the load, and building the grid dominates the
    oracle's time."""
    key = (compiled, tech.name)
    if key not in _AREAS:
        _AREAS[key] = generate_layout(compiled, tech).area_um2
    return _AREAS[key]


def reference_estimate_brick(compiled, tech, stack=None, out_load=None):
    """The scalar closed forms, one point at a time: the estimator as it
    was before it became a row of the batch kernel."""
    spec = compiled.spec
    cell = compiled.bitcell
    stack = compiled.target_stack if stack is None else stack
    layer = tech.layer(tech.local_layer)
    bl_layer = tech.layer(tech.bitline_layer)
    c_unit = unit_input_cap(tech)
    if out_load is None:
        out_load = 4.0 * c_unit
    vdd = tech.vdd
    wl = compiled.wl_driver
    sense = compiled.sense
    control = compiled.control
    lbl_load = tech.c_gate * (sense.w_sense_n + sense.w_sense_p) + \
        tech.c_diff * sense.w_precharge

    # read delay
    enable_net = spec.words * wl.enable_cap()
    preb_net_active = spec.bits * tech.c_gate * (
        sense.w_precharge + sense.w_pull)
    preb_net_idle = spec.bits * tech.c_gate * sense.w_precharge
    t_ctrl = _reference_chain_delay(control.stage_caps, enable_net, tech)
    t_nand = _reference_nand_delay(wl.nand_input_cap, wl.stage_caps[0],
                                   tech)
    r_wl_wire, c_wl_wire = layer.rc(compiled.wordline_length_um())
    c_wl_taps = spec.bits * cell.c_rwl
    t_chain = _reference_chain_delay(wl.stage_caps,
                                     c_wl_wire + c_wl_taps, tech)
    t_wl_wire = _K50 * r_wl_wire * (c_wl_wire / 2.0 + c_wl_taps / 2.0)
    r_lbl_wire, c_lbl_wire = layer.rc(compiled.lbl_length_um())
    c_lbl = c_lbl_wire + spec.words * cell.c_rbl + lbl_load
    t_cell = _K50 * (cell.r_read * c_lbl
                     + r_lbl_wire * (c_lbl_wire / 2.0 + lbl_load))
    sense_internal = tech.c_gate * sense.w_pull + tech.c_diff * (
        sense.w_sense_n + sense.w_sense_p)
    t_sense = _K50 * (tech.r_on_p / sense.w_sense_p) * (
        tech.c_gate * sense.w_pull + sense_internal)
    height = compiled.brick_height_estimate_um()
    arbl_per_brick = bl_layer.rc(height)[1] + tech.c_diff * sense.w_pull
    c_arbl = stack * arbl_per_brick + out_load
    r_arbl_wire, _ = bl_layer.rc(stack * height)
    t_arbl = _K50 * ((tech.r_on_n / sense.w_pull) * c_arbl
                     + r_arbl_wire * (c_arbl / 2.0))
    read_delay = t_ctrl + t_nand + t_chain + t_wl_wire + t_cell + \
        t_sense + t_arbl

    # read energy
    ctrl_internal = _reference_ctrl_internal_cap(control, tech)
    wl_internal = _reference_wl_internal_cap(wl, tech)
    n_discharge = math.ceil(spec.bits / 2)
    e_ctrl = _reference_cycle_energy(
        ctrl_internal + enable_net + preb_net_active
        + control.clock_cap(), vdd)
    e_wl = _reference_cycle_energy(c_wl_wire + c_wl_taps + wl_internal,
                                   vdd)
    e_lbl = n_discharge * _reference_cycle_energy(c_lbl, vdd)
    e_sense = n_discharge * _reference_cycle_energy(sense_internal, vdd)
    e_arbl = n_discharge * _reference_cycle_energy(c_arbl, vdd)
    e_idle = (stack - 1) * _reference_cycle_energy(
        ctrl_internal + enable_net + preb_net_idle + control.clock_cap(),
        vdd)
    t_overlap = _CROWBAR_FO4 * tech.fo4_delay()
    e_crowbar = spec.bits * vdd * vdd * (
        sense.w_precharge / tech.r_on_p) * t_overlap
    read_energy = (e_ctrl + e_wl + e_lbl + e_sense + e_arbl + e_idle
                   + e_crowbar)

    # write energy
    c_wbl_bank = stack * (bl_layer.rc(compiled.lbl_length_um())[1]
                          + spec.words * cell.c_wbl)
    e_wbl = math.ceil(spec.bits / 2) * _reference_cycle_energy(
        c_wbl_bank, vdd)
    c_wwl = c_wl_wire + spec.bits * cell.c_wwl
    e_wwl = _reference_cycle_energy(c_wwl + wl_internal, vdd)
    write_energy = e_ctrl + e_wwl + e_wbl + e_idle

    fo4 = tech.fo4_delay()
    setup = 2.0 * fo4 + t_ctrl
    hold = 0.5 * fo4

    match_delay = None
    match_energy = None
    if spec.is_cam:
        m = compiled.match
        sl_cap = layer.rc(compiled.searchline_length_um())[1] + \
            spec.words * cell.c_sl
        t_sl = _reference_chain_delay(m.sl_stage_caps, sl_cap, tech)
        c_ml = compiled.matchline_cap(tech)
        r_ml_wire, c_ml_wire = layer.rc(compiled.matchline_length_um())
        t_ml = _K50 * (cell.r_match * c_ml
                       + r_ml_wire * c_ml_wire / 2.0)
        w_sn, w_sp = m.w_ml_sense_n, m.w_ml_sense_p
        t_ml_sense = _K50 * (tech.r_on_p / w_sp) * (
            4.0 * c_unit + tech.c_diff * (w_sn + w_sp))
        match_delay = t_ctrl + t_sl + t_ml + t_ml_sense
        sl_driver_internal = 0.0
        for i, c_in in enumerate(m.sl_stage_caps):
            w_n, w_p = inverter_widths(c_in, tech)
            sl_driver_internal += tech.c_diff * (w_n + w_p)
            if i > 0:
                sl_driver_internal += c_in
        e_sl = spec.bits * _reference_cycle_energy(
            sl_cap + sl_driver_internal, vdd)
        e_ml = max(spec.words - 1, 1) * _reference_cycle_energy(c_ml, vdd)
        match_energy = e_ctrl + e_sl + e_ml + e_idle

    brick_area = _reference_area(compiled, tech)
    leak_cells = spec.words * spec.bits * cell.i_leak * vdd
    periph_width = (wl.total_width_um(tech) * spec.words
                    + sense.total_width_um() * spec.bits
                    + control.total_width_um(tech))
    leak_periph = tech.i_leak_n * periph_width * 0.5 * vdd
    return BrickPerformance(
        brick_name=spec.name, stack=stack, read_delay=read_delay,
        read_energy=read_energy, write_energy=write_energy, setup=setup,
        hold=hold, clock_cap=stack * control.clock_cap(),
        dwl_cap=wl.nand_input_cap, wbl_cap=c_wbl_bank,
        area_um2=brick_area * stack, brick_area_um2=brick_area,
        leakage_w=stack * (leak_cells + leak_periph),
        match_delay=match_delay, match_energy=match_energy,
        components={
            "t_ctrl": t_ctrl, "t_nand": t_nand, "t_chain": t_chain,
            "t_wl_wire": t_wl_wire, "t_cell": t_cell, "t_sense": t_sense,
            "t_arbl": t_arbl,
            "e_ctrl": e_ctrl, "e_wl": e_wl, "e_lbl": e_lbl,
            "e_sense": e_sense, "e_arbl": e_arbl, "e_idle": e_idle,
            "e_crowbar": e_crowbar, "e_wbl": e_wbl, "e_wwl": e_wwl,
        })


def reference_cell_tables(compiled, tech, stack):
    """The library model's LUT grids and attrs from one scalar estimate
    per output load plus a base estimate, as ``brick_cell_model`` built
    them before it priced the loads as one batch."""
    spec = compiled.spec
    base = reference_estimate_brick(compiled, tech, stack=stack)
    c_unit = unit_input_cap(tech)
    slews = np.asarray(default_slew_axis(tech.tau))
    loads = default_load_axis(4.0 * c_unit)
    ests = [reference_estimate_brick(compiled, tech, stack=stack,
                                     out_load=load) for load in loads]
    read_delays = np.asarray([e.read_delay for e in ests])
    read_energies = np.asarray([e.read_energy for e in ests])
    tables = {
        "delay": np.add.outer(slews / 6.0, read_delays),
        "slew": np.add.outer(slews / 10.0, 2.0 * (
            (read_delays - base.read_delay) + 0.3 * base.read_delay)),
        "read": np.tile(read_energies, (len(slews), 1)),
    }
    attrs = {
        "memory_type": spec.memory_type, "words": spec.words,
        "bits": spec.bits, "stack": stack,
        "capacity_bits": spec.capacity_bits * stack,
        "read_delay": base.read_delay, "read_energy": base.read_energy,
        "write_energy": base.write_energy,
        "match_delay": base.match_delay,
        "match_energy": base.match_energy,
    }
    return base, tables, attrs


def reference_buffer_chain(c_in, c_load, tech, force_stages=None):
    """One logical-effort inverter chain in Python floats: its stage
    input caps (``c_in * f_hat ** i`` with Python's ``**``)."""
    fanout = c_load / c_in
    if force_stages is not None:
        n = force_stages
    elif fanout <= 1.0:
        n = 1
    else:
        rho = optimal_stage_effort(parasitic_inv(tech))
        n = max(1, round(math.log(fanout) / math.log(rho)))
    f_hat = fanout ** (1.0 / n)
    return [c_in * f_hat ** i for i in range(n)]


def _reference_chain(c_in, c_load, tech, parity):
    """A chain bumped by one stage when its optimal count has the wrong
    parity (the compiler's polarity idiom)."""
    caps = reference_buffer_chain(c_in, c_load, tech)
    if len(caps) % 2 != parity:
        caps = reference_buffer_chain(c_in, c_load, tech,
                                      force_stages=len(caps) + 1)
    return caps


def _reference_arbl_pulldown(arbl_fixed_per_brick, stack, tech):
    """Closed-form ARBL pull-down width: stage effort 4 against the
    self-loaded stacked ARBL, with a two-gate-cap denominator margin
    and a 16x minimum-width cap."""
    c_out = 4.0 * unit_input_cap(tech)
    c_fixed = stack * arbl_fixed_per_brick + c_out
    denom = max(4.0 * tech.c_gate - stack * tech.c_diff,
                2.0 * tech.c_gate)
    w_pull = c_fixed / denom
    return min(max(tech.w_min_um, w_pull), 16.0 * tech.w_min_um)


def reference_compile_brick(spec, tech, target_stack=1):
    """The scalar sizer, one brick at a time: the compiler as it was
    before it became a row of ``compile_batch``."""
    bitcell = make_bitcell(spec.memory_type, tech)
    layer = tech.layer(tech.local_layer)
    c_unit = unit_input_cap(tech)

    _, c_wl_wire = layer.rc(spec.bits * bitcell.width_um)
    wl_load = c_wl_wire + spec.bits * bitcell.c_rwl
    nand_cap = 1.0 * c_unit
    wl_driver = WordlineDriver(
        nand_input_cap=nand_cap,
        stage_caps=tuple(_reference_chain(nand_cap, wl_load, tech, 1)))

    brick_height = spec.words * bitcell.height_um + 2.0 * bitcell.height_um
    _, arbl_wire = tech.layer(tech.bitline_layer).rc(brick_height)
    w_pull = _reference_arbl_pulldown(arbl_wire, target_stack, tech)
    w_sense_n = max(2.0 * tech.w_min_um, w_pull / 6.0)
    sense = LocalSense(w_sense_n=w_sense_n,
                       w_sense_p=w_sense_n * tech.inverter_beta(),
                       w_pull=w_pull,
                       w_precharge=max(tech.w_min_um, w_pull / 6.0))

    enable_load = spec.words * wl_driver.enable_cap()
    ctrl_caps = _reference_chain(2.0 * c_unit, enable_load, tech, 0)
    preb_load = 2.0 * spec.bits * tech.c_gate * sense.w_precharge
    preb_caps = _reference_chain(ctrl_caps[0], preb_load, tech, 1)
    control = ControlBlock(stage_caps=tuple(ctrl_caps),
                           preb_stage_caps=tuple(preb_caps))

    match = None
    if spec.is_cam:
        _, c_sl_wire = layer.rc(spec.words * bitcell.height_um)
        sl_load = c_sl_wire + spec.words * bitcell.c_sl
        w_ml_sense_n = 2.0 * tech.w_min_um
        match = MatchPeriphery(
            sl_stage_caps=tuple(_reference_chain(2.0 * c_unit, sl_load,
                                                 tech, 0)),
            w_ml_pre=2.0 * tech.w_min_um,
            w_ml_sense_n=w_ml_sense_n,
            w_ml_sense_p=w_ml_sense_n * tech.inverter_beta())
    return CompiledBrick(spec=spec, tech_name=tech.name,
                         target_stack=target_stack, bitcell=bitcell,
                         wl_driver=wl_driver, sense=sense, control=control,
                         match=match)


_ESTIMATOR_SHAPES = ((16, 10), (32, 12), (64, 8), (8, 32), (128, 64),
                     (4, 4), (256, 16))
_ESTIMATOR_LOADS = (None, 1 * FF, 20 * FF)


class TestEstimatorMatchesReference:
    """The estimator is a row of the batch kernel; the scalar closed
    forms above are its oracle.  The population crosses two nodes, the
    three corners, every memory type, seven shapes, compile-time and
    pricing stacks (frozen sizing priced at another stack) and three
    output loads: 5040 points, every field and component ``==``."""

    @pytest.mark.parametrize("corner_name", ["nominal", "best", "worst"])
    @pytest.mark.parametrize("node", ["cmos65", "cmos28"])
    @pytest.mark.parametrize("memory_type", MEMORY_TYPES)
    def test_population_identical(self, node, corner_name, memory_type,
                                  perf_identical):
        tech = CORNERS[corner_name].apply(
            {"cmos65": cmos65, "cmos28": cmos28}[node]())
        for words, bits in _ESTIMATOR_SHAPES:
            spec = BrickSpec(memory_type, words, bits)
            for target_stack in (1, 4):
                compiled = compile_brick(spec, tech,
                                         target_stack=target_stack)
                for stack in (1, 2, 8, 32):
                    got = [estimate_brick(compiled, tech, stack=stack)]
                    got += estimate_batch(
                        brick_rows(compiled, stack, _ESTIMATOR_LOADS[1:]),
                        tech)
                    for load, row in zip(_ESTIMATOR_LOADS, got):
                        perf_identical(row, reference_estimate_brick(
                            compiled, tech, stack=stack, out_load=load))

    @pytest.mark.parametrize("memory_type", MEMORY_TYPES)
    def test_spec_domain_corners_identical(self, tech, memory_type,
                                           perf_identical):
        for words in (1, MAX_WORDS):
            for bits in (1, MAX_BITS):
                compiled = compile_brick(BrickSpec(memory_type, words,
                                                   bits), tech)
                for stack in (1, 16):
                    got = estimate_brick(compiled, tech, stack=stack)
                    perf_identical(got, reference_estimate_brick(
                        compiled, tech, stack=stack))
                    if memory_type == "CAM":  # the match path is priced
                        assert got.match_delay > 0 < got.match_energy
                    else:
                        assert got.match_delay is None

    @pytest.mark.parametrize("memory_type", MEMORY_TYPES)
    def test_batch_rows_identical(self, tech, memory_type, perf_identical):
        """A population the batch compiler sized prices, row by row, the
        bits the oracle gives for that row's sizing."""
        points = [(BrickSpec(memory_type, words, bits), stack)
                  for words, bits in _ESTIMATOR_SHAPES
                  for stack in (1, 2, 8)]
        compiled = compile_batch(BrickSpecBatch.from_points(points), tech)
        for i, got in enumerate(estimate_batch(compiled, tech)):
            perf_identical(got, reference_estimate_brick(
                compiled_row(compiled, tech, i), tech))

    @pytest.mark.parametrize("memory_type", MEMORY_TYPES)
    @pytest.mark.parametrize("target_stack,stack", [(1, 1), (4, 4),
                                                    (1, 8)])
    def test_cell_model_tables_identical(self, tech, memory_type,
                                         target_stack, stack):
        compiled = compile_brick(BrickSpec(memory_type, 16, 10), tech,
                                 target_stack=target_stack)
        model = brick_cell_model(compiled, tech, stack=stack)
        base, tables, attrs = reference_cell_tables(compiled, tech, stack)
        arc = model.arcs[0]
        assert arc.delay.values == LUT2D.from_grid(
            arc.delay.slews, arc.delay.loads, tables["delay"]).values
        assert arc.out_slew.values == LUT2D.from_grid(
            arc.out_slew.slews, arc.out_slew.loads, tables["slew"]).values
        read = model.energy["read"]
        assert read.values == LUT2D.from_grid(
            read.slews, read.loads, tables["read"]).values
        assert model.attrs == attrs
        assert model.energy["write"].values == \
            LUT2D.constant(base.write_energy).values
        assert (model.area, model.leakage, model.setup, model.hold,
                model.min_period) == (
            base.area_um2, base.leakage_w, base.setup, base.hold,
            2.0 * max(base.read_delay, base.match_delay or 0.0))
