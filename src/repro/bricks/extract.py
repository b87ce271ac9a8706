"""RC extraction and transient testbenches for compiled bricks.

Table 1 of the paper compares the estimation tool "to SPICE simulations
with RC extracted bitcell array layouts".  This module builds those
extracted networks: distributed RC ladders for wordlines, local read
bitlines, write bitlines, array read bitlines and (for CAM) search/match
lines, with the compiled leaf cells and the selected bitcells instantiated
as switch-level devices.  The testbenches clock the brick for several
cycles and measure 50 %-crossing delays and per-cycle supply energy in the
last (steady-state) cycle — the way one measures a SPICE deck.

Fidelity knobs (segment counts) trade nodes for accuracy.  With the
defaults a 16x10/1x read testbench has 138 free nodes and a 32x12/8x
write testbench 465.  Every testbench is a forest of RC paths, so the
simulator's banded Cholesky runs at bandwidth 1 and a factorization
costs about as much as a step.  On a 2-vCPU x86-64 host (numpy 2.4,
OpenBLAS) the read and write transients of one Table-1 cell take
together ~0.3 s at 1x and 0.3-0.6 s at 4x/8x (32x12/8x the slowest); the
per-step array work, not the solve, dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..cells.stdcells import unit_input_cap
from ..circuit.netlist import GND, SpiceCircuit
from ..circuit.spice import TransientSimulator
from ..errors import SimulationError
from ..tech.technology import Technology
from ..tech.transistor import NMOS, PMOS
from ..units import PS
from .compiler import CompiledBrick
from .estimator import estimate_brick

#: Default clock edge rate used by the testbenches.
_EDGE = 20.0 * PS


@dataclass
class BrickTestbench:
    """A ready-to-run transient deck for one brick operation."""

    circuit: SpiceCircuit
    period: float
    n_cycles: int
    measure_edge: float      # time of the measured clock rising edge
    window: Tuple[float, float]  # steady-state cycle for energy
    probe_out: str           # node whose 50% crossing defines the delay
    probe_falling: bool      # direction of the output transition
    supply_sources: Tuple[str, ...]  # sources whose energy is summed

    def run(self, tech: Technology, dt: float = 1.0 * PS
            ) -> Tuple[float, float]:
        """Simulate and return ``(delay_seconds, energy_joules)``.

        Delay is the 50 %-crossing of the probe node after the measured
        clock edge; energy is the supply energy delivered during the last
        (steady-state) clock cycle.
        """
        sim = TransientSimulator(self.circuit, tech)
        result = sim.run(t_stop=self.window[1], dt=dt)
        wf = result.waveform(self.probe_out)
        vdd = tech.vdd
        delay = wf.crossing(vdd / 2.0, rising=not self.probe_falling,
                            after=self.measure_edge) - self.measure_edge
        energy = sum(
            result.energy_in_window(s, self.window[0], self.window[1])
            for s in self.supply_sources)
        return delay, energy


def _scaled_clock(period: float, edge: float, vdd: float):
    """Clock stimulus: low in the first half-cycle (precharge), rising at
    mid-cycle into the evaluate phase, falling at the cycle boundary."""

    def v_of_t(t: float) -> float:
        phase = t % period
        half = period / 2.0
        if phase < half:
            if phase < edge:  # falling edge at the cycle boundary
                return vdd * (1.0 - phase / edge)
            return 0.0
        ref = phase - half
        if ref < edge:
            return vdd * ref / edge
        return vdd

    return v_of_t


def _square(period: float, edge: float, vdd: float, invert: bool = False):
    """Square wave toggling once per cycle at the evaluate edge."""

    def v_of_t(t: float) -> float:
        cycle = int(t // period)
        phase = t % period
        half = period / 2.0
        level = (cycle % 2 == 0) != invert
        prev_level = ((cycle - 1) % 2 == 0) != invert
        if phase < half:  # hold previous value until the evaluate edge
            start = 1.0 if prev_level else 0.0
            return vdd * start
        ref = phase - half
        start = 1.0 if prev_level else 0.0
        end = 1.0 if level else 0.0
        if ref < edge:
            return vdd * (start + (end - start) * ref / edge)
        return vdd * end

    return v_of_t


def _sequenced_precharge(period: float, edge: float, vdd: float,
                         start_frac: float = 0.2,
                         stop_frac: float = 0.5):
    """Active-low gate of the bank ARBL precharge.

    The brick control sequences the array-bitline restore: the precharge
    turns on only after the local bitlines have recovered and the sense
    pull-downs have shut off (window ``[start_frac, stop_frac)`` of the
    cycle), and releases exactly at the evaluate edge — so it never
    fights the read.
    """

    def v_of_t(t: float) -> float:
        phase = (t % period) / period
        lo = start_frac
        hi = stop_frac
        edge_frac = edge / period
        if lo <= phase < hi:
            if phase < lo + edge_frac:
                return vdd * (1.0 - (phase - lo) / edge_frac)
            return 0.0
        if hi <= phase < hi + edge_frac:
            return vdd * (phase - hi) / edge_frac
        return vdd

    return v_of_t


def _auto_period(compiled: CompiledBrick, tech: Technology,
                 stack: int) -> float:
    est = estimate_brick(compiled, tech, stack=stack)
    target = est.match_delay if (compiled.spec.is_cam
                                 and est.match_delay) else est.read_delay
    return max(4.0 * target, 500.0 * PS)


def _add_ladder(circuit: SpiceCircuit, prefix: str, start: str,
                r_total: float, c_total: float, n_seg: int,
                extra_cap_total: float = 0.0) -> List[str]:
    """Stamp an RC ladder; returns the list of ladder nodes (start
    excluded)."""
    nodes = []
    last = start
    for i in range(n_seg):
        node = f"{prefix}{i}"
        circuit.add_resistor(f"{prefix}r{i}", last, node,
                             max(r_total / n_seg, 1e-3))
        circuit.add_capacitor(f"{prefix}c{i}", node,
                              (c_total + extra_cap_total) / n_seg)
        nodes.append(node)
        last = node
    return nodes


def build_read_testbench(compiled: CompiledBrick, tech: Technology,
                         stack: Optional[int] = None,
                         lbl_segments: int = 6,
                         arbl_segments_per_brick: int = 2,
                         n_cycles: int = 3,
                         period: Optional[float] = None
                         ) -> BrickTestbench:
    """Extract the full read path of a stacked bank and wrap it in a
    clocked testbench.

    The active brick sits at the far end of the shared ARBL (worst case);
    idle bricks contribute their control blocks (real devices) plus their
    enable/precharge net loading and their off pull-down diffusion on the
    ARBL.  The read word is the alternating pattern ``<1010...10>`` of
    Table 1: even columns conduct (discharge), odd columns hold.
    """
    spec = compiled.spec
    cell = compiled.bitcell
    stack = compiled.target_stack if stack is None else stack
    layer = tech.layer(tech.local_layer)
    if period is None:
        period = _auto_period(compiled, tech, stack)

    ckt = SpiceCircuit(f"tb_read_{spec.name}_s{stack}")
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("clk", "clk", _scaled_clock(period, _EDGE, tech.vdd))
    # Sequenced bank ARBL precharge (see _sequenced_precharge).
    ckt.add_vsource("prebd", "prebd",
                    _sequenced_precharge(period, _EDGE, tech.vdd))

    # Active brick control.
    compiled.control.build_spice(ckt, "ctl", "clk", "en", "preb", "vdd",
                                 tech)

    # Selected row's wordline driver; DWL held high (decoder output).
    ckt.add_vsource("dwl", "dwl", tech.vdd)
    compiled.wl_driver.build_spice(ckt, "wld", "dwl", "en", "wl", "vdd",
                                   tech)
    # Remaining rows' drivers load the enable net.
    if spec.words > 1:
        ckt.add_capacitor(
            "c_en_idle_rows", "en",
            (spec.words - 1) * compiled.wl_driver.enable_cap())

    # Wordline ladder with one tap per bit column.
    r_wl, c_wl = layer.rc(compiled.wordline_length_um())
    wl_taps = _add_ladder(ckt, "wl_", "wl", r_wl, c_wl, spec.bits)

    # Per-column read path.
    r_lbl, c_lbl_wire = layer.rc(compiled.lbl_length_um())
    c_rbl_others = (spec.words - 1) * cell.c_rbl
    arbl_height = compiled.brick_height_estimate_um()
    r_arbl_brick, c_arbl_brick = tech.layer(tech.bitline_layer).rc(
        arbl_height)
    out_nodes: List[str] = []
    for b in range(spec.bits):
        conducts = (b % 2 == 0)  # alternating word
        lbl_far = f"lblfar{b}"
        lbl_nodes = _add_ladder(
            ckt, f"lbl{b}_", lbl_far, r_lbl, c_lbl_wire, lbl_segments,
            extra_cap_total=c_rbl_others)
        lbl_near = lbl_nodes[-1]
        # Selected cell at the far end: access device gated by the
        # wordline tap, read-driver gated by the stored data.
        data_gate = "vdd" if conducts else GND
        mid = f"mid{b}"
        ckt.add_mosfet(f"m_acc{b}", NMOS, wl_taps[b], lbl_far, mid,
                       cell.w_read_um)
        ckt.add_mosfet(f"m_drv{b}", NMOS, data_gate, mid, GND,
                       cell.w_read_um)
        # Local sense + precharge at the near end.
        arbl_far = f"arblfar{b}"
        compiled.sense.build_spice(ckt, f"sns{b}", lbl_near, arbl_far,
                                   "preb", "vdd", tech)
        # Shared ARBL: active brick at the far end, then (stack-1) idle
        # brick spans, each adding wire and an off pull-down diffusion.
        last = arbl_far
        for s in range(stack):
            seg_nodes = _add_ladder(
                ckt, f"arbl{b}_{s}_", last, r_arbl_brick,
                c_arbl_brick, arbl_segments_per_brick)
            last = seg_nodes[-1]
            if s > 0:
                # Idle brick's off pull-down drain diffusion.
                ckt.add_capacitor(
                    f"c_idlepull{b}_{s}", last,
                    tech.c_diff * compiled.sense.w_pull)
        out = last
        # Bank-side ARBL precharge, gated by the sequenced restore.
        ckt.add_mosfet(f"m_arblpre{b}", PMOS, "prebd", out, "vdd",
                       compiled.sense.w_pull)
        ckt.add_capacitor(f"c_out{b}", out, 4.0 * unit_input_cap(tech))
        out_nodes.append(out)

    # Idle bricks: real control blocks clocking their (lumped) enable
    # and precharge-bar nets every cycle.
    for s_idx in range(1, stack):
        compiled.control.build_spice(ckt, f"ictl{s_idx}", "clk",
                                     f"ien{s_idx}", f"ipreb{s_idx}",
                                     "vdd", tech)
        ckt.add_capacitor(
            f"c_ien{s_idx}", f"ien{s_idx}",
            spec.words * compiled.wl_driver.enable_cap())
        ckt.add_capacitor(
            f"c_ipreb{s_idx}", f"ipreb{s_idx}",
            spec.bits * tech.c_gate * compiled.sense.w_precharge)

    half = period / 2.0
    measure_cycle = n_cycles - 1
    measure_edge = measure_cycle * period + half
    window = (measure_cycle * period, n_cycles * period)
    return BrickTestbench(
        circuit=ckt,
        period=period,
        n_cycles=n_cycles,
        measure_edge=measure_edge,
        window=window,
        probe_out=out_nodes[0],
        probe_falling=True,
        supply_sources=("vdd", "clk", "prebd"),
    )


def build_write_testbench(compiled: CompiledBrick, tech: Technology,
                          stack: Optional[int] = None,
                          wbl_segments: int = 4,
                          n_cycles: int = 3,
                          period: Optional[float] = None
                          ) -> BrickTestbench:
    """Extract the write path: external write drivers toggling the stacked
    write bitlines, the write wordline firing each cycle.

    Alternating data written over its complement every cycle: each cycle
    half the write bitlines rise (drawing CV^2) and half fall.
    """
    spec = compiled.spec
    cell = compiled.bitcell
    stack = compiled.target_stack if stack is None else stack
    layer = tech.layer(tech.local_layer)
    if period is None:
        period = _auto_period(compiled, tech, stack)

    ckt = SpiceCircuit(f"tb_write_{spec.name}_s{stack}")
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("clk", "clk", _scaled_clock(period, _EDGE, tech.vdd))

    compiled.control.build_spice(ckt, "ctl", "clk", "en", "preb", "vdd",
                                 tech)
    ckt.add_vsource("dwl", "dwl", tech.vdd)
    compiled.wl_driver.build_spice(ckt, "wld", "dwl", "en", "wwl", "vdd",
                                   tech)
    if spec.words > 1:
        ckt.add_capacitor(
            "c_en_idle_rows", "en",
            (spec.words - 1) * compiled.wl_driver.enable_cap())
    r_wl, c_wl = layer.rc(compiled.wordline_length_um())
    wwl_taps = _add_ladder(ckt, "wwl_", "wwl", r_wl, c_wl, spec.bits)
    # Write wordline gate loading of the row's access devices is modelled
    # by the access devices themselves below.

    r_wbl, c_wbl_wire = tech.layer(tech.bitline_layer).rc(
        compiled.lbl_length_um())
    c_wbl_others = (spec.words - 1) * cell.c_wbl
    w_drv = 8.0 * tech.w_min_um
    for b in range(spec.bits):
        # External write driver: a CMOS inverter powered from vdd, input
        # toggling once per cycle (spatially alternating phase).
        in_node = f"win{b}"
        ckt.add_vsource(f"vwin{b}", in_node,
                        _square(period, _EDGE, tech.vdd,
                                invert=(b % 2 == 1)))
        wbl_top = f"wbl{b}_drv"
        ckt.add_mosfet(f"m_wdrvn{b}", NMOS, in_node, wbl_top, GND, w_drv)
        ckt.add_mosfet(f"m_wdrvp{b}", PMOS, in_node, wbl_top, "vdd",
                       w_drv * tech.inverter_beta())
        # Stacked WBL: one ladder span per brick.
        last = wbl_top
        for s in range(stack):
            nodes = _add_ladder(ckt, f"wbl{b}_{s}_", last, r_wbl,
                                c_wbl_wire, wbl_segments,
                                extra_cap_total=c_wbl_others)
            last = nodes[-1]
        # Selected cell in the active (far) brick: access device into the
        # storage node.
        storage = f"stor{b}"
        ckt.add_mosfet(f"m_wacc{b}", NMOS, wwl_taps[b], last, storage,
                       cell.w_access_um)
        ckt.add_capacitor(f"c_stor{b}", storage,
                          tech.c_gate * 4.0 * tech.w_min_um)

    for s_idx in range(1, stack):
        compiled.control.build_spice(ckt, f"ictl{s_idx}", "clk",
                                     f"ien{s_idx}", f"ipreb{s_idx}",
                                     "vdd", tech)
        ckt.add_capacitor(
            f"c_ien{s_idx}", f"ien{s_idx}",
            spec.words * compiled.wl_driver.enable_cap())
        ckt.add_capacitor(
            f"c_ipreb{s_idx}", f"ipreb{s_idx}",
            spec.bits * tech.c_gate * compiled.sense.w_precharge)

    half = period / 2.0
    measure_cycle = n_cycles - 1
    measure_edge = measure_cycle * period + half
    window = (measure_cycle * period, n_cycles * period)
    supply = ["vdd", "clk"] + [f"vwin{b}" for b in range(spec.bits)]
    return BrickTestbench(
        circuit=ckt,
        period=period,
        n_cycles=n_cycles,
        measure_edge=measure_edge,
        window=window,
        probe_out="wwl_%d" % (spec.bits - 1),
        probe_falling=False,
        supply_sources=tuple(supply),
    )


def build_match_testbench(compiled: CompiledBrick, tech: Technology,
                          n_cycles: int = 3,
                          period: Optional[float] = None
                          ) -> BrickTestbench:
    """Extract the CAM match path: search-line drivers, search-line
    ladders, matchlines with compare stacks, matchline sense.

    The search key toggles every cycle (all search lines switch); one
    word matches (its matchline stays precharged) while the others
    mismatch and discharge — the expected single-match case of the
    SpGEMM architecture.  Delay is measured on a mismatching matchline's
    sensed output; energy over the steady-state cycle.
    """
    spec = compiled.spec
    cell = compiled.bitcell
    if not spec.is_cam or compiled.match is None:
        raise SimulationError("match testbench requires a CAM brick")
    match = compiled.match
    layer = tech.layer(tech.local_layer)
    if period is None:
        period = _auto_period(compiled, tech, 1)

    ckt = SpiceCircuit(f"tb_match_{spec.name}")
    ckt.add_vsource("vdd", "vdd", tech.vdd)
    ckt.add_vsource("clk", "clk", _scaled_clock(period, _EDGE, tech.vdd))
    compiled.control.build_spice(ckt, "ctl", "clk", "en", "preb", "vdd",
                                 tech)
    # The enable net drives the search-line driver gating (lump the
    # remaining load).
    ckt.add_capacitor("c_en_load", "en",
                      spec.bits * 2.0 * unit_input_cap(tech))

    # Per-bit search-line driver chain and ladder.  Search lines are
    # differential pairs in a real CAM: every evaluate phase, one line
    # of each pair pulses high and returns low during precharge (so the
    # matchline restore never fights a compare stack).  The testbench
    # drives the active line of every pair with an evaluate-phase pulse.
    r_sl, c_sl_wire = layer.rc(compiled.searchline_length_um())
    sl_taps = []
    for b in range(spec.bits):
        in_node = f"sin{b}"
        ckt.add_vsource(f"vsin{b}", in_node,
                        _scaled_clock(period, _EDGE, tech.vdd))
        node_in = in_node
        for i, stage_cap in enumerate(match.sl_stage_caps):
            from ..cells.leafcells import build_inverter, \
                inverter_widths
            w_n, w_p = inverter_widths(stage_cap, tech)
            node_out = f"sl{b}_d" if i == len(match.sl_stage_caps) - 1 \
                else f"sl{b}_s{i}"
            build_inverter(ckt, f"sld{b}_{i}", node_in, node_out,
                           "vdd", w_n, w_p)
            node_in = node_out
        nodes = _add_ladder(ckt, f"sl{b}_", f"sl{b}_d", r_sl,
                            c_sl_wire, 3,
                            extra_cap_total=(spec.words - 1)
                            * cell.c_sl)
        sl_taps.append(nodes[-1])

    # Matchlines: one detailed mismatching word (the delay probe), one
    # matching word (stays high), the rest lumped for energy.
    r_ml, c_ml_wire = layer.rc(compiled.matchline_length_um())

    def build_matchline(name: str, mismatch: bool) -> str:
        ml_far = f"{name}_far"
        # Far-end anchor: the last compare stack's drain diffusion.
        ckt.add_capacitor(f"{name}_cfar", ml_far, cell.c_ml)
        nodes = _add_ladder(ckt, f"{name}_", ml_far, r_ml, c_ml_wire, 3,
                            extra_cap_total=(spec.bits - 2) * cell.c_ml)
        ml_near = nodes[-1]
        ckt.add_mosfet(f"{name}_pre", PMOS, "preb", ml_near, "vdd",
                       match.w_ml_pre)
        if mismatch:
            # One bit mismatches: compare stack gated by its search line.
            mid = f"{name}_mid"
            ckt.add_mosfet(f"{name}_cmp", NMOS, sl_taps[0], ml_far,
                           mid, cell.w_match_um)
            ckt.add_mosfet(f"{name}_cmp2", NMOS, "vdd", mid, GND,
                           cell.w_match_um)
        # Matchline sense inverter -> sensed output.
        out = f"{name}_out"
        from ..cells.leafcells import build_inverter
        build_inverter(ckt, f"{name}_sns", ml_near, out, "vdd",
                       match.w_ml_sense_n, match.w_ml_sense_p)
        ckt.add_capacitor(f"{name}_cl", out,
                          4.0 * unit_input_cap(tech))
        return out

    probe = build_matchline("ml_miss", mismatch=True)
    build_matchline("ml_hit", mismatch=False)
    # Remaining (words - 2) mismatching matchlines, lumped: a shared
    # node with the aggregate cap, one discharge stack and a scaled
    # precharge device.
    rest = spec.words - 2
    if rest > 0:
        c_ml_total = compiled.matchline_cap(tech)
        ckt.add_capacitor("c_mlbulk", "mlbulk", rest * c_ml_total)
        ckt.add_mosfet("m_mlbulk_pre", PMOS, "preb", "mlbulk", "vdd",
                       match.w_ml_pre * rest)
        # With a changing key, every non-matching word has some
        # mismatching bit each cycle: gate the aggregate discharge with
        # the evaluate enable so the bulk lines pay CV^2 every cycle.
        ckt.add_mosfet("m_mlbulk_dis", NMOS, "en", "mlbulk", GND,
                       cell.w_match_um * rest)

    half = period / 2.0
    measure_cycle = n_cycles - 1
    measure_edge = measure_cycle * period + half
    window = (measure_cycle * period, n_cycles * period)
    supply = ["vdd", "clk"] + [f"vsin{b}" for b in range(spec.bits)]
    return BrickTestbench(
        circuit=ckt,
        period=period,
        n_cycles=n_cycles,
        measure_edge=measure_edge,
        window=window,
        probe_out=probe,
        probe_falling=False,  # sensed output rises on mismatch
        supply_sources=tuple(supply),
    )


def measure_match(compiled: CompiledBrick, tech: Technology,
                  dt: float = 1.0 * PS) -> Tuple[float, float]:
    """Reference CAM match (delay to the sensed mismatch, energy/cycle)."""
    tb = build_match_testbench(compiled, tech)
    return tb.run(tech, dt=dt)


def measure_read(compiled: CompiledBrick, tech: Technology,
                 stack: Optional[int] = None,
                 dt: float = 1.0 * PS) -> Tuple[float, float]:
    """Reference read (critical path, energy) for Table 1's SPICE column."""
    tb = build_read_testbench(compiled, tech, stack=stack)
    return tb.run(tech, dt=dt)


def measure_write(compiled: CompiledBrick, tech: Technology,
                  stack: Optional[int] = None,
                  dt: float = 1.0 * PS) -> float:
    """Reference write energy per cycle."""
    tb = build_write_testbench(compiled, tech, stack=stack)
    _, energy = tb.run(tech, dt=dt)
    return energy
