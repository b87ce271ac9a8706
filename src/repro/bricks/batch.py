"""Struct-of-arrays brick compilation and estimation.

The design-space explorations of Section 5 (Fig. 4c) and the Monte-Carlo
signoff both price thousands of ``(BrickSpec, stack)`` candidates; this
module sizes and prices an entire population in a handful of numpy
array operations.  It is the only copy of the compiler's sizing rules
and of the estimator's formulas:
:func:`repro.bricks.compiler.compile_brick` is a one-row
:func:`compile_batch` read back by :func:`compiled_row`, and
:func:`repro.bricks.estimator.estimate_brick` prices one compiled brick
as a one-row batch (:func:`brick_rows`, the inverse of
:func:`compiled_row`).

* :class:`BrickSpecBatch` holds the population as parallel arrays
  (memory-type code, words, bits, stack) — one column per spec field.
* :func:`compile_batch` runs the paper's logical-effort periphery
  sizing with :func:`repro.circuit.logical_effort.buffer_chain_batch`,
  including the odd/even polarity forcing.  A row sizes the same bits
  alone or inside any batch.
* :func:`estimate_metric_columns` evaluates every
  delay/energy/area/leakage term element-wise, in the accumulation
  order of the scalar closed forms kept as the test oracle, so a row is
  ``==`` to the oracle over the same sizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cells.bitcells import CAM_10T, MEMORY_TYPES, make_bitcell
from ..cells.leafcells import ControlBlock, LocalSense, WordlineDriver, \
    inverter_widths
from ..cells.stdcells import unit_input_cap
from ..circuit.logical_effort import buffer_chain_batch
from ..errors import BrickError
from ..tech.technology import Technology
from .compiler import CompiledBrick, MatchPeriphery
from .estimator import _CROWBAR_FO4, _K50, BrickPerformance
from .spec import MAX_BITS, MAX_WORDS, BrickSpec


def _as_int_array(values, name: str, lo: int, hi: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise BrickError(f"{name} must be a 1-D array")
    if arr.dtype.kind == "f":
        if arr.size and (not np.isfinite(arr).all()
                         or (arr != np.floor(arr)).any()):
            raise BrickError(f"{name} must be finite integers")
    elif arr.dtype.kind not in ("i", "u"):
        raise BrickError(f"{name} must be an integer array")
    arr = arr.astype(np.int64)
    if arr.size and ((arr < lo).any() or (arr > hi).any()):
        raise BrickError(f"{name} must be in [{lo}, {hi}]")
    return arr


@dataclass(frozen=True)
class BrickSpecBatch:
    """A population of ``(BrickSpec, stack)`` points as parallel arrays.

    ``memory_code[i]`` indexes :data:`repro.cells.bitcells.MEMORY_TYPES`;
    ``out_load`` optionally overrides the estimator's default ARBL output
    load per point (``None`` keeps the compiler's 4-unit-cap assumption).
    """

    memory_code: np.ndarray
    words: np.ndarray
    bits: np.ndarray
    stack: np.ndarray
    out_load: Optional[np.ndarray] = None

    @property
    def n_points(self) -> int:
        return int(self.words.shape[0])

    @property
    def is_cam(self) -> np.ndarray:
        return self.memory_code == MEMORY_TYPES.index(CAM_10T)

    @classmethod
    def from_arrays(cls, memory_types: Sequence[str], words, bits, stack,
                    out_load=None) -> "BrickSpecBatch":
        """Build a batch from per-point columns, validating every point
        the way :class:`~repro.bricks.spec.BrickSpec` and
        :func:`~repro.bricks.compiler.compile_brick` would."""
        try:
            codes = np.asarray(
                [MEMORY_TYPES.index(mt) for mt in memory_types],
                dtype=np.int8)
        except ValueError as exc:
            raise BrickError(
                f"unknown memory type; known: {MEMORY_TYPES}") from exc
        words = _as_int_array(words, "words", 1, MAX_WORDS)
        bits = _as_int_array(bits, "bits", 1, MAX_BITS)
        stack = _as_int_array(stack, "stack", 1, 1 << 30)
        n = words.shape[0]
        if not (codes.shape[0] == bits.shape[0] == stack.shape[0] == n):
            raise BrickError("batch columns must have equal length")
        if out_load is not None:
            out_load = np.asarray(out_load, dtype=np.float64)
            if out_load.shape != (n,):
                raise BrickError("out_load must align with the batch")
            if out_load.size and (not np.isfinite(out_load).all()
                                  or (out_load <= 0).any()):
                raise BrickError("out_load must be finite and positive")
        return cls(codes, words, bits, stack, out_load)

    @classmethod
    def from_points(cls, points: Sequence[Tuple]) -> "BrickSpecBatch":
        """Build a batch from ``(spec, stack)`` or ``(spec, stack,
        out_load)`` tuples — the shape ``estimate_points`` tasks come
        in."""
        types: List[str] = []
        words: List[int] = []
        bits: List[int] = []
        stacks: List[int] = []
        loads: List[Optional[float]] = []
        for point in points:
            spec, stack = point[0], point[1]
            if not isinstance(spec, BrickSpec):
                raise BrickError(
                    f"batch points need a BrickSpec, got {type(spec)}")
            types.append(spec.memory_type)
            words.append(spec.words)
            bits.append(spec.bits)
            stacks.append(int(stack))
            loads.append(point[2] if len(point) > 2 else None)
        out_load = None
        if any(load is not None for load in loads):
            if any(load is None for load in loads):
                raise BrickError(
                    "either every point or no point sets out_load")
            out_load = loads
        return cls.from_arrays(types, words, bits, stacks, out_load)

    def spec(self, i: int) -> BrickSpec:
        """Materialize point ``i`` back into a scalar spec."""
        return BrickSpec(str(MEMORY_TYPES[int(self.memory_code[i])]),
                         int(self.words[i]), int(self.bits[i]))


def _brick_name(memory_type: str, words: int, bits: int) -> str:
    # Mirrors BrickSpec.name without materializing a spec per point.
    prefix = "cam_brick" if memory_type == CAM_10T else "brick"
    suffix = "" if memory_type in ("8T", CAM_10T) else \
        f"_{memory_type.lower()}"
    return f"{prefix}_{words}_{bits}{suffix}"


#: Bitcell parameters the kernel reads, one column each.
_BITCELL_FIELDS = ("width_um", "height_um", "c_rwl", "c_wwl", "c_rbl",
                   "c_wbl", "r_read", "i_leak", "c_ml", "c_sl", "r_match")


def _gather_bitcells(codes: np.ndarray, tech: Technology) -> dict:
    """Per-point bitcell parameter columns, one ``make_bitcell`` call
    per memory type present in the batch."""
    n = codes.shape[0]
    out = {name: np.zeros(n, dtype=np.float64) for name in _BITCELL_FIELDS}
    for code in np.unique(codes):
        cell = make_bitcell(MEMORY_TYPES[int(code)], tech)
        mask = codes == code
        for name in _BITCELL_FIELDS:
            out[name][mask] = getattr(cell, name)
    return out


@dataclass(frozen=True)
class CompiledBrickBatch:
    """All sized-periphery columns :func:`estimate_batch` consumes.

    Chain stage caps are ``(n_points, max_stages)`` zero-padded arrays
    with per-point stage counts alongside, exactly as
    :func:`buffer_chain_batch` returns them.  CAM-only columns are
    stored compactly over ``cam_idx``.
    """

    batch: BrickSpecBatch
    tech_name: str
    cell: dict
    nand_cap: float
    wl_caps: np.ndarray
    wl_n: np.ndarray
    w_sense_n: np.ndarray
    w_sense_p: np.ndarray
    w_pull: np.ndarray
    w_precharge: np.ndarray
    ctrl_caps: np.ndarray
    ctrl_n: np.ndarray
    preb_caps: np.ndarray
    preb_n: np.ndarray
    cam_idx: np.ndarray
    sl_caps: np.ndarray
    sl_n: np.ndarray
    w_ml_pre: np.ndarray
    w_ml_sense_n: np.ndarray
    w_ml_sense_p: np.ndarray


def compile_batch(batch: BrickSpecBatch,
                  tech: Technology) -> CompiledBrickBatch:
    """Size every peripheral block of every point for its stack.

    The paper's formulized methodology, column-wise: wordline drivers
    sized as a logical-effort buffer chain against the wordline RC load
    (odd, so the wordline pulses high), local sense and ARBL pull-down
    sized against the stack-dependent ARBL load, the control block
    against the enable fan-out (even) with an odd precharge-bar branch
    off its first stage, and — for CAM points — non-inverting
    search-line drivers.
    """
    n = batch.n_points
    cell = _gather_bitcells(batch.memory_code, tech)
    layer = tech.layer(tech.local_layer)
    bl_layer = tech.layer(tech.bitline_layer)
    c_unit = unit_input_cap(tech)
    words = batch.words.astype(np.float64)
    bits = batch.bits.astype(np.float64)
    stack = batch.stack.astype(np.float64)

    # --- wordline driver (odd chain, NAND-gated) -------------------------
    c_wl_wire = layer.c_per_um * (bits * cell["width_um"])
    wl_load = c_wl_wire + bits * cell["c_rwl"]
    nand_cap = 1.0 * c_unit
    wl_caps, wl_n = buffer_chain_batch(
        np.full(n, nand_cap), wl_load, tech, parity="odd")

    # --- local sense / ARBL pull-down ------------------------------------
    # The pull-down's own diffusion loads the shared ARBL once per
    # stacked brick, so "stage effort 4" is the self-consistent
    #     4 c_gate w = stack (c_wire + c_diff w) + c_out
    # (c_out: a bank-level mux or capture flop, 4 unit caps).  Past
    # stack c_diff ~ 4 c_gate bigger devices stop paying for
    # themselves: the denominator keeps a 2-unit margin and the width
    # is capped for area sanity.
    brick_height = words * cell["height_um"] + 2.0 * cell["height_um"]
    arbl_wire = bl_layer.c_per_um * brick_height
    c_out = 4.0 * c_unit
    c_fixed = stack * arbl_wire + c_out
    denom = np.maximum(4.0 * tech.c_gate - stack * tech.c_diff,
                       2.0 * tech.c_gate)
    w_pull = np.minimum(np.maximum(tech.w_min_um, c_fixed / denom),
                        16.0 * tech.w_min_um)
    # The sense inverter scales with the pull-down it drives; the LBL
    # precharge has a half-cycle to restore a small local line.
    w_sense_n = np.maximum(2.0 * tech.w_min_um, w_pull / 6.0)
    w_sense_p = w_sense_n * tech.inverter_beta()
    w_precharge = np.maximum(tech.w_min_um, w_pull / 6.0)

    # --- control block (even chain + odd precharge-bar branch) -----------
    enable_load = words * nand_cap
    ctrl_caps, ctrl_n = buffer_chain_batch(
        np.full(n, 2.0 * c_unit), enable_load, tech, parity="even")
    preb_load = 2.0 * bits * tech.c_gate * w_precharge
    first = ctrl_caps[:, 0] if n else np.zeros(0)
    preb_caps, preb_n = buffer_chain_batch(first, preb_load, tech,
                                           parity="odd")

    # --- CAM match periphery (compact over the CAM subset) ---------------
    cam_idx = np.flatnonzero(batch.is_cam)
    c_sl_wire = layer.c_per_um * (words[cam_idx]
                                  * cell["height_um"][cam_idx])
    sl_load = c_sl_wire + words[cam_idx] * cell["c_sl"][cam_idx]
    sl_caps, sl_n = buffer_chain_batch(
        np.full(cam_idx.shape[0], 2.0 * c_unit), sl_load, tech,
        parity="even")
    w_ml_sense_n = np.full(cam_idx.shape[0], 2.0 * tech.w_min_um)

    return CompiledBrickBatch(
        batch=batch, tech_name=tech.name, cell=cell, nand_cap=nand_cap,
        wl_caps=wl_caps, wl_n=wl_n,
        w_sense_n=w_sense_n, w_sense_p=w_sense_p, w_pull=w_pull,
        w_precharge=w_precharge,
        ctrl_caps=ctrl_caps, ctrl_n=ctrl_n,
        preb_caps=preb_caps, preb_n=preb_n,
        cam_idx=cam_idx, sl_caps=sl_caps, sl_n=sl_n,
        w_ml_pre=np.full(cam_idx.shape[0], 2.0 * tech.w_min_um),
        w_ml_sense_n=w_ml_sense_n,
        w_ml_sense_p=w_ml_sense_n * tech.inverter_beta(),
    )


def brick_rows(compiled: CompiledBrick, stack: int,
               out_loads: Optional[Sequence[float]] = None
               ) -> CompiledBrickBatch:
    """One compiled brick as a batch priced at ``stack``.

    The rows carry the brick's own sizing — bitcell, stage caps and
    widths as :func:`compile_batch` chose them for
    ``compiled.target_stack`` — so a brick compiled for one stack
    prices at another with its sizing frozen.  There is one row per
    entry of ``out_loads``, or one row at the default load.  The
    inverse of :func:`compiled_row`.
    """
    spec = compiled.spec
    n = 1 if out_loads is None else len(out_loads)
    batch = BrickSpecBatch.from_arrays(
        [spec.memory_type] * n, [spec.words] * n, [spec.bits] * n,
        [stack] * n, out_loads)
    n_cam = n if spec.is_cam else 0

    def chain(caps, rows=n):
        return (np.tile(np.asarray(caps, dtype=np.float64), (rows, 1)),
                np.full(rows, len(caps), dtype=np.int64))

    def column(value, rows=n):
        return np.full(rows, float(value))

    sense = compiled.sense
    match = compiled.match
    wl_caps, wl_n = chain(compiled.wl_driver.stage_caps)
    ctrl_caps, ctrl_n = chain(compiled.control.stage_caps)
    preb_caps, preb_n = chain(compiled.control.preb_stage_caps)
    sl_caps, sl_n = chain(match.sl_stage_caps if match else (), n_cam)
    return CompiledBrickBatch(
        batch=batch, tech_name=compiled.tech_name,
        cell={name: column(getattr(compiled.bitcell, name))
              for name in _BITCELL_FIELDS},
        nand_cap=compiled.wl_driver.nand_input_cap,
        wl_caps=wl_caps, wl_n=wl_n,
        w_sense_n=column(sense.w_sense_n),
        w_sense_p=column(sense.w_sense_p), w_pull=column(sense.w_pull),
        w_precharge=column(sense.w_precharge),
        ctrl_caps=ctrl_caps, ctrl_n=ctrl_n,
        preb_caps=preb_caps, preb_n=preb_n,
        cam_idx=np.arange(n_cam), sl_caps=sl_caps, sl_n=sl_n,
        w_ml_pre=column(match.w_ml_pre if match else 0.0, n_cam),
        w_ml_sense_n=column(match.w_ml_sense_n if match else 0.0, n_cam),
        w_ml_sense_p=column(match.w_ml_sense_p if match else 0.0, n_cam),
    )


def compiled_row(compiled: CompiledBrickBatch, tech: Technology,
                 i: int) -> CompiledBrick:
    """Row ``i`` of a compiled population as a :class:`CompiledBrick`
    carrying the same sizing, compiled for the row's stack.

    ``compile_brick`` is this over a one-row batch, and
    ``brick_rows(compiled_row(c, tech, i), stack)`` gives back row
    ``i``'s columns.  ``tech`` must be the technology the batch was
    compiled in (it builds the row's bitcell).
    """
    if compiled.tech_name != tech.name:
        raise BrickError(
            f"batch compiled for {compiled.tech_name!r}, "
            f"read back in {tech.name!r}")
    batch = compiled.batch
    spec = batch.spec(i)

    def caps(stage_caps, n_stages, row):
        return tuple(stage_caps[row, :n_stages[row]].tolist())

    match = None
    if spec.is_cam:
        j = int(np.flatnonzero(compiled.cam_idx == i)[0])
        match = MatchPeriphery(
            sl_stage_caps=caps(compiled.sl_caps, compiled.sl_n, j),
            w_ml_pre=float(compiled.w_ml_pre[j]),
            w_ml_sense_n=float(compiled.w_ml_sense_n[j]),
            w_ml_sense_p=float(compiled.w_ml_sense_p[j]))
    return CompiledBrick(
        spec=spec, tech_name=compiled.tech_name,
        target_stack=int(batch.stack[i]),
        bitcell=make_bitcell(spec.memory_type, tech),
        wl_driver=WordlineDriver(
            nand_input_cap=compiled.nand_cap,
            stage_caps=caps(compiled.wl_caps, compiled.wl_n, i)),
        sense=LocalSense(
            w_sense_n=float(compiled.w_sense_n[i]),
            w_sense_p=float(compiled.w_sense_p[i]),
            w_pull=float(compiled.w_pull[i]),
            w_precharge=float(compiled.w_precharge[i])),
        control=ControlBlock(
            stage_caps=caps(compiled.ctrl_caps, compiled.ctrl_n, i),
            preb_stage_caps=caps(compiled.preb_caps, compiled.preb_n, i)),
        match=match)


# --------------------------------------------------------------------------
# Masked per-stage accumulations.  Each helper walks the padded stage
# columns in stage order, the order a per-point loop over the stage
# tuples adds them, so the float accumulation order (and therefore the
# result, to the last ulp) matches the scalar oracle.
# --------------------------------------------------------------------------


def _chain_delay(caps: np.ndarray, n_stages: np.ndarray, load,
                 tech: Technology) -> np.ndarray:
    """50 % delay through each padded inverter chain into ``load``."""
    n_pts, max_s = caps.shape
    delay = np.zeros(n_pts)
    inv_denom = tech.c_gate * (1.0 + tech.inverter_beta())
    beta_w = tech.inverter_beta()
    load = np.broadcast_to(np.asarray(load, dtype=np.float64), (n_pts,))
    for i in range(max_s):
        active = i < n_stages
        c_in = caps[:, i]
        if i + 1 < max_s:
            c_out = np.where((i + 1) < n_stages, caps[:, i + 1], load)
        else:
            c_out = load
        with np.errstate(divide="ignore", invalid="ignore"):
            w_n = c_in / inv_denom
            w_p = beta_w * w_n
            r_drive = 0.5 * (tech.r_on_n / w_n + tech.r_on_p / w_p)
            c_self = tech.c_diff * (w_n + w_p)
            term = _K50 * r_drive * (c_out + c_self)
        delay = delay + np.where(active, term, 0.0)
    return delay


def _chain_width(caps: np.ndarray, n_stages: np.ndarray,
                 tech: Technology, acc: np.ndarray) -> np.ndarray:
    """Accumulate per-stage ``w_n + w_p`` onto ``acc`` (leafcell
    ``total_width_um`` loops)."""
    inv_denom = tech.c_gate * (1.0 + tech.inverter_beta())
    beta_w = tech.inverter_beta()
    for i in range(caps.shape[1]):
        w_n = caps[:, i] / inv_denom
        w_p = beta_w * w_n
        acc = acc + np.where(i < n_stages, w_n + w_p, 0.0)
    return acc


def _chain_internal_cap(caps: np.ndarray, n_stages: np.ndarray,
                        tech: Technology, acc: np.ndarray,
                        with_stage_cap: bool = True) -> np.ndarray:
    """Accumulate per-stage ``[stage_cap +] c_diff * (w_n + w_p)``."""
    inv_denom = tech.c_gate * (1.0 + tech.inverter_beta())
    beta_w = tech.inverter_beta()
    for i in range(caps.shape[1]):
        c_in = caps[:, i]
        w_n = c_in / inv_denom
        w_p = beta_w * w_n
        term = tech.c_diff * (w_n + w_p)
        if with_stage_cap:
            term = c_in + term
        acc = acc + np.where(i < n_stages, term, 0.0)
    return acc


def estimate_metric_columns(compiled: CompiledBrickBatch,
                            tech: Technology,
                            out_load: Optional[float] = None
                            ) -> Dict[str, np.ndarray]:
    """Price the population and return the raw metric *columns*.

    This is the array-level seam the sharded design-space explorer
    rides: all the float math of :func:`estimate_batch` with none of
    the per-point object packing (which dominates wall clock above
    ~10^4 points).  The returned dict maps metric names to length-``n``
    float arrays — ``read_delay``, ``read_energy``, ``write_energy``,
    ``setup``, ``clock_cap`` (stacked), ``wbl_cap``, ``area_um2``
    (stacked), ``leakage_w`` — plus ``hold`` (a scalar float),
    ``match_delay``/``match_energy`` compact over ``cam_idx``,
    ``brick_area`` (one brick's layout area, ``area_um2`` before the
    ``x stack``), and a ``components`` sub-dict of the 16 delay/energy
    breakdown columns.
    :func:`estimate_batch` is exactly these columns + ``_pack``.
    """
    if compiled.tech_name != tech.name:
        raise BrickError(
            f"batch compiled for {compiled.tech_name!r}, "
            f"estimated in {tech.name!r}")
    batch = compiled.batch
    n = batch.n_points
    if n == 0:
        empty = np.zeros(0)
        return {name: empty for name in
                ("read_delay", "read_energy", "write_energy", "setup",
                 "clock_cap", "wbl_cap", "area_um2", "brick_area",
                 "leakage_w", "match_delay", "match_energy")} | {
                    "hold": 0.5 * tech.fo4_delay(),
                    "cam_idx": np.zeros(0, dtype=np.int64),
                    "components": {key: empty
                                   for key in _COMPONENT_KEYS}}
    cell = compiled.cell
    layer = tech.layer(tech.local_layer)
    bl_layer = tech.layer(tech.bitline_layer)
    c_unit = unit_input_cap(tech)
    vdd = tech.vdd
    words = batch.words.astype(np.float64)
    bits = batch.bits.astype(np.float64)
    stack = batch.stack.astype(np.float64)
    if batch.out_load is not None:
        load_out = batch.out_load
    elif out_load is not None:
        load_out = np.full(n, float(out_load))
    else:
        load_out = np.full(n, 4.0 * c_unit)

    # ------------------------------------------------------- read delay --
    enable_net = words * compiled.nand_cap
    preb_net_active = bits * tech.c_gate * (compiled.w_precharge
                                            + compiled.w_pull)
    preb_net_idle = bits * tech.c_gate * compiled.w_precharge
    t_ctrl = _chain_delay(compiled.ctrl_caps, compiled.ctrl_n,
                          enable_net, tech)

    first_stage = compiled.wl_caps[:, 0]
    w_nand_n, w_nand_p = inverter_widths(compiled.nand_cap, tech)
    r_nand = 0.5 * (tech.r_on_n / w_nand_n + tech.r_on_p / w_nand_p)
    c_nand_self = tech.c_diff * (2 * w_nand_n + 2 * w_nand_p)
    t_nand = _K50 * r_nand * (first_stage + c_nand_self)

    wl_len = bits * cell["width_um"]
    r_wl_wire = layer.r_per_um * wl_len
    c_wl_wire = layer.c_per_um * wl_len
    c_wl_taps = bits * cell["c_rwl"]
    t_chain = _chain_delay(compiled.wl_caps, compiled.wl_n,
                           c_wl_wire + c_wl_taps, tech)

    lbl_len = words * cell["height_um"]
    r_lbl_wire = layer.r_per_um * lbl_len
    c_lbl_wire = layer.c_per_um * lbl_len
    lbl_load = tech.c_gate * (compiled.w_sense_n + compiled.w_sense_p) \
        + tech.c_diff * compiled.w_precharge
    c_lbl = c_lbl_wire + words * cell["c_rbl"] + lbl_load

    t_sense = _K50 * (tech.r_on_p / compiled.w_sense_p) * (
        tech.c_gate * compiled.w_pull
        + (tech.c_gate * compiled.w_pull
           + tech.c_diff * (compiled.w_sense_n + compiled.w_sense_p)))

    brick_height = words * cell["height_um"] + 2.0 * cell["height_um"]
    arbl_per_brick = bl_layer.c_per_um * brick_height \
        + tech.c_diff * compiled.w_pull
    c_arbl = stack * arbl_per_brick + load_out
    r_arbl_wire = bl_layer.r_per_um * (stack * brick_height)
    r_pull = tech.r_on_n / compiled.w_pull

    # CAM matchline geometry (compact columns over cam_idx).
    cam = compiled.cam_idx
    ml_len = bits[cam] * cell["width_um"][cam]
    r_ml_wire = layer.r_per_um * ml_len
    c_ml_wire = layer.c_per_um * ml_len
    c_ml = (c_ml_wire + bits[cam] * cell["c_ml"][cam]
            + tech.c_diff * compiled.w_ml_pre
            + tech.c_gate * (compiled.w_ml_sense_n
                             + compiled.w_ml_sense_p))
    r_match = cell["r_match"][cam]

    # Distributed-wire (Elmore) terms, each net a single RC segment with
    # the rest of the net folded into driver resistance and lumped caps.
    t_wl_wire = _K50 * r_wl_wire * (c_wl_wire / 2.0 + c_wl_taps / 2.0)
    t_cell = _K50 * (cell["r_read"] * c_lbl
                     + r_lbl_wire * (c_lbl_wire / 2.0 + lbl_load))
    t_arbl = _K50 * (r_pull * c_arbl + r_arbl_wire * (c_arbl / 2.0))
    t_ml = _K50 * (r_match * c_ml + r_ml_wire * c_ml_wire / 2.0)

    read_delay = t_ctrl + t_nand + t_chain + t_wl_wire + t_cell + \
        t_sense + t_arbl

    # ------------------------------------------------------- read energy --
    n_discharge = ((batch.bits + 1) // 2).astype(np.float64)
    # Control block switched internal cap, summed in three passes: stage
    # caps past the first, then every stage's diffusion, then the
    # precharge-bar branch (stage cap + diffusion).
    ctrl_internal = _chain_stage_caps_only(
        compiled.ctrl_caps, compiled.ctrl_n, np.zeros(n))
    ctrl_internal = _chain_internal_cap(
        compiled.ctrl_caps, compiled.ctrl_n, tech, ctrl_internal,
        with_stage_cap=False)
    ctrl_internal = _chain_internal_cap(
        compiled.preb_caps, compiled.preb_n, tech, ctrl_internal)

    wl_internal = _chain_internal_cap(
        compiled.wl_caps, compiled.wl_n, tech,
        np.full(n, c_nand_self), with_stage_cap=True)
    sense_internal = tech.c_gate * compiled.w_pull + tech.c_diff * (
        compiled.w_sense_n + compiled.w_sense_p)
    clock_cap = compiled.ctrl_caps[:, 0]

    e_ctrl = (ctrl_internal + enable_net + preb_net_active
              + clock_cap) * vdd * vdd
    e_wl = (c_wl_wire + c_wl_taps + wl_internal) * vdd * vdd
    e_lbl = n_discharge * (c_lbl * vdd * vdd)
    e_sense = n_discharge * (sense_internal * vdd * vdd)
    e_arbl = n_discharge * (c_arbl * vdd * vdd)
    e_idle = (stack - 1.0) * ((ctrl_internal + enable_net
                               + preb_net_idle + clock_cap) * vdd * vdd)
    t_overlap = _CROWBAR_FO4 * tech.fo4_delay()
    e_crowbar = bits * vdd * vdd * (
        compiled.w_precharge / tech.r_on_p) * t_overlap
    read_energy = (e_ctrl + e_wl + e_lbl + e_sense + e_arbl + e_idle
                   + e_crowbar)

    # ------------------------------------------------------- write energy --
    c_wbl_bank = stack * (bl_layer.c_per_um * lbl_len
                          + words * cell["c_wbl"])
    e_wbl = n_discharge * (c_wbl_bank * vdd * vdd)
    c_wwl = c_wl_wire + bits * cell["c_wwl"]
    e_wwl = (c_wwl + wl_internal) * vdd * vdd
    write_energy = e_ctrl + e_wwl + e_wbl + e_idle

    # ------------------------------------------------------- constraints --
    fo4 = tech.fo4_delay()
    setup = 2.0 * fo4 + t_ctrl
    hold = 0.5 * fo4

    # ------------------------------------------------------- CAM match --
    t_sl_chain = _chain_delay(compiled.sl_caps, compiled.sl_n,
                              _searchline_cap(compiled, tech), tech)
    w_sp = compiled.w_ml_sense_p
    t_ml_sense = _K50 * (tech.r_on_p / w_sp) * (
        4.0 * c_unit + tech.c_diff * (compiled.w_ml_sense_n + w_sp))
    match_delay = t_ctrl[cam] + t_sl_chain + t_ml + t_ml_sense

    sl_internal = np.zeros(cam.shape[0])
    inv_denom = tech.c_gate * (1.0 + tech.inverter_beta())
    beta_w = tech.inverter_beta()
    for i in range(compiled.sl_caps.shape[1]):
        c_in = compiled.sl_caps[:, i]
        active = i < compiled.sl_n
        w_n = c_in / inv_denom
        w_p = beta_w * w_n
        sl_internal = sl_internal + np.where(
            active, tech.c_diff * (w_n + w_p), 0.0)
        if i > 0:
            sl_internal = sl_internal + np.where(active, c_in, 0.0)
    e_sl = bits[cam] * ((_searchline_cap(compiled, tech) + sl_internal)
                        * vdd * vdd)
    e_ml = np.maximum(batch.words[cam] - 1, 1).astype(np.float64) * (
        c_ml * vdd * vdd)
    match_energy = e_ctrl[cam] + e_sl + e_ml + e_idle[cam]

    # ------------------------------------------------------- area/leak --
    # Analytic transcription of layout.generate_layout: the generated
    # strip geometry is a closed form of the leaf areas, and generated
    # pattern grids are hotspot-free by construction, so the batch path
    # prices area without building a grid.
    wl_total_w = _chain_width(
        compiled.wl_caps, compiled.wl_n, tech,
        np.full(n, 2 * (2 * w_nand_n + w_nand_p)))
    sense_total_w = (compiled.w_sense_n + compiled.w_sense_p
                     + compiled.w_pull + compiled.w_precharge)
    ctrl_total_w = _chain_width(
        compiled.preb_caps, compiled.preb_n, tech,
        _chain_width(compiled.ctrl_caps, compiled.ctrl_n, tech,
                     np.zeros(n)))

    array_w = bits * cell["width_um"]
    array_h = words * cell["height_um"]
    poly = tech.poly_pitch_um
    m1 = tech.m1_pitch_um
    wl_area = words * (np.maximum(
        wl_total_w * poly / (2.0 * tech.w_min_um), poly)
        * cell["height_um"])
    wl_strip_w = np.maximum(poly * 2,
                            wl_area / np.maximum(array_h, 1e-9))
    sense_area = bits * (np.maximum(
        sense_total_w * m1 / (2.0 * tech.w_min_um), m1)
        * cell["width_um"])
    sense_strip_h = np.maximum(sense_area / np.maximum(array_w, 1e-9),
                               m1 * 2)
    ctrl_area = np.maximum(
        ctrl_total_w * poly / (2.0 * tech.w_min_um), poly) \
        * tech.row_height_um

    is_cam = batch.is_cam
    sl_area = bits * cell["width_um"] * m1 * 4
    sl_strip_h = np.where(
        is_cam,
        np.maximum(sl_area / np.maximum(array_w, 1e-9), m1 * 2), 0.0)
    ml_area = words * cell["height_um"] * poly * 3
    ml_strip_w = np.where(
        is_cam,
        np.maximum(ml_area / np.maximum(array_h, 1e-9), poly * 2), 0.0)

    width = wl_strip_w + array_w + ml_strip_w
    height = sense_strip_h + array_h + sl_strip_h
    fold = ctrl_area > wl_strip_w * sense_strip_h
    extra = np.where(
        fold, (ctrl_area - wl_strip_w * sense_strip_h) / width, 0.0)
    height = height + extra
    brick_area = width * height

    n_cells = (batch.words * batch.bits).astype(np.float64)
    leak_cells = n_cells * cell["i_leak"] * vdd
    periph_width = (wl_total_w * words + sense_total_w * bits
                    + ctrl_total_w)
    leak_periph = tech.i_leak_n * periph_width * 0.5 * vdd
    leakage = stack * (leak_cells + leak_periph)

    components = dict(zip(_COMPONENT_KEYS,
                          (t_ctrl, t_nand, t_chain, t_wl_wire, t_cell,
                           t_sense, t_arbl, e_ctrl, e_wl, e_lbl,
                           e_sense, e_arbl, e_idle, e_crowbar, e_wbl,
                           e_wwl)))
    return {
        "read_delay": read_delay,
        "read_energy": read_energy,
        "write_energy": write_energy,
        "setup": setup,
        "hold": hold,
        "clock_cap": stack * clock_cap,
        "wbl_cap": c_wbl_bank,
        "area_um2": brick_area * stack,
        "brick_area": brick_area,
        "leakage_w": leakage,
        "match_delay": match_delay,
        "match_energy": match_energy,
        "cam_idx": compiled.cam_idx,
        "components": components,
    }


def estimate_batch(compiled: CompiledBrickBatch, tech: Technology,
                   out_load: Optional[float] = None
                   ) -> List[BrickPerformance]:
    """Price the compiled population into per-point results.

    Prices every point at once and packs the results into per-point
    :class:`BrickPerformance` objects (plain-float fields).
    ``out_load`` applies to every point unless the batch carries its own
    per-point ``out_load`` column.  Callers that only need metric
    arrays (the sharded explorer) should use
    :func:`estimate_metric_columns` instead — the packing here costs
    more than the math at population scale.
    """
    if compiled.batch.n_points == 0:
        return []
    columns = estimate_metric_columns(compiled, tech, out_load=out_load)
    return _pack(compiled.batch, compiled, columns)


def _searchline_cap(compiled: CompiledBrickBatch,
                  tech: Technology) -> np.ndarray:
    """Per-CAM-point searchline capacitance (wire + cell taps)."""
    batch = compiled.batch
    cam = compiled.cam_idx
    words = batch.words.astype(np.float64)[cam]
    height = compiled.cell["height_um"][cam]
    layer = tech.layer(tech.local_layer)
    return layer.c_per_um * (words * height) \
        + words * compiled.cell["c_sl"][cam]


def _chain_stage_caps_only(caps: np.ndarray, n_stages: np.ndarray,
                           acc: np.ndarray) -> np.ndarray:
    """Sum ``stage_caps[1:]`` per point (first control internal-cap
    loop)."""
    for i in range(1, caps.shape[1]):
        acc = acc + np.where(i < n_stages, caps[:, i], 0.0)
    return acc


#: Delay/energy breakdown columns, in ``BrickPerformance.components``
#: order.
_COMPONENT_KEYS = ("t_ctrl", "t_nand", "t_chain", "t_wl_wire", "t_cell",
                   "t_sense", "t_arbl", "e_ctrl", "e_wl", "e_lbl",
                   "e_sense", "e_arbl", "e_idle", "e_crowbar", "e_wbl",
                   "e_wwl")


def _pack(batch, compiled,
          columns: Dict[str, np.ndarray]) -> List[BrickPerformance]:
    """Scatter the result columns back into per-point scalar objects."""
    comp_keys = _COMPONENT_KEYS
    cols = [columns[name].tolist() for name in
            ("read_delay", "read_energy", "write_energy", "setup",
             "clock_cap", "wbl_cap", "area_um2", "brick_area",
             "leakage_w")]
    cols += [columns["components"][key].tolist() for key in comp_keys]
    (rd, re_, we, su, cc, wb, ar, ba, lk) = cols[:9]
    comp_cols = cols[9:]
    match_pos = {int(idx): j
                 for j, idx in enumerate(compiled.cam_idx.tolist())}
    match_delay = columns["match_delay"].tolist()
    match_energy = columns["match_energy"].tolist()
    hold = float(columns["hold"])
    dwl_cap = float(compiled.nand_cap)
    words = batch.words.tolist()
    bits = batch.bits.tolist()
    stacks = batch.stack.tolist()
    types = [MEMORY_TYPES[code] for code in batch.memory_code.tolist()]
    out: List[BrickPerformance] = []
    for i in range(batch.n_points):
        j = match_pos.get(i)
        out.append(BrickPerformance(
            brick_name=_brick_name(types[i], words[i], bits[i]),
            stack=stacks[i],
            read_delay=rd[i], read_energy=re_[i], write_energy=we[i],
            setup=su[i], hold=hold,
            clock_cap=cc[i], dwl_cap=dwl_cap, wbl_cap=wb[i],
            area_um2=ar[i], brick_area_um2=ba[i], leakage_w=lk[i],
            match_delay=None if j is None else match_delay[j],
            match_energy=None if j is None else match_energy[j],
            components={key: col[i]
                        for key, col in zip(comp_keys, comp_cols)},
        ))
    return out


def estimate_brick_batch(points: Sequence[Tuple], tech: Technology,
                         out_load: Optional[float] = None
                         ) -> List[BrickPerformance]:
    """Compile and price a population of ``(spec, stack)`` points.

    The one-call entry the characterization layer uses: ``==`` to
    ``[estimate_brick(compile_brick(s, tech, k), tech, stack=k) for s,
    k in points]`` (a row sizes and prices the same bits alone or in
    any batch), array-shaped end to end.
    """
    batch = BrickSpecBatch.from_points(points)
    return estimate_batch(compile_batch(batch, tech), tech,
                          out_load=out_load)
