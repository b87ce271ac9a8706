"""Bitcell electrical and geometric models.

"Any type of bitcell, such as 6T, 8T, CAM (content addressable), embedded
DRAM, or multi-ported bitcells can be utilized to form a brick"
(Section 3).  Each :class:`Bitcell` carries what the brick compiler,
estimator and extractor need:

* geometry (width/height in um, snapped to the node's pattern pitches),
* the per-cell loading it places on wordlines and bitlines,
* the strength of its read (and, for CAM, match) pull-down stacks,
* leakage.

The 65 nm dimensions are anchored so that the CAM-vs-SRAM brick ratios of
Section 5 reproduce: "For the same array size of 16x10bits, the CAM brick
area is 83% bigger than SRAM brick area".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BrickError
from ..tech.technology import Technology

SRAM_6T = "6T"
SRAM_8T = "8T"
CAM_10T = "CAM"
EDRAM_1T1C = "EDRAM"
DUAL_PORT_8T = "DP"

MEMORY_TYPES = (SRAM_6T, SRAM_8T, CAM_10T, EDRAM_1T1C, DUAL_PORT_8T)


@dataclass(frozen=True)
class Bitcell:
    """Electrical/geometric abstraction of one bitcell.

    All capacitances are the *per-cell contribution* to the shared wire
    (wordline or bitline) they hang on; all resistances are effective
    pull-down path resistances of the corresponding stack.

    Attributes
    ----------
    w_read_um / w_access_um:
        Read-stack and write-access transistor widths (um); the extractor
        instantiates switch-level devices of these widths so the transient
        reference sees the same cell the estimator models.
    c_rwl / c_wwl:
        Gate load added to the read/write wordline per cell (F).
    c_rbl / c_wbl:
        Diffusion load added to the local read/write bitline per cell (F).
    r_read:
        Read pull-down stack resistance (ohm) when selected.
    match (CAM only):
        ``c_ml`` matchline cap per cell, ``c_sl`` searchline cap per cell,
        ``r_match`` match pull-down resistance, ``w_match_um`` stack width.
    """

    memory_type: str
    width_um: float
    height_um: float
    w_read_um: float
    w_access_um: float
    c_rwl: float
    c_wwl: float
    c_rbl: float
    c_wbl: float
    r_read: float
    i_leak: float
    c_ml: float = 0.0
    c_sl: float = 0.0
    r_match: float = 0.0
    w_match_um: float = 0.0
    destructive_read: bool = False

    def __post_init__(self) -> None:
        if self.memory_type not in MEMORY_TYPES:
            raise BrickError(
                f"unknown memory type {self.memory_type!r}; "
                f"known: {MEMORY_TYPES}")
        if self.width_um <= 0 or self.height_um <= 0:
            raise BrickError("bitcell dimensions must be positive")

    @property
    def area_um2(self) -> float:
        return self.width_um * self.height_um

    @property
    def is_cam(self) -> bool:
        return self.memory_type == CAM_10T


def _snap(value: float, pitch: float) -> float:
    """Snap a dimension up to an integer number of pattern pitches."""
    steps = max(1, round(value / pitch + 0.499))
    return steps * pitch


def make_bitcell(memory_type: str, tech: Technology) -> Bitcell:
    """Construct the bitcell model of ``memory_type`` in ``tech``.

    Widths are expressed in multiples of the node's minimum width;
    dimensions in pattern pitches, so the models retarget with the
    technology (Section 6 of the paper).
    """
    w_min = tech.w_min_um
    poly = tech.poly_pitch_um
    m1 = tech.m1_pitch_um
    # Bitline diffusion is shared between vertically adjacent cells
    # (mirrored layouts share one drain contact), halving the per-cell
    # contribution.
    share = 0.5

    if memory_type == SRAM_6T:
        w_acc = 1.25 * w_min
        return Bitcell(
            memory_type=SRAM_6T,
            width_um=_snap(4 * poly, poly), height_um=_snap(2.6 * m1, m1),
            w_read_um=w_acc, w_access_um=w_acc,
            c_rwl=tech.c_gate * w_acc, c_wwl=tech.c_gate * w_acc,
            c_rbl=share * tech.c_diff * w_acc,
            c_wbl=share * tech.c_diff * w_acc,
            # 6T read path: access in series with driver (~1.5x access R).
            r_read=2.4 * tech.r_on_n / w_acc,
            i_leak=6 * tech.i_leak_n * w_min * 0.4,
            destructive_read=False)

    if memory_type == SRAM_8T:
        w_acc = 2.0 * w_min
        w_rd = 2.5 * w_min
        return Bitcell(
            memory_type=SRAM_8T,
            width_um=_snap(5 * poly, poly), height_um=_snap(2.6 * m1, m1),
            w_read_um=w_rd, w_access_um=w_acc,
            c_rwl=tech.c_gate * w_rd, c_wwl=tech.c_gate * w_acc,
            c_rbl=share * tech.c_diff * w_rd,
            c_wbl=share * tech.c_diff * w_acc,
            # 8T read: two series NMOS of the read stack.
            r_read=2.0 * tech.r_on_n / w_rd,
            i_leak=8 * tech.i_leak_n * w_min * 0.4)

    if memory_type == CAM_10T:
        # 8T storage plus XOR match stack; area anchored at ~1.83x the 8T
        # cell so the Section 5 silicon ratio emerges at brick level.
        base = make_bitcell(SRAM_8T, tech)
        w_match = 1.5 * w_min
        return Bitcell(
            memory_type=CAM_10T,
            width_um=_snap(8 * poly, poly), height_um=_snap(3.0 * m1, m1),
            w_read_um=base.w_read_um, w_access_um=base.w_access_um,
            c_rwl=base.c_rwl, c_wwl=base.c_wwl,
            c_rbl=base.c_rbl, c_wbl=base.c_wbl,
            r_read=base.r_read,
            i_leak=10 * tech.i_leak_n * w_min * 0.4,
            c_ml=tech.c_diff * w_match * 2.0,
            c_sl=tech.c_gate * w_match,
            r_match=2.0 * tech.r_on_n / w_match,
            w_match_um=w_match)

    if memory_type == EDRAM_1T1C:
        w_acc = 1.0 * w_min
        return Bitcell(
            memory_type=EDRAM_1T1C,
            width_um=_snap(2 * poly, poly), height_um=_snap(2.0 * m1, m1),
            w_read_um=w_acc, w_access_um=w_acc,
            c_rwl=tech.c_gate * w_acc, c_wwl=tech.c_gate * w_acc,
            c_rbl=share * tech.c_diff * w_acc,
            c_wbl=share * tech.c_diff * w_acc,
            # Charge-sharing read is weaker than an SRAM pull-down.
            r_read=5.0 * tech.r_on_n / w_acc,
            i_leak=1 * tech.i_leak_n * w_min * 0.4,
            destructive_read=True)

    if memory_type == DUAL_PORT_8T:
        base = make_bitcell(SRAM_8T, tech)
        return Bitcell(
            memory_type=DUAL_PORT_8T,
            width_um=_snap(6 * poly, poly), height_um=_snap(3.0 * m1, m1),
            w_read_um=base.w_read_um, w_access_um=base.w_access_um,
            c_rwl=base.c_rwl, c_wwl=base.c_wwl,
            c_rbl=base.c_rbl, c_wbl=base.c_wbl,
            r_read=base.r_read,
            i_leak=8 * tech.i_leak_n * w_min * 0.4)

    raise BrickError(f"unknown memory type {memory_type!r}")
