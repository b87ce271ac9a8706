"""Section 5 circuit-level facts: the CAM brick vs the SRAM brick.

The paper reports, for the same 16x10 bit array: "the CAM brick area is
83% bigger than SRAM brick area, and 26% slower. A single read for the
SRAM brick consumes 0.73mW power whereas it is 0.87mW for read and
1.94mW for matching for a CAM brick (based on Spice simulations at
0.8GHz clock)."  This bench reproduces the comparison from our compiled
bricks and asserts every ordering (and the rough magnitudes).
"""

import pytest

from bench_util import print_table
from repro.bricks import (
    cam_brick,
    compile_brick,
    estimate_brick,
    generate_layout,
    sram_brick,
)
from repro.units import GHZ, MW, PS

_FREQ = 0.8 * GHZ


@pytest.fixture(scope="module")
def sec5(tech):
    sram = compile_brick(sram_brick(16, 10), tech)
    cam = compile_brick(cam_brick(16, 10), tech)
    return {
        "sram_est": estimate_brick(sram, tech),
        "cam_est": estimate_brick(cam, tech),
        "sram_layout": generate_layout(sram, tech),
        "cam_layout": generate_layout(cam, tech),
    }


def test_sec5_report(sec5):
    sram, cam = sec5["sram_est"], sec5["cam_est"]
    area_ratio = sec5["cam_layout"].area_um2 / \
        sec5["sram_layout"].area_um2
    delay_ratio = cam.match_delay / sram.read_delay
    rows = [
        ("SRAM brick area", f"{sec5['sram_layout'].area_um2:.0f} um^2",
         "reference"),
        ("CAM brick area", f"{sec5['cam_layout'].area_um2:.0f} um^2",
         f"+{(area_ratio - 1) * 100:.0f}% (paper: +83%)"),
        ("SRAM read path", f"{sram.read_delay / PS:.0f} ps",
         "reference"),
        ("CAM match path", f"{cam.match_delay / PS:.0f} ps",
         f"+{(delay_ratio - 1) * 100:.0f}% (paper: +26%)"),
        ("SRAM read power", f"{sram.read_power(_FREQ) / MW:.2f} mW",
         "paper: 0.73 mW @ 0.8 GHz"),
        ("CAM read power", f"{cam.read_power(_FREQ) / MW:.2f} mW",
         "paper: 0.87 mW"),
        ("CAM match power", f"{cam.match_power(_FREQ) / MW:.2f} mW",
         "paper: 1.94 mW"),
    ]
    print_table("Section 5 — CAM brick vs SRAM brick (16x10b)",
                ("metric", "value", "note"), rows)


def test_sec5_area_ratio(sec5):
    ratio = sec5["cam_layout"].area_um2 / sec5["sram_layout"].area_um2
    # Paper: 1.83x. Band keeps the ordering meaningful.
    assert 1.5 < ratio < 2.2


def test_sec5_delay_ratio(sec5):
    ratio = sec5["cam_est"].match_delay / sec5["sram_est"].read_delay
    # Paper: 1.26x slower.
    assert 1.05 < ratio < 1.8


def test_sec5_power_ordering(sec5):
    sram, cam = sec5["sram_est"], sec5["cam_est"]
    p_sram_read = sram.read_power(_FREQ)
    p_cam_read = cam.read_power(_FREQ)
    p_cam_match = cam.match_power(_FREQ)
    # Paper ordering: 0.73 < 0.87 < 1.94 mW.
    assert p_sram_read < p_cam_read < p_cam_match
    # Match costs roughly twice a read (paper: 1.94/0.87 = 2.2x).
    assert 1.5 < p_cam_match / p_cam_read < 3.5


def test_sec5_same_bitcell_count(tech):
    """'Both implementations use the same bitcells' — the arrays match,
    only the cell type and periphery differ."""
    sram = compile_brick(sram_brick(16, 10), tech)
    cam = compile_brick(cam_brick(16, 10), tech)
    assert sram.spec.words == cam.spec.words
    assert sram.spec.bits == cam.spec.bits


def test_sec5_match_path_validated_against_reference(tech):
    """Extension: the CAM match path gets the same estimator-vs-
    transient-reference validation Table 1 gives the SRAM read path."""
    from repro.bricks import measure_match
    compiled = compile_brick(cam_brick(16, 10), tech)
    est = estimate_brick(compiled, tech)
    delay, energy = measure_match(compiled, tech)
    delay_err = (est.match_delay - delay) / delay
    energy_err = (est.match_energy - energy) / energy
    print(f"\nCAM match: tool {est.match_delay * 1e12:.0f} ps / "
          f"{est.match_energy * 1e12:.3f} pJ vs reference "
          f"{delay * 1e12:.0f} ps / {energy * 1e12:.3f} pJ "
          f"({delay_err:+.1%} / {energy_err:+.1%})")
    assert abs(delay_err) < 0.15
    assert abs(energy_err) < 0.20
