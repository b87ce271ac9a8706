"""Fig. 6: silicon results — LiM CAM-SpGEMM vs non-LiM heap baseline.

The paper's headline: despite a 35 % slower clock (475 vs 725 MHz), the
LiM chip completes SpGEMM benchmarks 7x-250x faster and consumes
10x-310x less energy, because single-cycle CAM matching replaces the
FIFO-SRAM re-arrangement of the heap baseline.

We substitute the UF sparse-matrix collection with synthetic families
spanning the same structural regimes (see repro.spgemm.workloads) and
run both cycle-level chips on every workload.  Asserted shape:

* the LiM chip's clock is slower (the paper's 0.655 ratio),
* the LiM chip wins completion time on EVERY workload,
* the spread of speedups covers more than an order of magnitude, with
  the dense-column regime exceeding 50x at benchmark scale,
* energy ratios exceed latency ratios (the 96/72 mW power factor),
* measured average powers land on the paper's 72/96 mW anchors.
"""

import pytest

from bench_util import print_table
from repro.spgemm import (
    CAMSpGEMMAccelerator,
    HeapSpGEMMAccelerator,
    benchmark_suite,
)
from repro.units import MHZ, NJ, US

_SCALE = "small"


@pytest.fixture(scope="module")
def fig6():
    cam_chip = CAMSpGEMMAccelerator()
    heap_chip = HeapSpGEMMAccelerator()
    results = []
    for workload in benchmark_suite(_SCALE):
        cam = cam_chip.simulate(workload.a, workload.b)
        heap = heap_chip.simulate(workload.a, workload.b)
        results.append((workload, cam, heap))
    return results


def test_fig6_report(fig6):
    rows = []
    for workload, cam, heap in fig6:
        speedup = heap.completion_time_s / cam.completion_time_s
        energy_ratio = heap.energy_j / cam.energy_j
        rows.append((
            workload.name,
            workload.work,
            f"{cam.completion_time_s / US:.2f}",
            f"{heap.completion_time_s / US:.2f}",
            f"{speedup:.1f}x",
            f"{cam.energy_j / NJ:.2f}",
            f"{heap.energy_j / NJ:.2f}",
            f"{energy_ratio:.1f}x",
        ))
    print_table(
        f"Fig. 6 — LiM CAM chip (475 MHz) vs heap chip (725 MHz), "
        f"scale={_SCALE}",
        ("workload", "work", "lim[us]", "heap[us]", "speedup",
         "limE[nJ]", "heapE[nJ]", "energyX"),
        rows)


def test_fig6_lim_wins_everywhere_despite_slower_clock(fig6):
    for workload, cam, heap in fig6:
        assert cam.freq_hz == pytest.approx(475 * MHZ)
        assert heap.freq_hz == pytest.approx(725 * MHZ)
        assert cam.cycles > 0, workload.name
        assert cam.completion_time_s < heap.completion_time_s, \
            workload.name
        assert cam.energy_j < heap.energy_j, workload.name


def test_fig6_speedup_spread(fig6):
    """7x-250x in the paper; at benchmark scale the suite must span
    more than an order of magnitude with a >50x dense-column peak
    (the full 250x appears at scale='medium' — see EXPERIMENTS.md)."""
    speedups = {w.name: heap.completion_time_s / cam.completion_time_s
                for w, cam, heap in fig6}
    assert max(speedups.values()) / min(speedups.values()) > 10.0
    assert max(speedups.values()) > 50.0
    assert speedups["hub_dense"] == max(speedups.values())
    assert min(speedups.values()) > 2.0


def test_fig6_energy_ratio_exceeds_latency_ratio(fig6):
    """10x-310x energy vs 7x-250x latency: E = P x T with the heap
    chip's higher per-clock power."""
    for workload, cam, heap in fig6:
        latency_ratio = heap.completion_time_s / cam.completion_time_s
        energy_ratio = heap.energy_j / cam.energy_j
        assert energy_ratio > latency_ratio, workload.name
        assert energy_ratio < latency_ratio * 1.6, workload.name


def test_fig6_power_anchors(fig6):
    """Section 5: 72 mW and 96 mW per clock at max frequency."""
    for workload, cam, heap in fig6:
        assert cam.average_power_w == pytest.approx(72e-3, rel=0.2)
        assert heap.average_power_w == pytest.approx(96e-3, rel=0.2)


def test_fig6_mechanism_speedup_model(fig6):
    """Extension: the analytical model (speedup ~ 2 x work-weighted
    result-column fill x clock ratio) must explain the measured spread
    — the mechanism behind Fig. 6, not just its numbers."""
    from repro.spgemm import analyze_workload
    rows = []
    for workload, cam, heap in fig6:
        stats = analyze_workload(workload.a, workload.b)
        predicted = stats.predicted_speedup()
        measured = heap.completion_time_s / cam.completion_time_s
        rows.append((workload.name, f"{stats.work_weighted_fill:.1f}",
                     f"{predicted:.1f}x", f"{measured:.1f}x"))
        assert predicted / 4.0 < measured < predicted * 4.0, \
            workload.name
    print_table(
        "Fig. 6 mechanism — column fill predicts the speedup",
        ("workload", "wfill", "predicted", "measured"), rows)
