"""Tests for the CAM and heap accelerator simulators (Fig. 5/6 core)."""

import pytest

from repro.errors import AcceleratorError
from repro.spgemm import (
    CAMGeometry,
    CAMSpGEMMAccelerator,
    FIFOPriorityQueue,
    HeapSpGEMMAccelerator,
    HorizontalCAM,
    VerticalCAM,
    benchmark_suite,
    multiply_work,
    random_sparse,
    spgemm_gustavson,
)


class TestHorizontalCAM:
    def _hcam(self, entries=4):
        hcam = HorizontalCAM(CAMGeometry(entries=entries))
        hcam.bind(0)
        return hcam

    def test_insert_then_update(self):
        hcam = self._hcam()
        assert hcam.accumulate(5, 1.0) == "insert"
        assert hcam.accumulate(5, 2.0) == "update"
        assert hcam.drain() == [(5, 3.0)]

    def test_spill_on_overflow(self):
        hcam = self._hcam(entries=2)
        hcam.accumulate(1, 1.0)
        hcam.accumulate(2, 1.0)
        assert hcam.accumulate(3, 1.0) == "spill"
        # Drain merges resident + spilled, sorted.
        assert hcam.drain() == [(1, 1.0), (2, 1.0), (3, 1.0)]

    def test_spilled_row_reinserted_merges_on_drain(self):
        hcam = self._hcam(entries=2)
        hcam.accumulate(1, 1.0)
        hcam.accumulate(2, 1.0)
        hcam.accumulate(3, 1.0)      # spills 1, 2
        hcam.accumulate(1, 5.0)      # re-insert of a spilled row
        entries = dict(hcam.drain())
        assert entries[1] == pytest.approx(6.0)

    def test_unbound_accumulate_rejected(self):
        hcam = HorizontalCAM(CAMGeometry())
        with pytest.raises(AcceleratorError):
            hcam.accumulate(0, 1.0)

    def test_rebind_with_content_rejected(self):
        hcam = self._hcam()
        hcam.accumulate(1, 1.0)
        with pytest.raises(AcceleratorError):
            hcam.bind(1)


class TestVerticalCAM:
    def test_bind_match_release(self):
        vcam = VerticalCAM(CAMGeometry(n_hcams=4))
        vcam.bind(2, 77)
        assert vcam.match(77) == 2
        assert vcam.match(78) is None
        vcam.release(2)
        assert vcam.match(77) is None

    def test_bad_slot_rejected(self):
        with pytest.raises(AcceleratorError):
            VerticalCAM(CAMGeometry(n_hcams=4)).bind(7, 0)


class TestFIFOQueue:
    def test_merge_cost_grows_with_occupancy(self):
        q = FIFOPriorityQueue()
        costs = [q.merge(row, 1.0) for row in (5, 3, 8, 1, 9)]
        assert costs[0] == 1
        assert costs[-1] > costs[0]

    def test_combine_does_not_grow(self):
        q = FIFOPriorityQueue()
        q.merge(4, 1.0)
        q.merge(4, 2.0)
        entries, _ = q.drain()
        assert entries == [(4, 3.0)]

    def test_drain_sorted(self):
        q = FIFOPriorityQueue()
        for row in (5, 1, 3):
            q.merge(row, 1.0)
        entries, cycles = q.drain()
        assert [r for r, _ in entries] == [1, 3, 5]
        assert cycles == 3


class TestAcceleratorsEndToEnd:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cam_produces_verified_product(self, seed):
        a = random_sparse(20, 20, 0.2, seed=seed)
        b = random_sparse(20, 20, 0.2, seed=seed + 50)
        run = CAMSpGEMMAccelerator().simulate(a, b)
        assert run.result.allclose(spgemm_gustavson(a, b))
        assert run.cycles >= multiply_work(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heap_produces_verified_product(self, seed):
        a = random_sparse(20, 20, 0.2, seed=seed)
        b = random_sparse(20, 20, 0.2, seed=seed + 50)
        run = HeapSpGEMMAccelerator().simulate(a, b)
        assert run.result.allclose(spgemm_gustavson(a, b))

    def test_cam_handles_capacity_overflow_correctly(self):
        # Columns with more nonzeros than one HCAM holds (16).
        a = random_sparse(40, 40, 0.6, seed=9)
        b = random_sparse(40, 40, 0.3, seed=10)
        run = CAMSpGEMMAccelerator().simulate(a, b)
        assert run.events["hcam_flush"] > 0
        assert run.result.allclose(spgemm_gustavson(a, b))

    def test_dimension_mismatch_rejected(self):
        a = random_sparse(4, 5, 0.5, seed=1)
        b = random_sparse(4, 4, 0.5, seed=2)
        with pytest.raises(AcceleratorError):
            CAMSpGEMMAccelerator().simulate(a, b)
        with pytest.raises(AcceleratorError):
            HeapSpGEMMAccelerator().simulate(a, b)

    def test_oversized_matrix_rejected(self):
        # A 6-bit index CAM can only address 64 rows.
        chip = CAMSpGEMMAccelerator(CAMGeometry(index_bits=6))
        a = random_sparse(100, 20, 0.1, seed=4)
        b = random_sparse(20, 20, 0.1, seed=5)
        with pytest.raises(AcceleratorError) as exc:
            chip.simulate(a, b)
        assert str(exc.value) == (
            "100 rows exceed the 6-bit index CAM (at most 64 rows)")

    def test_heap_cycles_exceed_cam_cycles(self):
        a = random_sparse(30, 30, 0.25, seed=3)
        b = random_sparse(30, 30, 0.25, seed=4)
        cam = CAMSpGEMMAccelerator().simulate(a, b)
        heap = HeapSpGEMMAccelerator().simulate(a, b)
        assert heap.cycles > cam.cycles

    def test_dram_option_adds_traffic(self):
        a = random_sparse(20, 20, 0.2, seed=5)
        b = random_sparse(20, 20, 0.2, seed=6)
        plain = CAMSpGEMMAccelerator().simulate(a, b)
        with_dram = CAMSpGEMMAccelerator().simulate(a, b,
                                                    with_dram=True)
        assert with_dram.cycles > plain.cycles
        assert with_dram.dram_stats["hit_rate"] > 0.5
        assert with_dram.energy_j > plain.energy_j


class TestFig6Shape:
    """The headline comparison at unit-test (tiny) scale."""

    @pytest.fixture(scope="class")
    def runs(self):
        cam = CAMSpGEMMAccelerator()
        heap = HeapSpGEMMAccelerator()
        results = {}
        for w in benchmark_suite("tiny"):
            results[w.name] = (cam.simulate(w.a, w.b),
                               heap.simulate(w.a, w.b))
        return results

    def test_lim_clock_slower_but_completion_faster(self, runs):
        for name, (cam, heap) in runs.items():
            assert cam.freq_hz < heap.freq_hz  # 475 vs 725 MHz
            assert cam.completion_time_s < heap.completion_time_s, name

    def test_lim_energy_lower_everywhere(self, runs):
        for name, (cam, heap) in runs.items():
            assert cam.energy_j < heap.energy_j, name

    def test_speedup_is_workload_dependent(self, runs):
        speedups = [heap.completion_time_s / cam.completion_time_s
                    for cam, heap in runs.values()]
        assert max(speedups) / min(speedups) > 4.0

    def test_energy_ratio_exceeds_latency_ratio(self, runs):
        """Paper: 7-250x latency but 10-310x energy — the energy ratio
        carries the extra 96/72 power factor."""
        for name, (cam, heap) in runs.items():
            latency_ratio = heap.completion_time_s / \
                cam.completion_time_s
            energy_ratio = heap.energy_j / cam.energy_j
            assert energy_ratio > latency_ratio, name

    def test_chip_power_anchors(self, runs):
        cam, heap = next(iter(runs.values()))
        assert cam.average_power_w == pytest.approx(72e-3, rel=0.15)
        assert heap.average_power_w == pytest.approx(96e-3, rel=0.15)
