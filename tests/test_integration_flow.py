"""End-to-end integration: the complete paper pipeline at small scale.

Brick spec -> compile -> layout -> library -> RTL -> elaborate -> place
-> route -> STA -> power -> Liberty export, plus the application stack:
workload -> both accelerators -> verified result -> chip metrics.
"""

import random

import pytest

from repro.bricks import (
    compile_brick,
    estimate_brick,
    generate_brick_library,
    generate_layout,
    single_partition,
    sram_brick,
)
from repro.cells import make_stdcell_library
from repro.liberty import LibertyWriter
from repro.rtl import LogicSimulator, build_sram, elaborate
from repro.session import Session
from repro.spgemm import (
    CAMSpGEMMAccelerator,
    HeapSpGEMMAccelerator,
    erdos_renyi,
)
from repro.synth import run_flow
from repro.tech import WORST
from repro.units import GHZ, MHZ


class TestFullSynthesisPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self, tech, stdlib):
        config = single_partition(sram_brick(16, 8), 32)
        bricks, elapsed = generate_brick_library(
            [(config.brick, config.stack)], Session(tech))
        library = stdlib.merged_with(bricks)
        module = build_sram(config)

        def stimulus(sim):
            rng = random.Random(42)
            for _ in range(64):
                sim.set_input("raddr", rng.randrange(32))
                sim.set_input("waddr", rng.randrange(32))
                sim.set_input("din", rng.randrange(256))
                sim.set_input("we", 1)
                sim.clock()

        result = run_flow(module, library, Session(tech), stimulus=stimulus,
                          anneal_moves=1000)
        return config, library, result, elapsed

    def test_library_generated_fast(self, pipeline):
        *_, elapsed = pipeline
        assert elapsed < 1.0

    def test_flow_produces_consistent_reports(self, pipeline):
        _, _, result, _ = pipeline
        assert 100 * MHZ < result.fmax < 10 * GHZ
        assert result.power.total_w > 0
        assert result.area_um2 > result.cell_area_um2 * 0.5
        summary = result.summary()
        assert summary["fmax_hz"] == pytest.approx(result.fmax)

    def test_brick_energy_visible_in_power(self, pipeline):
        _, _, result, _ = pipeline
        assert result.power.by_category["brick_read"] > 0

    def test_timing_derates_at_worst_corner(self, pipeline, tech,
                                            stdlib):
        config, _, nominal, _ = pipeline
        worst_tech = WORST.apply(tech)
        worst_std = make_stdcell_library(worst_tech)
        bricks, _ = generate_brick_library(
            [(config.brick, config.stack)], Session(worst_tech))
        worst = run_flow(build_sram(config),
                         worst_std.merged_with(bricks), Session(worst_tech),
                         anneal_moves=1000)
        assert worst.fmax < nominal.fmax

    def test_liberty_export_roundtrip_text(self, pipeline, tmp_path):
        _, library, _, _ = pipeline
        text = LibertyWriter(library).text()
        assert "brick_16_8_s2" in text
        assert text.count("{") == text.count("}")

    def test_estimator_layout_consistency(self, tech):
        compiled = compile_brick(sram_brick(16, 8), tech)
        est = estimate_brick(compiled, tech)
        layout = generate_layout(compiled, tech)
        assert est.area_um2 == pytest.approx(layout.area_um2, rel=1e-6)


class TestFullApplicationPipeline:
    def test_spgemm_chips_on_random_graph(self):
        a = erdos_renyi(48, 0.08, seed=77)
        b = erdos_renyi(48, 0.08, seed=78)
        cam = CAMSpGEMMAccelerator().simulate(a, b)
        heap = HeapSpGEMMAccelerator().simulate(a, b)
        # Both verified internally; the LiM chip must win wall-clock and
        # energy despite its slower clock.
        assert cam.freq_hz < heap.freq_hz
        assert cam.completion_time_s < heap.completion_time_s
        assert cam.energy_j < heap.energy_j

    def test_gate_level_and_cycle_level_cam_agree(self, tech, stdlib):
        """The gate-level CAM bank (rtl.build_cam) and the cycle-level
        accelerator share match semantics: same stored keys -> same
        match vector."""
        from repro.bricks import cam_brick, generate_brick_library
        from repro.rtl import build_cam
        from repro.spgemm import CAMGeometry, HorizontalCAM

        config = single_partition(cam_brick(16, 10), 16)
        bricks, _ = generate_brick_library(
            [(config.brick, config.stack)], Session(tech))
        module = build_cam(config)
        sim = LogicSimulator(elaborate(module,
                                       stdlib.merged_with(bricks)))
        keys = [5, 9, 5, 700]
        for addr, key in enumerate(keys):
            sim.set_input("waddr", addr)
            sim.set_input("wdata", key)
            sim.set_input("we", 1)
            sim.set_input("key", 0)
            sim.clock()
        sim.set_input("we", 0)
        sim.set_input("key", 5)
        sim.clock()
        gate_level = sim.get_output("ml") & 0b1111

        hcam = HorizontalCAM(CAMGeometry())
        hcam.bind(0)
        for key in set(keys):
            hcam.accumulate(key, 1.0)
        assert gate_level == 0b0101
        assert hcam.match(5)
        assert not hcam.match(6)
