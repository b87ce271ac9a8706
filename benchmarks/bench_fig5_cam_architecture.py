"""Fig. 5: the CAM-based SpGEMM architecture.

Exercises the silicon's geometry — 32 horizontal CAMs of 16x10 bit index
CAM + value SRAM, one 32-entry vertical CAM — at three levels:

* micro-architecture (single-cycle match/insert/update, capacity spill),
* gate level (the RTL CAM bank built from a compiled CAM brick),
* system level (the cycle-level accelerator streaming a sub-blocked
  matrix product through the structure).
"""


from bench_util import print_table
from repro.bricks import cam_brick, generate_brick_library, \
    single_partition
from repro.rtl import LogicSimulator, build_cam, elaborate
from repro.session import Session
from repro.spgemm import (
    CAMGeometry,
    CAMSpGEMMAccelerator,
    HorizontalCAM,
    VerticalCAM,
    erdos_renyi,
)


def test_fig5_geometry_is_the_papers(benchmark):
    geometry = benchmark.pedantic(CAMGeometry, rounds=1, iterations=1)
    # "row index and data array sizes are chosen as 16x10bits, and
    # column number N for sub-blocks is chosen as 32".
    assert geometry.n_hcams == 32
    assert geometry.entries == 16
    assert geometry.index_bits == 10
    assert geometry.data_bits == 10


def test_fig5_horizontal_cam_single_cycle_semantics(benchmark):
    """Each streamed element resolves in one match: hit -> multiply-add,
    miss -> new entry (the architecture's core trick)."""

    def kernel():
        hcam = HorizontalCAM(CAMGeometry())
        hcam.bind(7)
        outcomes = []
        outcomes.append(hcam.accumulate(3, 1.5))   # new entry
        outcomes.append(hcam.accumulate(3, 2.0))   # multiply-add
        outcomes.append(hcam.accumulate(9, 1.0))   # new entry
        return outcomes, hcam.drain()

    outcomes, drained = benchmark.pedantic(kernel, rounds=1,
                                           iterations=1)
    assert outcomes == ["insert", "update", "insert"]
    assert drained == [(3, 3.5), (9, 1.0)]


def test_fig5_vertical_cam_activates_hcams(benchmark):
    def kernel():
        geometry = CAMGeometry()
        vcam = VerticalCAM(geometry)
        for slot in range(geometry.n_hcams):
            vcam.bind(slot, 100 + slot)
        return [vcam.match(100 + s) for s in range(geometry.n_hcams)]

    slots = benchmark.pedantic(kernel, rounds=1, iterations=1)
    assert slots == list(range(32))


def test_fig5_gate_level_cam_bank(benchmark, tech, stdlib):
    """The same structure synthesized from a compiled CAM brick."""
    config = single_partition(cam_brick(16, 10), 16)
    bricks, _ = generate_brick_library(
        [(config.brick, config.stack)], Session(tech))
    library = stdlib.merged_with(bricks)
    module = build_cam(config)

    def kernel():
        sim = LogicSimulator(elaborate(module, library))
        for addr, key in enumerate([17, 513, 17, 900]):
            sim.set_input("waddr", addr)
            sim.set_input("wdata", key)
            sim.set_input("we", 1)
            sim.set_input("key", 0)
            sim.clock()
        sim.set_input("we", 0)
        sim.set_input("key", 17)
        sim.clock()
        return sim.get_output("ml"), sim.get_output("hit")

    ml, hit = benchmark.pedantic(kernel, rounds=1, iterations=1)
    assert ml & 0b1111 == 0b0101
    assert hit == 1


def test_fig5_system_level_event_profile(benchmark):
    """Stream a product through the full architecture and report the
    event mix the energy model consumes."""
    a = erdos_renyi(64, 0.12, seed=21)
    b = erdos_renyi(64, 0.12, seed=22)
    accelerator = CAMSpGEMMAccelerator()

    run = benchmark.pedantic(lambda: accelerator.simulate(a, b),
                             rounds=1, iterations=1)
    events = run.events
    print_table(
        "Fig. 5 — CAM-SpGEMM event profile (64x64 ER, d=0.12)",
        ("event", "count"),
        sorted(events.items()))
    # Every streamed element produces exactly one HCAM match and one MAC.
    assert events["hcam_match"] == events["mac"]
    assert events["vcam_match"] == events["hcam_match"]
    # Updates + inserts + spills partition the element stream.
    assert events["hcam_update"] + events["hcam_insert"] + \
        events["hcam_flush"] == events["hcam_match"]
    assert run.cycles >= events["hcam_match"]


def test_benchmark_match_throughput(benchmark):
    """Raw micro-architecture throughput: matches per second of the
    Python model (not the chip!)."""
    hcam = HorizontalCAM(CAMGeometry())
    hcam.bind(0)
    for row in range(0, 16):
        hcam.accumulate(row * 3, 1.0)

    def kernel():
        return hcam.match(21)

    assert benchmark(kernel) is True
