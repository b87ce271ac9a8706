"""Ablations and the paper's Section 6 future work.

Three studies beyond the paper's published data:

1. *Brick selection as an optimization variable* — Section 6: "the
   synthesis tools could optimize the array size and placement of the
   memory bricks in a standard cell like manner."  We sweep candidate
   brick sizes per memory requirement and quantify the gain over the
   worst fixed choice.
2. *Drive resizing ablation* — how much of the flow's timing comes from
   post-route drive selection.
3. *Technology retargeting* — the one-time recharacterization cost
   Section 6 discusses, demonstrated by recompiling the canonical brick
   at scaled nodes.
"""


from bench_util import print_table
from repro.bricks import compile_brick, estimate_brick, sram_brick
from repro.rtl import fig3_sram
from repro.tech import cmos14, cmos28, cmos45, cmos65
from repro.units import PJ, PS


def test_ablation_brick_selection_gain(session):
    """Automatic brick selection vs the worst fixed brick choice."""
    rows = []
    for total_words, bits in [(128, 8), (128, 16), (256, 16)]:
        sweep = session.sweep_partitions(
            total_words_options=(total_words,),
            bits_options=(bits,),
            brick_words_options=(8, 16, 32, 64))
        choice = session.optimize_brick_selection(
            total_words, bits,
            brick_words_options=(8, 16, 32, 64))

        def cost(p):
            best_d = min(q.read_delay for q in sweep.points)
            best_e = min(q.read_energy for q in sweep.points)
            best_a = min(q.area_um2 for q in sweep.points)
            return ((p.read_delay / best_d)
                    * (p.read_energy / best_e)
                    * (p.area_um2 / best_a) ** 0.5)

        worst = max(sweep.points, key=cost)
        rows.append((total_words, bits, choice.point.brick_words,
                     worst.brick_words,
                     cost(worst) / cost(choice.point)))
    print_table(
        "Ablation — automatic brick selection (Section 6 future work)",
        ("words", "bits", "chosen brick", "worst brick",
         "cost gain"),
        [(w, b, f"{cw}-word", f"{ww}-word", f"{g:.2f}x")
         for w, b, cw, ww, g in rows])
    for *_, gain in rows:
        assert gain > 1.1  # the optimizer must beat the worst choice


def test_ablation_drive_resizing(session, stdlib):
    """Post-route drive selection vs everything at X1."""
    from repro.bricks import generate_brick_library

    module_a, config = fig3_sram()
    module_b, _ = fig3_sram()
    bricks, _ = generate_brick_library(
        [(config.brick, config.stack)], session=session)
    library = stdlib.merged_with(bricks)
    unsized = session.run_flow(module_a, library,
                               anneal_moves=1000, resize=False)
    sized = session.run_flow(module_b, library,
                             anneal_moves=1000, resize=True)
    speedup = unsized.timing.min_period / sized.timing.min_period
    print(f"\nresizing ablation: X1-only {unsized.timing.min_period / PS:.0f} ps "
          f"-> resized {sized.timing.min_period / PS:.0f} ps "
          f"({speedup:.2f}x), {sized.resized_cells} cells touched")
    assert sized.resized_cells > 0
    assert speedup >= 0.98  # resizing never badly hurts


def test_ablation_retargeting():
    """Section 6: the methodology retargets by recharacterization."""
    rows = []
    for factory in (cmos65, cmos45, cmos28, cmos14):
        tech = factory()
        compiled = compile_brick(sram_brick(16, 10), tech)
        est = estimate_brick(compiled, tech)
        rows.append((tech.name, est.read_delay, est.read_energy))
    print_table(
        "Ablation — 16x10b brick across technology nodes",
        ("node", "read delay", "read energy"),
        [(name, f"{d / PS:.0f} ps", f"{e / PJ:.3f} pJ")
         for name, d, e in rows])
    delays = [d for _, d, _ in rows]
    energies = [e for _, _, e in rows]
    # Scaled nodes are faster and lower-energy, monotonically.
    assert delays == sorted(delays, reverse=True)
    assert energies == sorted(energies, reverse=True)
