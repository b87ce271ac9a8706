"""Pinned signoff and yield reports, at printed precision.

Signoff reduces a Monte Carlo population through the defect
population sampler, the repair allocator and the paired bootstrap; the
yield report shares the sampler.  Their rendered text is pinned here so a
change to any of them that moves a printed digit fails.  The exact bits
of the fast paths are checked against plain oracles in
``test_fast_paths_vs_reference.py``; the text, not the bits, is pinned
here because the last bits may differ on another NumPy build.
Output-changing work must regenerate these on purpose and explain the
diff.
"""

from repro.bricks import sram_brick
from repro.faults import DefectModel, RepairPlan, analyze_yield
from repro.perf.cache import CharacterizationCache
from repro.session import Session
from repro.signoff import SignoffEngine

#: A hot defect model so small populations exercise every mechanism.
HOT = DefectModel(p_stuck_at=2e-3, p_wordline_bridge=2e-3,
                  p_weak_sense=5e-3, p_open_via=2e-3)

#: ``SignoffEngine(session).run().render()`` at seed 2015: the default
#: 8T 16x10 brick, 2000 samples in chunks of 256, three corners.
DEFAULT_SIGNOFF = (
    "signoff report: brick_16_10 x1 stack @ cmos65\n"
    "  plan: 2000 samples in 8 chunks of 256, seed 2015, "
    "corners nominal/best/worst\n"
    "  used: 2000/2000 samples (8/8 chunks)\n"
    "  early-stop: off (relative CI 0.458% at sample cap)\n"
    "  corner nominal:\n"
    "    read_delay   mean 245 ps  ci95 [244 ps, 246 ps]  p50 242 ps"
    "  p95 282 ps  p99.9 410 ps\n"
    "    read_energy  mean 204 fJ  ci95 [203 fJ, 204 fJ]  p50 203 fJ"
    "  p95 221 fJ  p99.9 234 fJ\n"
    "    write_energy mean 109 fJ  ci95 [108 fJ, 109 fJ]  p50 108 fJ"
    "  p95 118 fJ  p99.9 125 fJ\n"
    "    leakage_w    mean 259 nW  ci95 [256 nW, 262 nW]  p50 252 nW"
    "  p95 386 nW  p99.9 527 nW\n"
    "  corner best:\n"
    "    read_delay   mean 185 ps  ci95 [184 ps, 186 ps]  p50 183 ps"
    "  p95 213 ps  p99.9 309 ps\n"
    "    read_energy  mean 219 fJ  ci95 [218 fJ, 219 fJ]  p50 218 fJ"
    "  p95 238 fJ  p99.9 252 fJ\n"
    "    write_energy mean 117 fJ  ci95 [116 fJ, 117 fJ]  p50 116 fJ"
    "  p95 127 fJ  p99.9 134 fJ\n"
    "    leakage_w    mean 699 nW  ci95 [692 nW, 707 nW]  p50 679 nW"
    "  p95 1.04 uW  p99.9 1.42 uW\n"
    "  corner worst:\n"
    "    read_delay   mean 323 ps  ci95 [322 ps, 324 ps]  p50 320 ps"
    "  p95 371 ps  p99.9 541 ps\n"
    "    read_energy  mean 186 fJ  ci95 [186 fJ, 187 fJ]  p50 186 fJ"
    "  p95 202 fJ  p99.9 214 fJ\n"
    "    write_energy mean 99.3 fJ  ci95 [99 fJ, 99.5 fJ]  p50 99.1 fJ"
    "  p95 108 fJ  p99.9 114 fJ\n"
    "    leakage_w    mean 119 nW  ci95 [118 nW, 120 nW]  p50 116 nW"
    "  p95 177 nW  p99.9 242 nW\n"
    "  yield: raw 0.9470 [0.9360, 0.9570] -> repaired 1.0000 [1.0000, "
    "1.0000]\n"
    "  defects sampled:\n"
    "    open_via         17\n"
    "    stuck_at_0       39\n"
    "    stuck_at_1       28\n"
    "    weak_sense       19\n"
    "    wordline_bridge  5")

#: A 32x16 x4 brick under the hot model with SEC-DED repair, seed 7,
#: 1500 samples in chunks of 200.
HOT_ECC_SIGNOFF = (
    "signoff report: brick_32_16 x4 stack @ cmos65\n"
    "  plan: 1500 samples in 8 chunks of 200, seed 7, "
    "corners nominal/best/worst\n"
    "  used: 1500/1500 samples (8/8 chunks)\n"
    "  early-stop: off (relative CI 0.852% at sample cap)\n"
    "  corner nominal:\n"
    "    read_delay   mean 379 ps  ci95 [376 ps, 382 ps]  p50 366 ps"
    "  p95 557 ps  p99.9 658 ps\n"
    "    read_energy  mean 1.04 pJ  ci95 [1.04 pJ, 1.04 pJ]  p50 1.04 pJ"
    "  p95 1.13 pJ  p99.9 1.21 pJ\n"
    "    write_energy mean 843 fJ  ci95 [841 fJ, 845 fJ]  p50 842 fJ"
    "  p95 916 fJ  p99.9 978 fJ\n"
    "    leakage_w    mean 3.01 uW  ci95 [2.97 uW, 3.05 uW]  p50 2.93 uW"
    "  p95 4.46 uW  p99.9 5.88 uW\n"
    "  corner best:\n"
    "    read_delay   mean 286 ps  ci95 [284 ps, 288 ps]  p50 276 ps"
    "  p95 420 ps  p99.9 496 ps\n"
    "    read_energy  mean 1.12 pJ  ci95 [1.11 pJ, 1.12 pJ]  p50 1.11 pJ"
    "  p95 1.21 pJ  p99.9 1.29 pJ\n"
    "    write_energy mean 904 fJ  ci95 [902 fJ, 907 fJ]  p50 904 fJ"
    "  p95 983 fJ  p99.9 1.05 pJ\n"
    "    leakage_w    mean 8.12 uW  ci95 [8.01 uW, 8.22 uW]  p50 7.92 uW"
    "  p95 12 uW  p99.9 15.9 uW\n"
    "  corner worst:\n"
    "    read_delay   mean 500 ps  ci95 [496 ps, 504 ps]  p50 482 ps"
    "  p95 734 ps  p99.9 867 ps\n"
    "    read_energy  mean 950 fJ  ci95 [948 fJ, 953 fJ]  p50 949 fJ"
    "  p95 1.03 pJ  p99.9 1.1 pJ\n"
    "    write_energy mean 770 fJ  ci95 [769 fJ, 772 fJ]  p50 770 fJ"
    "  p95 837 fJ  p99.9 894 fJ\n"
    "    leakage_w    mean 1.38 uW  ci95 [1.36 uW, 1.4 uW]  p50 1.35 uW"
    "  p95 2.05 uW  p99.9 2.7 uW\n"
    "  yield: raw 0.2880 [0.2666, 0.3134] -> repaired 0.9860 [0.9807, "
    "0.9907]\n"
    "  defects sampled:\n"
    "    open_via         46\n"
    "    stuck_at_0       779\n"
    "    stuck_at_1       789\n"
    "    weak_sense       115\n"
    "    wordline_bridge  94")

#: ``analyze_yield`` of 500 32x16 x4 bricks, hot model, SEC-DED repair.
HOT_ECC_YIELD = (
    "yield report: brick_32_16 x4 stack, 1 partition(s)\n"
    "  population: 500 bricks (125 banks), seed 2015\n"
    "  repair plan: 2R/1C+SECDED\n"
    "  defects sampled:\n"
    "    open_via         17\n"
    "    stuck_at_0       231\n"
    "    stuck_at_1       240\n"
    "    weak_sense       42\n"
    "    wordline_bridge  33\n"
    "  brick yield: raw 0.3120 -> repaired 0.9920 (+0.6800)\n"
    "  bank yield:  raw 0.0080 -> repaired 0.9680\n"
    "  repairs: 65 spare-row, 53 spare-col, 453 ECC-carried word(s)\n"
    "  overhead: area +47.74%  delay +5.05%  energy +43.02%  leakage +44.49%\n"
    "  ECC logic: 165.110 um^2 encoder+corrector per bank\n"
    "  unrepairable: 2 bad columns > 1 spare(s)\n"
    "  unrepairable: 2 bad columns > 1 spare(s)\n"
    "  unrepairable: 2 bad columns > 1 spare(s)")


def _session(tech, seed):
    return Session(tech, seed=seed, cache=CharacterizationCache())


def test_default_signoff_report(tech):
    report = SignoffEngine(_session(tech, 2015)).run()
    assert report.render() == DEFAULT_SIGNOFF


def test_hot_defect_ecc_signoff_report(tech):
    report = SignoffEngine(_session(tech, 7), words=32, bits=16, stack=4,
                           n_samples=1500, chunk_size=200, defects=HOT,
                           repair=RepairPlan(ecc=True)).run()
    assert report.render() == HOT_ECC_SIGNOFF


def test_hot_defect_ecc_yield_report(tech):
    report = analyze_yield(sram_brick(32, 16), stack=4, n_bricks=500,
                           model=HOT, plan=RepairPlan(ecc=True),
                           session=_session(tech, 2015))
    assert report.render() == HOT_ECC_YIELD
