"""Fig. 1: printability of logic next to bitcell arrays.

The paper's SEM study shows (a) bitcells print cleanly, (b) conventional
standard cells next to bitcells create lithographic hotspots, (c)
pattern-construct standard cells next to bitcells print cleanly.  We
reproduce the claim as hotspot counts / printability scores under the
restrictive-patterning rule set, plus the layout-level guarantee: every
generated brick layout is hotspot-free.
"""

import pytest

from bench_util import print_table
from repro.bricks import compile_brick, generate_layout, sram_brick
from repro.tech import (
    PatternRuleSet,
    find_hotspots,
    printability_score,
    scenario_bitcell_array,
    scenario_conventional_next_to_bitcells,
    scenario_regular_next_to_bitcells,
)


@pytest.fixture(scope="module")
def fig1():
    scenarios = {
        "1a bitcells only": scenario_bitcell_array(rows=16, cols=16),
        "1b conventional logic": scenario_conventional_next_to_bitcells(
            rows=16, array_cols=8, logic_cols=8),
        "1c regular logic": scenario_regular_next_to_bitcells(
            rows=16, array_cols=8, logic_cols=8),
    }
    rows = []
    for name, grid in scenarios.items():
        hotspots = find_hotspots(grid, PatternRuleSet.default())
        rows.append({
            "panel": name,
            "hotspots": len(hotspots),
            "printability": printability_score(grid),
        })
    return rows


def test_fig1_report_and_ordering(fig1):
    print_table(
        "Fig. 1 — Printability of logic next to bitcell arrays",
        ("panel", "hotspots", "printability"),
        [(r["panel"], r["hotspots"], f"{r['printability']:.3f}")
         for r in fig1])
    by_panel = {r["panel"][:2]: r for r in fig1}
    assert by_panel["1a"]["hotspots"] == 0
    assert by_panel["1b"]["hotspots"] == 16  # one per boundary row
    assert by_panel["1c"]["hotspots"] == 0
    assert by_panel["1b"]["printability"] < 1.0
    assert by_panel["1a"]["printability"] == 1.0
    assert by_panel["1c"]["printability"] == 1.0


def test_generated_brick_layouts_are_pattern_legal(tech):
    """The methodology's layout-level guarantee, checked on a spread of
    brick geometries."""
    for words, bits in [(4, 4), (16, 10), (32, 12), (13, 7)]:
        compiled = compile_brick(sram_brick(words, bits), tech)
        layout = generate_layout(compiled, tech)
        assert find_hotspots(layout.pattern_grid) == [], (words, bits)
