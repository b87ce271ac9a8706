"""Tests for RC trees and Elmore delay."""

import pytest

from repro.circuit import RCTree
from repro.errors import NetlistError
from repro.units import FF, KOHM


class TestConstruction:
    def test_single_node(self):
        tree = RCTree(r_drive=1 * KOHM, root_cap=10 * FF)
        assert tree.elmore("root") == pytest.approx(1e3 * 10e-15)

    def test_duplicate_node_rejected(self):
        tree = RCTree()
        tree.add("a", "root", 100.0, 1 * FF)
        with pytest.raises(NetlistError):
            tree.add("a", "root", 100.0, 1 * FF)

    def test_unknown_parent_rejected(self):
        tree = RCTree()
        with pytest.raises(NetlistError):
            tree.add("a", "ghost", 100.0)

    def test_negative_resistance_rejected(self):
        tree = RCTree()
        with pytest.raises(NetlistError):
            tree.add("a", "root", -1.0)

    def test_add_cap_accumulates(self):
        tree = RCTree()
        tree.add("a", "root", 100.0, 1 * FF)
        tree.add_cap("a", 2 * FF)
        assert tree.total_cap() == pytest.approx(3e-15)

    def test_add_cap_unknown_node(self):
        with pytest.raises(NetlistError):
            RCTree().add_cap("ghost", 1 * FF)


class TestElmore:
    def test_two_segment_ladder_hand_computed(self):
        tree = RCTree(r_drive=1 * KOHM)
        tree.add("n1", "root", 500.0, 10 * FF)
        tree.add("n2", "n1", 500.0, 10 * FF)
        expected = 1e3 * 20e-15 + 500 * 20e-15 + 500 * 10e-15
        assert tree.elmore("n2") == pytest.approx(expected)

    def test_branching_tree(self):
        # root -> a -> sink ; root -> b (side load)
        tree = RCTree(r_drive=1 * KOHM)
        tree.add("a", "root", 200.0, 2 * FF)
        tree.add("b", "root", 300.0, 5 * FF)
        tree.add("sink", "a", 400.0, 1 * FF)
        expected = (1e3 * 8e-15          # driver sees everything
                    + 200 * 3e-15        # a subtree: a + sink caps
                    + 400 * 1e-15)       # sink cap only
        assert tree.elmore("sink") == pytest.approx(expected)

    def test_side_branch_does_not_slow_its_sibling_past_driver(self):
        tree = RCTree(r_drive=1 * KOHM)
        tree.add("a", "root", 100.0, 1 * FF)
        base = tree.elmore("a")
        tree.add("b", "root", 100.0, 50 * FF)
        loaded = tree.elmore("a")
        # The extra cap loads only the driver term.
        assert loaded - base == pytest.approx(1e3 * 50e-15)

    def test_unknown_sink_rejected(self):
        with pytest.raises(NetlistError):
            RCTree().elmore("ghost")

    def test_delay50_is_log2_of_elmore(self):
        tree = RCTree(r_drive=1 * KOHM, root_cap=10 * FF)
        assert tree.delay_50("root") == pytest.approx(
            0.69 * tree.elmore("root"))

    def test_monotonic_along_path(self):
        tree = RCTree(r_drive=500.0)
        last = "root"
        for i in range(6):
            tree.add(f"n{i}", last, 100.0, 1 * FF)
            last = f"n{i}"
        delays = [tree.elmore(f"n{i}") for i in range(6)]
        assert delays == sorted(delays)
        assert delays[0] < delays[-1]


class TestLadderHelpers:
    def test_add_ladder_returns_tail(self):
        tree = RCTree(r_drive=1 * KOHM)
        tail = tree.add_ladder("root", "w",
                               [(100.0, 1 * FF)] * 4, tail_cap=5 * FF)
        assert tail == "w3"
        assert tree.total_cap() == pytest.approx(9e-15)

    def test_empty_ladder_rejected(self):
        tree = RCTree()
        with pytest.raises(NetlistError):
            tree.add_ladder("root", "w", [])

    def test_wire_tree_matches_distributed_formula(self, tech):
        layer = tech.layer("M1")
        tree = RCTree(r_drive=1 * KOHM)
        tree.add_ladder("root", "w", layer.segments(100.0, 64),
                        tail_cap=10 * FF)
        sink = f"w63"
        analytic = layer.elmore_delay(100.0, c_load=10 * FF,
                                      r_drive=1 * KOHM)
        # Discrete ladder converges to the distributed closed form.
        assert tree.elmore(sink) == pytest.approx(analytic, rel=0.02)
