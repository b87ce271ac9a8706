"""Tests for design-space exploration and pareto fronts."""

import pytest

from repro.errors import ExplorationError
from repro.explore import (
    dominates,
    knee_point,
    pareto_front,
)
from repro.session import Session


def _session(tech):
    return Session(tech)


class TestSweep:
    @pytest.fixture(scope="class")
    def fig4c(self, tech):
        return _session(tech).sweep_partitions()

    def test_default_is_paper_grid(self, fig4c):
        assert len(fig4c.points) == 9
        assert {p.brick_words for p in fig4c.points} == {16, 32, 64}
        assert {p.bits for p in fig4c.points} == {8, 16, 32}

    def test_wall_clock_under_two_seconds(self, fig4c):
        assert fig4c.wall_clock_s < 2.0

    def test_bigger_bricks_slower_within_same_memory(self, fig4c):
        """Fig 4c: 'As the brick size gets larger, critical path also
        increases since a brick with larger array size has longer local
        RBLs.'"""
        for bits in (8, 16, 32):
            delays = [fig4c.point(128, bits, bw).read_delay
                      for bw in (16, 32, 64)]
            assert delays[0] < delays[1] < delays[2]

    def test_bigger_bricks_lower_energy_and_area(self, fig4c):
        """Fig 4c: 'partition with larger bricks consume less energy and
        area as they have less number of local sense and control blocks
        per number of words.'

        Area is strictly monotone in our model; energy reproduces the
        claim against the smallest brick (the 16-word build is always
        the most expensive) with a shallow minimum at 32 words where
        the longer local bitline of the 64-word brick starts paying
        back the periphery savings."""
        for bits in (8, 16, 32):
            energies = [fig4c.point(128, bits, bw).read_energy
                        for bw in (16, 32, 64)]
            areas = [fig4c.point(128, bits, bw).area_um2
                     for bw in (16, 32, 64)]
            assert energies[0] > energies[1]
            assert energies[0] > energies[2]
            assert areas[0] > areas[1] > areas[2]

    def test_cross_memory_comparison_16x16_vs_64x8(self, fig4c):
        """Fig 4c: '128x16bit memory built with 16x16bit bricks is still
        faster than 128x8bit memory built with 64x8bit bricks.'"""
        fast_wide = fig4c.point(128, 16, 16)
        slow_narrow = fig4c.point(128, 8, 64)
        assert fast_wide.read_delay < slow_narrow.read_delay

    def test_filter_and_missing_point(self, fig4c):
        assert len(fig4c.filter(bits=8)) == 3
        with pytest.raises(ExplorationError):
            fig4c.point(128, 8, 13)

    def test_normalization(self, fig4c):
        ref = fig4c.point(128, 8, 16)
        norm = ref.normalized(ref)
        assert norm == {"delay": 1.0, "energy": 1.0, "area": 1.0}


class TestPareto:
    def test_dominates_semantics(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (2, 2))
        assert not dominates((1, 3), (2, 2))
        assert not dominates((2, 2), (2, 2))

    def test_front_removes_dominated(self):
        points = [(1, 3), (2, 2), (3, 1), (3, 3)]
        front = pareto_front(points, lambda p: p)
        assert (3, 3) not in front
        assert len(front) == 3

    def test_front_keeps_duplicates(self):
        points = [(1, 1), (1, 1)]
        assert len(pareto_front(points, lambda p: p)) == 2

    def test_knee_prefers_balance(self):
        points = [(0.0, 10.0), (5.0, 5.0), (10.0, 0.0)]
        assert knee_point(points, lambda p: p) == (5.0, 5.0)

    def test_knee_empty_rejected(self):
        with pytest.raises(ExplorationError):
            knee_point([], lambda p: p)

    def test_sweep_front_nonempty(self, tech):
        result = _session(tech).sweep_partitions(
            bits_options=(8,), brick_words_options=(16, 32, 64))
        front = pareto_front(
            result.points,
            lambda p: (p.read_delay, p.read_energy, p.area_um2))
        assert front
        assert len(front) <= len(result.points)


class TestBrickSelection:
    """The Section 6 future-work optimizer."""

    def test_delay_priority_picks_small_bricks(self, tech):
        fast = _session(tech).optimize_brick_selection(
            128, 16, delay_weight=6.0, energy_weight=0.2,
            area_weight=0.0)
        frugal = _session(tech).optimize_brick_selection(
            128, 16, delay_weight=0.2, energy_weight=4.0,
            area_weight=2.0)
        assert fast.point.brick_words <= frugal.point.brick_words
        assert fast.point.read_delay <= frugal.point.read_delay

    def test_no_divisor_rejected(self, tech):
        with pytest.raises(ExplorationError):
            _session(tech).optimize_brick_selection(
                100, 8, brick_words_options=(16, 32))
