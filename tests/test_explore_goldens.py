"""Output goldens for both sweep arms, and a brute-force frontier oracle.

The cached arm (lattices up to ``AUTO_SHARD_THRESHOLD`` points) prices
every point through ``estimate_points``; the sharded arm prices slices
with the batch kernel.  The goldens pin what users see of each: the
default ``repro sweep`` table, the Fig-4c frontier JSON and a
``keep_going`` cached sweep that loses a chunk.  The oracle checks the
sharded frontier, at several shard sizes, against the non-dominated set
of every point priced one by one.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bricks.spec import BrickSpec
from repro.cli import main
from repro.explore import Lattice, SweepEngine, SweepSpace
from repro.perf.cache import CharacterizationCache
from repro.perf.characterize import estimate_points
from repro.serve.handlers import sweep_report_data
from repro.session import FaultEvent, RecordingSink, Session

DEFAULT_SWEEP_STDOUT = """\
      memory        brick     delay      energy        area
-----------------------------------------------------------
      128x8b        16x8b     283ps     0.758pJ     1416um2
      128x8b        32x8b     350ps     0.610pJ     1266um2
      128x8b        64x8b     487ps     0.666pJ     1225um2
     128x16b       16x16b     296ps     1.265pJ     2557um2
     128x16b       32x16b     363ps     1.038pJ     2289um2
     128x16b       64x16b     500ps     1.109pJ     2190um2
     128x32b       16x32b     313ps     2.250pJ     4778um2
     128x32b       32x32b     380ps     1.876pJ     4280um2
     128x32b       64x32b     517ps     1.986pJ     4065um2
pareto-optimal: 128x8b from 16x8b bricks (8x), 128x8b from 32x8b \
bricks (4x), 128x8b from 64x8b bricks (2x)
"""

#: sha256 of ``SweepEngine(session).run().frontier_json()`` (Fig. 4c).
FIG4C_FRONTIER_SHA256 = ("b20dabc84c7b3d276a3d396285184b87"
                         "3602455b09b9ac69a76e9a509bd7da54")

#: ``sweep_report_data`` of the keep-going sweep below, wall clock
#: dropped: the 16- and 32-word bricks share the failing chunk.
KEEP_GOING_REPORT = {
    "n_points": 1,
    "points": [{"total_words": 64, "bits": 8, "brick_words": 64,
                "stack": 1, "read_delay": 4.77300689978789e-10,
                "read_energy": 4.737894698669386e-13,
                "write_energy": 2.917332293446583e-13,
                "area_um2": 612.7281753075636,
                "leakage_w": 8.050064453568803e-07}],
    "failures": [{"label": "64x8b from 16x8b bricks",
                  "error": "BrickError: injected failure"},
                 {"label": "64x8b from 32x8b bricks",
                  "error": "BrickError: injected failure"}],
    "pareto": ["64x8b from 64x8b bricks (1x)"],
}


def _session(tech, **kwargs):
    return Session(tech, cache=CharacterizationCache(cache_dir=None),
                   **kwargs)


class TestCachedArmGoldens:
    def test_default_sweep_stdout(self, capsys):
        assert main(["--no-cache", "sweep"]) == 0
        assert capsys.readouterr().out == DEFAULT_SWEEP_STDOUT

    def test_fig4c_frontier_json(self, tech):
        blob = SweepEngine(_session(tech)).run().frontier_json()
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            FIG4C_FRONTIER_SHA256

    def test_keep_going_lost_chunk(self, tech, fail_chunks_with_32_words):
        # jobs=2 puts the 16- and 32-word bricks in one chunk.
        sink = RecordingSink()
        result = SweepEngine(
            _session(tech, seed=2015, jobs=2, sink=sink),
            total_words_options=(64,), bits_options=(8,),
            brick_words_options=(16, 32, 64)).run(keep_going=True)
        data = sweep_report_data(result.to_sweep_result())
        data.pop("wall_clock_s")
        assert data == KEEP_GOING_REPORT
        assert [(f.index, f.brick_words) for f in result.failures] == \
            [(0, 16), (1, 32)]
        assert [p.index for p in result.points] == [2]
        assert [(e.name, e.index) for e in sink.events
                if isinstance(e, FaultEvent) and e.domain == "sweep"] == \
            [("64x8b from 16x8b bricks", 0), ("64x8b from 32x8b bricks", 1)]


def _dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and a != b


class TestShardedFrontierOracle:
    """The sharded frontier is the brute-force non-dominated set of the
    whole lattice, each point priced on its own by ``estimate_points``."""

    SPACE = SweepSpace(total_words_options=(64, 96, 128, 256),
                       bits_options=(4, 8, 16),
                       brick_words_options=(8, 16, 32, 64),
                       memory_types=("8T", "6T"))

    @pytest.fixture(scope="class")
    def oracle(self, tech):
        lattice = Lattice(self.SPACE)
        points = lattice.points(0, len(lattice))
        estimates = estimate_points(
            [(BrickSpec(p.memory_type, p.brick_words, p.bits), p.stack)
             for p in points], _session(tech))
        vectors = {p.index: (e.read_delay, e.read_energy, e.area_um2)
                   for p, e in zip(points, estimates)}
        return sorted(i for i, v in vectors.items()
                      if not any(_dominates(w, v)
                                 for w in vectors.values())), vectors

    @pytest.mark.parametrize("shard_size", [1, 7, 8192])
    def test_frontier_is_the_non_dominated_set(self, tech, oracle,
                                               shard_size):
        front, vectors = oracle
        result = SweepEngine(_session(tech), space=self.SPACE,
                             mode="sharded",
                             shard_size=shard_size).run()
        assert result.mode == "sharded"
        assert [p.index for p in result.frontier] == front
        for p in result.frontier:
            assert p.vector(result.objectives) == vectors[p.index]
