"""Property-based tests across system-level components.

Liberty round trips, blocking decompositions and workload-statistics
invariants.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.spgemm import CSCMatrix, column_blocks

_settings = settings(max_examples=20, deadline=None,
                     suppress_health_check=[
                         HealthCheck.too_slow,
                         HealthCheck.function_scoped_fixture])


def _matrix(draw, n_rows, n_cols, max_entries=30):
    entries = draw(st.lists(
        st.tuples(st.integers(0, n_rows - 1),
                  st.integers(0, n_cols - 1),
                  st.sampled_from([1.0, 2.0, -1.0, 0.5])),
        max_size=max_entries))
    return CSCMatrix.from_coo(n_rows, n_cols, entries)


@st.composite
def matrices(draw, max_dim=16):
    n = draw(st.integers(2, max_dim))
    m = draw(st.integers(2, max_dim))
    return _matrix(draw, n, m)


class TestBlockingProperties:
    @given(matrices(), st.integers(1, 8))
    @_settings
    def test_column_blocks_partition_nnz(self, matrix, width):
        blocks = column_blocks(matrix, width)
        assert sum(b.nnz for b in blocks) == matrix.nnz
        assert sum(b.width for b in blocks) == matrix.n_cols


class TestLibertyRoundtripProperty:
    @given(gates=st.lists(st.sampled_from(
        ["INV", "NAND2", "NAND3", "NOR2", "AND2", "OR2", "XOR2",
         "MUX2", "DFF"]), min_size=1, max_size=4, unique=True),
        drives=st.sampled_from([(1,), (1, 2), (2, 4)]))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[
                  HealthCheck.too_slow,
                  HealthCheck.function_scoped_fixture])
    def test_any_sublibrary_roundtrips(self, gates, drives, tech):
        from repro.cells import make_stdcell_library
        from repro.liberty import LibertyWriter, parse_library
        original = make_stdcell_library(tech, drives=drives,
                                        gates=gates)
        parsed = parse_library(LibertyWriter(original).text())
        assert set(parsed.cells) == set(original.cells)
        for name in original.cells:
            cell_a, cell_b = original.cell(name), parsed.cell(name)
            assert cell_b.area == pytest.approx(cell_a.area, rel=1e-4)
            for arc_a in cell_a.arcs:
                arc_b = cell_b.arc(arc_a.from_pin, arc_a.to_pin)
                assert arc_b.delay_value(1e-11, 5e-15) == \
                    pytest.approx(arc_a.delay_value(1e-11, 5e-15),
                                  rel=1e-3)


class TestStatsProperties:
    @given(st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stats_internally_consistent(self, data):
        from repro.spgemm import analyze_workload
        n = data.draw(st.integers(3, 15))
        a = _matrix(data.draw, n, n)
        b = _matrix(data.draw, n, n)
        stats = analyze_workload(a, b)
        assert stats.work >= stats.result_nnz
        assert stats.work_weighted_fill <= max(stats.max_col_fill, 0)
        if stats.result_nnz:
            assert stats.compression >= 1.0
        assert stats.predicted_speedup() > 0
