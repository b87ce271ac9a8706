"""Tests for floorplan, placement and routing estimation."""

import pytest

from repro.bricks import generate_brick_library, single_partition, \
    sram_brick
from repro.errors import SynthesisError
from repro.rtl import build_sram, elaborate, fig3_sram
from repro.session import Session
from repro.synth import build_floorplan, place, route


@pytest.fixture(scope="module")
def fig3_flat(fig3_library):
    module, _ = fig3_sram()
    return elaborate(module, fig3_library)


def hpwl(design):
    """Total half-perimeter wirelength of a placement over all nets,
    each cell a pin at its centre on every net it touches."""
    points = {}
    for cell in design.netlist.cells:
        p = design.positions[cell.name]
        for net in set(cell.pins.values()):
            points.setdefault(net, []).append((p.cx, p.cy))

    def net_hpwl(net):
        xs = [x for x, _ in points.get(net, ())]
        ys = [y for _, y in points.get(net, ())]
        if not xs:
            return 0.0
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    return sum(net_hpwl(net) for net in range(design.netlist.n_nets))


class TestFloorplan:
    def test_macro_placed_inside_die(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech)
        assert len(fp.macros) == 1
        for placement in fp.macros.values():
            assert placement.x >= 0 and placement.y >= 0
            assert placement.x + placement.width <= fp.die_width + 1e-6

    def test_core_disjoint_from_macros(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech)
        core = fp.core
        for p in fp.macros.values():
            overlap_x = min(core.x + core.width, p.x + p.width) - \
                max(core.x, p.x)
            overlap_y = min(core.y + core.height, p.y + p.height) - \
                max(core.y, p.y)
            assert overlap_x <= 1e-9 or overlap_y <= 1e-9

    def test_core_rows_match_row_height(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech)
        assert fp.rows >= 1
        assert fp.row_height == pytest.approx(tech.row_height_um)

    def test_die_fits_cells_at_utilization(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech, utilization=0.5)
        std_area = sum(c.model.area for c in fig3_flat.cells
                       if not c.model.is_brick)
        core_area = fp.core.width * fp.core.height
        assert core_area >= std_area / 0.5 * 0.95

    def test_bad_utilization_rejected(self, fig3_flat, tech):
        with pytest.raises(SynthesisError):
            build_floorplan(fig3_flat, tech, utilization=0.0)

    def test_stacked_macros_are_tall(self, stdlib, tech):
        config = single_partition(sram_brick(16, 10), 128)
        bricks, _ = generate_brick_library(
            [(config.brick, config.stack)], Session(tech))
        flat = elaborate(build_sram(config),
                         stdlib.merged_with(bricks))
        fp = build_floorplan(flat, tech)
        placement = next(iter(fp.macros.values()))
        assert placement.height > placement.width


class TestPlacement:
    def test_every_cell_placed_inside_die(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech)
        design = place(fig3_flat, fp, anneal_moves=500)
        for cell in fig3_flat.cells:
            p = design.positions[cell.name]
            assert -1e-6 <= p.x <= fp.die_width + 1e-6
            assert -1e-6 <= p.y <= fp.die_height + 1e-6

    def test_std_cells_in_core_rows(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech)
        design = place(fig3_flat, fp, anneal_moves=0)
        for cell in fig3_flat.cells:
            if cell.model.is_brick:
                continue
            p = design.positions[cell.name]
            assert p.y >= fp.core.y - 1e-6
            offset = (p.y - fp.core.y) / fp.row_height
            assert offset == pytest.approx(round(offset), abs=1e-6)

    def test_annealing_does_not_worsen_hpwl(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech)
        construction = place(fig3_flat, fp, anneal_moves=0)
        refined = place(fig3_flat, fp, anneal_moves=3000)
        assert hpwl(refined) <= hpwl(construction) * 1.05

    def test_deterministic_in_seed(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech)
        a = place(fig3_flat, fp, seed=1, anneal_moves=500)
        b = place(fig3_flat, fp, seed=1, anneal_moves=500)
        assert list(a.positions) == list(b.positions)
        for name, p in a.positions.items():
            assert b.positions[name] == p, name
        assert hpwl(a) == hpwl(b)

    @pytest.mark.parametrize("moves", [-1, -5])
    def test_negative_anneal_moves_rejected(self, fig3_flat, tech, moves):
        fp = build_floorplan(fig3_flat, tech)
        with pytest.raises(SynthesisError, match="anneal_moves"):
            place(fig3_flat, fp, anneal_moves=moves)

    def test_full_utilization_overflow_raises(self, fig3_flat, tech):
        """At utilization 1.0 the Fig-3 bank's cells need more rows than
        the core has: placement refuses rather than stack them."""
        fp = build_floorplan(fig3_flat, tech, utilization=1.0)
        n_std = sum(1 for c in fig3_flat.cells if not c.model.is_brick)
        with pytest.raises(SynthesisError) as err:
            place(fig3_flat, fp, anneal_moves=0)
        message = str(err.value)
        assert f"{n_std} std cells" in message
        assert f"{fp.rows} core rows" in message
        assert "utilization 1" in message

    def test_row_fill_has_no_overlap(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech, utilization=0.9)
        design = place(fig3_flat, fp, anneal_moves=0)
        boxes = sorted((p.y, p.x, p.x + p.width)
                       for name, p in design.positions.items()
                       if name not in fp.macros)
        for (y0, _, right), (y1, left, _) in zip(boxes, boxes[1:]):
            assert y0 != y1 or left >= right - 1e-9
        for _, left, right in boxes:
            assert fp.core.x - 1e-9 <= left
            assert right <= fp.core.x + fp.core.width + 1e-9


class TestRouting:
    def test_parasitics_for_multi_pin_nets(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech)
        design = place(fig3_flat, fp, anneal_moves=500)
        parasitics = route(design, tech)
        assert len(parasitics.nets) > 10
        assert parasitics.total_wirelength_um > 0
        for para in parasitics.nets.values():
            assert para.resistance >= 0
            assert para.capacitance >= 0

    def test_unrouted_net_defaults_to_zero(self, fig3_flat, tech):
        fp = build_floorplan(fig3_flat, tech)
        design = place(fig3_flat, fp, anneal_moves=0)
        parasitics = route(design, tech)
        ghost = parasitics.of(10 ** 9)
        assert ghost.capacitance == 0.0

    def test_macro_pins_spread_along_edges(self, stdlib, tech):
        """Decoded wordlines of a tall stacked macro must land at
        different heights — the Fig. 4b config-D routing penalty."""
        config = single_partition(sram_brick(16, 10), 128)
        bricks, _ = generate_brick_library(
            [(config.brick, config.stack)], Session(tech))
        flat = elaborate(build_sram(config),
                         stdlib.merged_with(bricks))
        fp = build_floorplan(flat, tech)
        design = place(flat, fp, anneal_moves=0)
        parasitics = route(design, tech)
        # Wordline nets must not all have identical lengths.
        brick = next(c for c in flat.cells if c.model.is_brick)
        lengths = {parasitics.of(net).length_um
                   for pin, net in brick.pins.items()
                   if pin.startswith("RWL")}
        assert len(lengths) > 16
