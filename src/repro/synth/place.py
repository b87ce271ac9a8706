"""Standard-cell placement.

A small but real placer: cells go into the floorplan's core rows, seeded
by a connectivity-driven ordering and improved by simulated annealing on
half-perimeter wirelength (HPWL) — the objective every production placer
optimizes first.  Macros (bricks) are fixed by the floorplanner; their
pins participate in the HPWL of their nets, which is how brick proximity
shapes the placement of the synthesized periphery around it, i.e. the
paper's "inside and outside of any memory block ... optimized across its
boundary".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import SynthesisError
from ..rtl.module import FlatCell, FlatNetlist
from .floorplan import Floorplan, Placement


@dataclass
class PlacedDesign:
    """Placement result: per-cell positions plus the floorplan."""

    netlist: FlatNetlist
    floorplan: Floorplan
    positions: Dict[str, Placement]

    def pin_position(self, cell_name: str) -> Tuple[float, float]:
        p = self.positions[cell_name]
        return p.cx, p.cy

    def hpwl(self) -> float:
        """Total half-perimeter wirelength over all nets."""
        return sum(self.net_hpwl(net)
                   for net in range(self.netlist.n_nets))

    def net_hpwl(self, net: int) -> float:
        points = self._net_points.get(net)
        if not points:
            return 0.0
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def __post_init__(self) -> None:
        self._net_points: Dict[int, List[Tuple[float, float]]] = {}
        for cell in self.netlist.cells:
            cx, cy = self.pin_position(cell.name)
            for net in set(cell.pins.values()):
                self._net_points.setdefault(net, []).append((cx, cy))


def _connectivity_order(netlist: FlatNetlist) -> List[FlatCell]:
    """BFS from the macros/outputs: keeps connected logic contiguous."""
    std_cells = [c for c in netlist.cells if not c.model.is_brick]
    net_to_cells: Dict[int, List[FlatCell]] = {}
    for cell in std_cells:
        for net in cell.pins.values():
            net_to_cells.setdefault(net, []).append(cell)
    seeds: List[int] = []
    for cell in netlist.cells:
        if cell.model.is_brick:
            seeds.extend(cell.pins.values())
    for nets in netlist.outputs.values():
        seeds.extend(nets)
    order: List[FlatCell] = []
    seen = set()
    visited: Set[int] = set()  # a net's cells are all seen on 1st visit
    frontier = list(dict.fromkeys(seeds))
    while frontier:
        next_frontier: List[int] = []
        for net in frontier:
            if net in visited:
                continue
            visited.add(net)
            for cell in net_to_cells.get(net, []):
                if cell.name in seen:
                    continue
                seen.add(cell.name)
                order.append(cell)
                next_frontier.extend(cell.pins.values())
        frontier = next_frontier
    for cell in std_cells:  # unreachable leftovers
        if cell.name not in seen:
            order.append(cell)
    return order


def place(netlist: FlatNetlist, floorplan: Floorplan,
          seed: int = 2015, anneal_moves: Optional[int] = None
          ) -> PlacedDesign:
    """Row-based placement with simulated-annealing refinement.

    ``anneal_moves`` bounds the refinement effort (default scales with
    design size); pass 0 for construction-only placement in fast sweeps.
    """
    if anneal_moves is not None and anneal_moves < 0:
        raise SynthesisError(
            f"anneal_moves must be >= 0, got {anneal_moves}")
    rng = random.Random(seed)
    core = floorplan.core
    row_height = floorplan.row_height
    positions: Dict[str, Placement] = dict(floorplan.macros)

    std_cells = _connectivity_order(netlist)
    # Row fill in serpentine order.
    x = core.x
    row = 0
    for cell in std_cells:
        width = max(cell.model.area / row_height, 0.1)
        if x + width > core.x + core.width:
            row += 1
            x = core.x
            if row >= floorplan.rows:
                raise SynthesisError(
                    f"placement overflow: {len(std_cells)} std cells "
                    f"do not fit in {floorplan.rows} core rows at "
                    f"utilization {floorplan.utilization_target:g}; "
                    f"lower the utilization")
        y = core.y + row * row_height
        positions[cell.name] = Placement(x, y, width, row_height)
        x += width

    if anneal_moves is None:
        anneal_moves = min(20000, 40 * len(std_cells))
    if anneal_moves and len(std_cells) >= 2:
        _anneal(netlist, floorplan, positions, std_cells, rng,
                anneal_moves)
    return PlacedDesign(netlist, floorplan, positions)


def _cells_nets(cell: FlatCell) -> List[int]:
    return list(set(cell.pins.values()))


def _anneal(netlist: FlatNetlist, floorplan: Floorplan,
            positions: Dict[str, Placement], std_cells: List[FlatCell],
            rng: random.Random, moves: int) -> None:
    """Pairwise-swap annealing on HPWL, in place on ``positions``.

    Cells are indexed by their position in ``netlist.cells``, and every
    net of two or more pins keeps its pin bounding box, updated per swap
    by :func:`_span`.  The boxes are exactly the min/max of a full scan,
    so each net length, accept decision and final position equals a
    from-scratch HPWL evaluation bit for bit.  The per-swap sums run in
    the iteration order of ``set(nets of a) | set(nets of b)``, because
    float sums depend on order.
    """
    cells = netlist.cells
    index = {cell.name: i for i, cell in enumerate(cells)}
    x: List[float] = []
    y: List[float] = []
    w: List[float] = []
    h: List[float] = []
    for cell in cells:
        p = positions[cell.name]
        x.append(p.x)
        y.append(p.y)
        w.append(p.width)
        h.append(p.height)
    cx = [x[i] + w[i] / 2.0 for i in range(len(cells))]
    cy = [y[i] + h[i] / 2.0 for i in range(len(cells))]

    cell_nets: List[Set[int]] = []
    net_pins: Dict[int, List[int]] = {}
    for i, cell in enumerate(cells):
        nets = _cells_nets(cell)
        cell_nets.append(set(nets))
        for net in nets:
            net_pins.setdefault(net, []).append(i)
    # box[net] = (xmin, xmax, ymin, ymax) for nets of >= 2 pins;
    # cost[net] is the net's HPWL (0.0 for single-pin nets).
    box: Dict[int, Tuple[float, float, float, float]] = {}
    cost: Dict[int, float] = {}
    for net, pins in net_pins.items():
        if len(pins) < 2:
            cost[net] = 0.0
            continue
        xs = [cx[i] for i in pins]
        ys = [cy[i] for i in pins]
        bb = (min(xs), max(xs), min(ys), max(ys))
        box[net] = bb
        cost[net] = (bb[1] - bb[0]) + (bb[3] - bb[2])

    movable = [index[cell.name] for cell in std_cells]
    temp = 0.3 * (floorplan.die_width + floorplan.die_height)
    cooling = 0.995 ** (1.0 / max(1, moves / 1000))
    for _ in range(moves):
        a, b = rng.sample(movable, 2)
        nets_a, nets_b = cell_nets[a], cell_nets[b]
        affected = nets_a | nets_b
        before = sum([cost[n] for n in affected])
        ax, ay, acx, acy = x[a], y[a], cx[a], cy[a]
        bx, by, bcx, bcy = x[b], y[b], cx[b], cy[b]
        x[a], y[a], x[b], y[b] = bx, by, ax, ay
        ncx_a = cx[a] = bx + w[a] / 2.0
        ncy_a = cy[a] = by + h[a] / 2.0
        ncx_b = cx[b] = ax + w[b] / 2.0
        ncy_b = cy[b] = ay + h[b] / 2.0

        new_boxes = []
        after_costs = []
        for n in affected:
            bb = box.get(n)
            if bb is None:
                after_costs.append(0.0)
                continue
            on_a = n in nets_a
            on_b = n in nets_b
            xmin, xmax = _span(bb[0], bb[1], cx, net_pins[n], on_a, acx,
                               ncx_a, on_b, bcx, ncx_b)
            ymin, ymax = _span(bb[2], bb[3], cy, net_pins[n], on_a, acy,
                               ncy_a, on_b, bcy, ncy_b)
            new_boxes.append((n, (xmin, xmax, ymin, ymax)))
            after_costs.append((xmax - xmin) + (ymax - ymin))
        delta = sum(after_costs) - before
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp,
                                                              1e-9)):
            cost.update(zip(affected, after_costs))
            box.update(new_boxes)
        else:
            x[a], y[a], cx[a], cy[a] = ax, ay, acx, acy
            x[b], y[b], cx[b], cy[b] = bx, by, bcx, bcy
        temp *= cooling

    for i in movable:
        positions[cells[i].name] = Placement(x[i], y[i], w[i], h[i])


def _span(lo: float, hi: float, coord: List[float], pins: List[int],
          on_a: bool, old_a: float, new_a: float,
          on_b: bool, old_b: float, new_b: float) -> Tuple[float, float]:
    """A net's new (min, max) along one axis after pins a/b moved.

    A moved pin that sat on the old ``lo``/``hi`` may have been the only
    one there, so the net is rescanned; otherwise an unmoved pin still
    holds each bound and the new coordinates can only widen it.
    """
    if (on_a and (old_a == lo or old_a == hi)) or \
            (on_b and (old_b == lo or old_b == hi)):
        vals = [coord[i] for i in pins]
        return min(vals), max(vals)
    if on_a:
        if new_a < lo:
            lo = new_a
        elif new_a > hi:
            hi = new_a
    if on_b:
        if new_b < lo:
            lo = new_b
        elif new_b > hi:
            hi = new_b
    return lo, hi
