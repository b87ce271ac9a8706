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
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

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


#: ``random.sample(population, 2)`` picks from a copied pool for
#: populations up to this size and by rejection above it (CPython's
#: ``setsize`` for ``k <= 5``).
_SAMPLE_POOL_MAX = 21


def _pair_sampler(rng: random.Random, population: List[int]
                  ) -> Callable[[], Tuple[int, int]]:
    """A draw of two distinct members of ``population`` that consumes
    ``rng`` exactly as ``rng.sample(population, 2)`` does and returns
    the same pair, without copying a pool or building a set per call.

    ``sample`` draws its indices as ``randrange(n)`` does.  For at most
    ``_SAMPLE_POOL_MAX`` members it copies the population into a pool,
    takes ``pool[i]``, moves the last member into slot ``i`` and takes
    ``pool[j]`` for ``j`` below ``n - 1``; above that it takes
    ``population[i]`` and redraws ``j`` until it differs from ``i``.
    """
    randrange = rng.randrange
    n = len(population)
    if n > _SAMPLE_POOL_MAX:
        def draw() -> Tuple[int, int]:
            i = randrange(n)
            j = randrange(n)
            while j == i:
                j = randrange(n)
            return population[i], population[j]
    else:
        last = n - 1

        def draw() -> Tuple[int, int]:
            i = randrange(n)
            j = randrange(last)
            return population[i], population[last if j == i else j]
    return draw


def _anneal(netlist: FlatNetlist, floorplan: Floorplan,
            positions: Dict[str, Placement], std_cells: List[FlatCell],
            rng: random.Random, moves: int) -> None:
    """Pairwise-swap annealing on HPWL, in place on ``positions``.

    Cells are indexed by their position in ``netlist.cells`` and nets by
    id.  Every net of two or more pins keeps its cost, its pin bounding
    box and the number of pins on each y bound (rows put many pins on
    one y) in flat lists.  A swap is two single-pin moves, cell a's and
    then cell b's, through the boxes of their nets.  A moved pin that
    sat on an x bound, or alone held a y bound, forces a rescan (one
    ``itemgetter`` call over the net's pin centres); any other pin only
    widens the box or moves a count, and a pin that stays in its row
    leaves the y bounds alone.  The boxes are exactly the min/max of a
    full scan, so each net length, accept decision and final position
    equals a from-scratch HPWL evaluation bit for bit.  The per-swap
    sums run in the iteration order of ``set(nets of a) | set(nets of
    b)``, because float sums depend on order; single-pin nets add
    ``0.0`` there and have no box.
    """
    cells = netlist.cells
    index = {cell.name: i for i, cell in enumerate(cells)}
    x: List[float] = []
    y: List[float] = []
    hw: List[float] = []   # half widths and heights
    hh: List[float] = []
    for cell in cells:
        p = positions[cell.name]
        x.append(p.x)
        y.append(p.y)
        hw.append(p.width / 2.0)
        hh.append(p.height / 2.0)
    cx = [xi + wi for xi, wi in zip(x, hw)]
    cy = [yi + hi for yi, hi in zip(y, hh)]

    cell_nets: List[Set[int]] = []
    net_pins: Dict[int, List[int]] = {}
    for i, cell in enumerate(cells):
        nets = list(set(cell.pins.values()))
        cell_nets.append(set(nets))
        for net in nets:
            net_pins.setdefault(net, []).append(i)
    n_ids = max(net_pins, default=-1) + 1
    cost = [0.0] * n_ids
    # box[net] = (xmin, xmax, ymin, ymax, pins at ymin, pins at ymax)
    # and pins[net] = an itemgetter of the net's pin centres, for nets
    # of >= 2 pins.
    box: List[Optional[Tuple[float, float, float, float, int, int]]] = \
        [None] * n_ids
    pins: List[Optional[Callable]] = [None] * n_ids
    for net, members in net_pins.items():
        if len(members) < 2:
            continue
        pins[net] = g = itemgetter(*members)
        xs, ys = g(cx), g(cy)
        xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
        box[net] = (xlo, xhi, ylo, yhi, ys.count(ylo), ys.count(yhi))
        cost[net] = (xhi - xlo) + (yhi - ylo)
    multi = [tuple(n for n in nets if pins[n] is not None)
             for nets in cell_nets]

    movable = [index[cell.name] for cell in std_cells]
    draw = _pair_sampler(rng, movable)
    cost_of = cost.__getitem__
    random_ = rng.random
    temp = 0.3 * (floorplan.die_width + floorplan.die_height)
    cooling = 0.995 ** (1.0 / max(1, moves / 1000))
    for _ in range(moves):
        a, b = draw()
        affected = cell_nets[a] | cell_nets[b]
        before = sum(map(cost_of, affected))
        ax, ay, acx, acy = x[a], y[a], cx[a], cy[a]
        bx, by, bcx, bcy = x[b], y[b], cx[b], cy[b]
        x[a], y[a], x[b], y[b] = bx, by, ax, ay

        # A rejected swap replays ``undo`` backwards, so a net on both
        # cells gets the entry from before a's move back.
        undo = []
        for i, ox, nx, oy, ny in ((a, acx, bx + hw[a], acy, by + hh[a]),
                                  (b, bcx, ax + hw[b], bcy, ay + hh[b])):
            cx[i] = nx
            cy[i] = ny
            for n in multi[i]:
                bb = box[n]
                xlo, xhi, ylo, yhi, nlo, nhi = bb
                if ox == xlo or ox == xhi:
                    v = pins[n](cx)
                    xlo = min(v)
                    xhi = max(v)
                elif nx < xlo:
                    xlo = nx
                elif nx > xhi:
                    xhi = nx
                if ny != oy:
                    if (oy == ylo and nlo == 1) or (oy == yhi and nhi == 1):
                        v = pins[n](cy)
                        ylo = min(v)
                        yhi = max(v)
                        nlo = v.count(ylo)
                        nhi = v.count(yhi)
                    else:
                        if oy == ylo:
                            nlo -= 1
                        if oy == yhi:
                            nhi -= 1
                        if ny < ylo:
                            ylo, nlo = ny, 1
                        elif ny == ylo:
                            nlo += 1
                        elif ny > yhi:
                            yhi, nhi = ny, 1
                        elif ny == yhi:
                            nhi += 1
                undo.append((n, bb, cost[n]))
                box[n] = (xlo, xhi, ylo, yhi, nlo, nhi)
                cost[n] = (xhi - xlo) + (yhi - ylo)
        delta = sum(map(cost_of, affected)) - before
        if not (delta <= 0 or random_() < math.exp(-delta / max(temp,
                                                                1e-9))):
            x[a], y[a], cx[a], cy[a] = ax, ay, acx, acy
            x[b], y[b], cx[b], cy[b] = bx, by, bcx, bcy
            for n, bb, c in reversed(undo):
                box[n] = bb
                cost[n] = c
        temp *= cooling

    for i in movable:
        p = positions[cells[i].name]
        positions[cells[i].name] = Placement(x[i], y[i], p.width, p.height)
