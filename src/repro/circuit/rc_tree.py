"""RC trees and Elmore delay.

The closed-form side of the brick estimator ("a formulized circuit design
methodology based on logical effort calculations and RC delay estimations",
Section 3) models every wire — wordlines, local read bitlines, array read
bitlines — as an RC tree driven through a driver resistance.  The Elmore
delay of such a tree is the first moment of its impulse response and the
standard estimation currency of physical synthesis tools.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import NetlistError


@dataclass
class RCNode:
    """One node of an RC tree."""

    name: str
    cap: float = 0.0
    parent: Optional[str] = None
    r_to_parent: float = 0.0
    children: List[str] = field(default_factory=list)


class RCTree:
    """A grounded-capacitor RC tree rooted at a driver.

    The root represents the driver output; ``r_drive`` is the (linearized)
    driver resistance in series before the root.  Elmore delay from the
    driver input to any node is then exact for this topology.
    """

    def __init__(self, root: str = "root", r_drive: float = 0.0,
                 root_cap: float = 0.0):
        if r_drive < 0 or root_cap < 0:
            raise NetlistError("driver resistance and root cap must be >= 0")
        self.root = root
        self.r_drive = r_drive
        self.nodes: Dict[str, RCNode] = {
            root: RCNode(root, cap=root_cap)
        }

    def add(self, name: str, parent: str, resistance: float,
            cap: float = 0.0) -> None:
        """Attach node ``name`` to ``parent`` through ``resistance``."""
        if name in self.nodes:
            raise NetlistError(f"duplicate RC node {name!r}")
        if parent not in self.nodes:
            raise NetlistError(f"unknown parent node {parent!r}")
        if resistance < 0 or cap < 0:
            raise NetlistError("resistance and capacitance must be >= 0")
        self.nodes[name] = RCNode(name, cap=cap, parent=parent,
                                  r_to_parent=resistance)
        self.nodes[parent].children.append(name)

    def add_cap(self, name: str, cap: float) -> None:
        """Add extra grounded capacitance at an existing node."""
        if cap < 0:
            raise NetlistError("capacitance must be >= 0")
        try:
            self.nodes[name].cap += cap
        except KeyError as exc:
            raise NetlistError(f"unknown RC node {name!r}") from exc

    def add_ladder(self, parent: str, prefix: str,
                   segments: Iterable[Tuple[float, float]],
                   tail_cap: float = 0.0) -> str:
        """Append an RC ladder (e.g. a distributed wire) under ``parent``.

        ``segments`` is an iterable of ``(r, c)`` pairs as produced by
        :meth:`repro.tech.wire.WireLayer.segments`.  Returns the name of the
        final ladder node, to which ``tail_cap`` is added.
        """
        last = parent
        index = 0
        for index, (r_seg, c_seg) in enumerate(segments):
            node = f"{prefix}{index}"
            self.add(node, last, r_seg, c_seg)
            last = node
        if last == parent:
            raise NetlistError("RC ladder needs at least one segment")
        if tail_cap:
            self.add_cap(last, tail_cap)
        return last

    def total_cap(self) -> float:
        """Sum of all grounded capacitance in the tree (for CV^2 energy)."""
        return sum(node.cap for node in self.nodes.values())

    def _downstream_caps(self) -> Dict[str, float]:
        """Capacitance at-and-below each node, by post-order accumulation."""
        order = self._topological_order()
        downstream = {name: self.nodes[name].cap for name in self.nodes}
        for name in reversed(order):
            node = self.nodes[name]
            if node.parent is not None:
                downstream[node.parent] += downstream[name]
        return downstream

    def _topological_order(self) -> List[str]:
        order: List[str] = []
        stack = [self.root]
        while stack:
            name = stack.pop()
            order.append(name)
            stack.extend(self.nodes[name].children)
        if len(order) != len(self.nodes):
            raise NetlistError("RC tree contains unreachable nodes")
        return order

    def elmore(self, sink: str) -> float:
        """Elmore delay in seconds from the driver input to ``sink``.

        Sum over every resistor on the root->sink path of the resistance
        times the capacitance downstream of it, plus the driver resistance
        times the whole tree capacitance.
        """
        if sink not in self.nodes:
            raise NetlistError(f"unknown RC node {sink!r}")
        downstream = self._downstream_caps()
        delay = self.r_drive * downstream[self.root]
        name = sink
        while name != self.root:
            node = self.nodes[name]
            delay += node.r_to_parent * downstream[name]
            name = node.parent
        return delay

    def delay_50(self, sink: str) -> float:
        """50 %-crossing delay estimate: ``ln(2)`` times the Elmore delay."""
        return 0.69 * self.elmore(sink)


def ladder_elmore_batch(r_segs, c_segs, r_drive=0.0, root_cap=0.0,
                        tail_cap=0.0, n_segs=None):
    """Elmore delay to the tail of many RC ladders in one batched solve.

    This is the array-shaped counterpart of building one
    :class:`RCTree` ladder per net and calling :meth:`RCTree.elmore` on
    its tail: the first moments of *all* ladders are obtained from one
    block-diagonal system assembly.  For a grounded-cap ladder the MNA
    conductance matrix is bidiagonal, so the moment solve
    ``G m = c`` reduces to a suffix-sum of downstream capacitance
    followed by a weighted prefix accumulation — both vectorized over
    the whole population.

    Parameters
    ----------
    r_segs / c_segs:
        ``(n_ladders, max_segments)`` arrays of per-segment resistance
        and grounded capacitance (1-D inputs are treated as one
        ladder).  Ladders shorter than ``max_segments`` are padded;
        ``n_segs`` gives the true per-ladder segment counts (default:
        every ladder uses the full width).
    r_drive / root_cap / tail_cap:
        Scalar or per-ladder driver resistance, cap at the driver node
        and extra cap on each ladder's final node — the same knobs
        :class:`RCTree` and :meth:`RCTree.add_ladder` expose.

    Returns the per-ladder Elmore delay (seconds) from driver input to
    the final ladder node, identical to the per-tree traversal.
    """
    import numpy as np

    r = np.atleast_2d(np.asarray(r_segs, dtype=np.float64))
    c = np.atleast_2d(np.asarray(c_segs, dtype=np.float64))
    if r.shape != c.shape:
        raise NetlistError("r_segs and c_segs must have the same shape")
    n_ladders, width = r.shape
    if width < 1:
        raise NetlistError("RC ladder needs at least one segment")
    if n_segs is None:
        n = np.full(n_ladders, width, dtype=np.int64)
    else:
        n = np.asarray(n_segs, dtype=np.int64)
        if n.shape != (n_ladders,):
            raise NetlistError("n_segs must give one count per ladder")
        if (n < 1).any() or (n > width).any():
            raise NetlistError(
                f"segment counts must be in [1, {width}]")
    r_drive = np.broadcast_to(
        np.asarray(r_drive, dtype=np.float64), (n_ladders,))
    root_cap = np.broadcast_to(
        np.asarray(root_cap, dtype=np.float64), (n_ladders,))
    tail_cap = np.broadcast_to(
        np.asarray(tail_cap, dtype=np.float64), (n_ladders,))
    mask = np.arange(width)[None, :] < n[:, None]
    if (np.where(mask, r, 0.0) < 0).any() or \
            (np.where(mask, c, 0.0) < 0).any() or \
            (r_drive < 0).any() or (root_cap < 0).any():
        raise NetlistError("resistance and capacitance must be >= 0")
    c_eff = np.where(mask, c, 0.0)
    c_eff = c_eff + np.where(
        np.arange(width)[None, :] == (n - 1)[:, None],
        tail_cap[:, None], 0.0)
    # Downstream capacitance at-and-below each ladder node: a reversed
    # cumulative sum plays the role of the tree's post-order pass.
    downstream = np.cumsum(c_eff[:, ::-1], axis=1)[:, ::-1]
    total_cap = root_cap + downstream[:, 0]
    delay = r_drive * total_cap + np.sum(
        np.where(mask, r, 0.0) * downstream, axis=1)
    return delay
