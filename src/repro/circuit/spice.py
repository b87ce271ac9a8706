"""Switch-level transient circuit simulator (the "SPICE" reference).

Table 1 of the paper validates the brick estimator against "SPICE
simulations with RC extracted bitcell array layouts".  This module plays
the SPICE role: it numerically integrates the extracted RC network with
voltage-controlled-switch MOS models using backward Euler on the nodal
equations.  It shares *device parameters* with the closed-form estimator
(both read :class:`repro.tech.Technology`) but none of its closed forms —
Elmore delay, logical-effort sizing and the CV^2 energy bookkeeping are
never consulted here — so the tool-vs-reference error is a genuine
measurement of the estimator's approximations.

Numerical scheme
----------------
Nodal analysis with grounded-and-coupling capacitors:

    C dv/dt + G(v) v = 0,     driven nodes pinned by ideal sources.

Backward Euler with device conductances evaluated at the previous step
(semi-implicit; unconditionally stable for this RC class, accurate for the
small steps used).  The system matrix over the free nodes, C/dt + G, is
symmetric positive definite: resistors, capacitors and conducting channels
all stamp non-negative two-terminal conductances, and every node leaks to
ground through ``_GMIN``.  It is refactorized only when a device
conductance moved materially, which makes the quiescent majority of each
transient cheap.

The band is narrow because of the node order.  Once per simulator the free
nodes are put in reverse Cuthill–McKee order over the union sparsity
pattern of C, the resistors and every device channel (all devices on), so
one band of half-width ``kb`` holds every factorization of every run.  The
extracted brick testbenches are forests of RC paths: their ``kb`` is 1, so
the matrix is tridiagonal and LAPACK's ``pttrf``/``pttrs`` (``L D L^T``)
factor and solve it.  A wider band (``kb > 1``) goes to the banded
Cholesky ``pbtrf``/``pbtrs``.

Each step is a few in-place array operations over arrays built once per
simulator.  The device law takes every terminal voltage in one ``take``
with the polarity folded in, and equals
:func:`repro.tech.transistor.conductances` bit for bit.  A
refactorization adds one ``np.bincount`` scatter of the conductances to a
flat buffer's static part (the band, the free×driven coupling block and
the driven rows of G) and factors the band; a step solves into the state
row in place.  Source stimuli are sampled for the whole run before the
first step, in one call per source for the testbench clocks, which carry
a vector form.  Of the source currents ``C_d dv/dt + G_d v``, the ``G_d v``
term is one matrix-vector product per step and the ``C_d dv/dt`` term is
taken after the loop, a block of steps at a time.  The state is checked
for non-finite values every block and at the end.

Output contract: every result is within 1e-9 (relative) of a dense-LU
evaluation of the same scheme, which refactorizes at the same steps; that
oracle is kept in ``tests/test_fast_paths_vs_reference.py``.  The output
bits are pinned by the goldens in ``tests/test_circuit_netlist_spice.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..errors import SimulationError
from ..tech.technology import Technology
from ..tech.transistor import NMOS, Transistor
from .netlist import GND, SpiceCircuit
from .waveform import Waveform

_GMIN = 1e-12  # universal leak conductance for numerical conditioning

_pbtrf, _pbtrs, _pttrf, _pttrs = get_lapack_funcs(
    ("pbtrf", "pbtrs", "pttrf", "pttrs"), dtype=np.float64)

#: Steps between finiteness checks of the state, and the row count of the
#: blocks the capacitor currents of the sources are computed in.
_BLOCK = 64


# ``lu_factor``/``lu_solve`` are the factor and solve entry points (the
# names predate the Cholesky); perfbench counts factorizations and steps
# through them, so the step loop calls them by these module-level names.


def lu_factor(band: np.ndarray):
    """Factor of a symmetric positive-definite band matrix.

    ``band`` is the lower band, shape ``(kb + 1, n)`` with
    ``band[i - j, j] = A[i, j]``.  A tridiagonal matrix (``kb <= 1``) is
    factored as ``L D L^T`` by LAPACK ``pttrf`` into a ``(d, e)`` tuple,
    overwriting the band's rows; a wider band by the banded Cholesky
    ``pbtrf``.  Raises :class:`SimulationError` when the matrix is not
    positive definite (singular included).
    """
    if band.size == 0:
        return band
    if band.shape[0] <= 2:
        # ``pttrf`` wants at least one off-diagonal slot, even for n = 1.
        n_e = max(band.shape[1] - 1, 1)
        e = band[1, :n_e] if band.shape[0] == 2 else np.zeros(n_e)
        d, e, info = _pttrf(band[0], e, overwrite_d=1, overwrite_e=1)
        factor, routine = (d, e), "pttrf"
    else:
        factor, info = _pbtrf(band, lower=1, overwrite_ab=1)
        routine = "pbtrf"
    if info != 0:
        raise SimulationError(
            "transient system matrix is not positive definite "
            f"({routine} info {info})")
    return factor


def lu_solve(factor, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` in place from :func:`lu_factor`'s factor
    (``pttrs`` or ``pbtrs``); returns ``b``, now holding ``x``."""
    if b.size == 0:
        return b
    if isinstance(factor, tuple):
        x, _ = _pttrs(*factor, b, 1)  # overwrite_b
    else:
        x, _ = _pbtrs(factor, b, lower=1, overwrite_b=1)
    if x is not b:
        b[...] = x
    return b


@dataclass
class TransientResult:
    """Waveforms and supply-energy bookkeeping from one transient run."""

    t: np.ndarray
    voltages: Dict[str, np.ndarray]
    source_energy: Dict[str, float]
    source_charge: Dict[str, float]
    source_energy_history: Dict[str, np.ndarray]

    def waveform(self, node: str) -> Waveform:
        try:
            return Waveform(self.t, self.voltages[node])
        except KeyError as exc:
            raise SimulationError(f"node {node!r} was not recorded") from exc

    def energy(self, source_name: str) -> float:
        """Energy delivered by a named source over the run (joules)."""
        try:
            return self.source_energy[source_name]
        except KeyError as exc:
            raise SimulationError(
                f"unknown source {source_name!r}") from exc

    def energy_in_window(self, source_name: str, t0: float,
                         t1: float) -> float:
        """Energy delivered by a source between times ``t0`` and ``t1``."""
        try:
            history = self.source_energy_history[source_name]
        except KeyError as exc:
            raise SimulationError(
                f"unknown source {source_name!r}") from exc
        e0 = float(np.interp(t0, self.t, history))
        e1 = float(np.interp(t1, self.t, history))
        return e1 - e0


class TransientSimulator:
    """Backward-Euler transient simulator over a :class:`SpiceCircuit`."""

    def __init__(self, circuit: SpiceCircuit, tech: Technology):
        circuit.validate()
        self.circuit = circuit
        self.tech = tech
        driven = circuit.driven_nodes()
        self._sources = [driven[node] for node in sorted(driven)]
        self._build_static()

    # --- matrix assembly ----------------------------------------------------

    def _build_static(self) -> None:
        """Order the nodes, then build the device arrays, the static part of
        the flat system buffer and the flat positions of the device stamps.

        The state vector holds the free nodes in band order, then the
        driven nodes in source order, then GND's pad.  The flat buffer
        holds the lower band of the free block (row ``i`` the ``i``-th
        subdiagonal, so a tridiagonal band's rows are the ``pttrf``
        vectors), the free×driven coupling block and the driven rows of G
        over the whole state vector, pad column included, in that order.
        """
        circuit, tech = self.circuit, self.tech
        free = circuit.free_nodes()
        nf = len(free)
        nd = len(self._sources)
        n = nf + nd
        mosfets = circuit.mosfets
        devices = [Transistor(m.kind, m.w_um) for m in mosfets]

        # Two-terminal stamps as (a, b, value); MOS parasitic capacitances
        # are part of the extracted network.
        c_elems = [(cap.a, cap.b, cap.c) for cap in circuit.capacitors]
        for mos, device in zip(mosfets, devices):
            c_elems += [(mos.gate, GND, device.c_gate(tech)),
                        (mos.drain, GND, device.c_drain(tech)),
                        (mos.source, GND, device.c_drain(tech))]
        g_elems = [(res.a, res.b, 1.0 / res.r)
                   for res in circuit.resistors]
        g_elems += [(node, GND, _GMIN) for node in free]
        g_elems += [(src.node, GND, _GMIN) for src in self._sources]
        channels = [(m.drain, m.source, 1.0) for m in mosfets]

        rank = {node: i for i, node in enumerate(free)}
        edges = [(rank[a], rank[b]) for a, b, _ in c_elems + g_elems
                 + channels if a in rank and b in rank]
        order = _band_order(nf, edges)
        position = np.empty(nf, dtype=np.intp)
        position[order] = np.arange(nf)
        kb = max((abs(int(position[a] - position[b])) for a, b in edges),
                 default=0)

        self._index: Dict[str, int] = {GND: -1}
        for node, pos in zip(free, position.tolist()):
            self._index[node] = pos
        for k, src in enumerate(self._sources):
            self._index[src.node] = nf + k
        self._n_free, self._n_all, self._kb = nf, n, kb
        n_band, n_coupling = (kb + 1) * nf, nf * nd
        size = n_band + n_coupling + nd * (n + 1)
        self._layout = (n_band, n_coupling, size)

        def entries(elems: Sequence[Tuple[str, str, float]]):
            """``(element, row, col, value)`` arrays of the elements' stamp
            entries; GND's row and column drop out."""
            table = np.array(
                [(k, row, col, sign * value)
                 for k, (a, b, value) in enumerate(elems)
                 for row, col, sign in _stamp_entries(self._index[a],
                                                      self._index[b])],
                dtype=np.float64).reshape(-1, 4)
            elem, row, col = table[:, :3].T.astype(np.intp)
            return elem, row, col, table[:, 3]

        def place(row: np.ndarray, col: np.ndarray) -> np.ndarray:
            """Flat buffer position of each entry; -1 in the band's upper
            triangle, which the factorizations do not read."""
            return np.where(
                row >= nf, n_band + n_coupling + (row - nf) * (n + 1) + col,
                np.where(col >= nf, n_band + row * nd + (col - nf),
                         np.where(row >= col, (row - col) * nf + col, -1)))

        def scatter(elems: Sequence[Tuple[str, str, float]]) -> np.ndarray:
            _, row, col, value = entries(elems)
            at = place(row, col)
            keep = at >= 0
            return np.bincount(at[keep], weights=value[keep],
                               minlength=size)

        self._g_static = scatter(g_elems)
        self._c_flat = scatter(c_elems)

        # The capacitor history term (C/dt) v_old of the free rows: the
        # diagonal as a vector, every other entry (coupling caps) as COO.
        _, row, col, value = entries(c_elems)
        diag = (row < nf) & (row == col)
        off = (row < nf) & (row != col)
        self._c_diag = np.bincount(row[diag], weights=value[diag],
                                   minlength=nf)
        self._c_off = (row[off], col[off], value[off])

        # The channel-conductance stamps as one scatter.
        dev, row, col, sign = entries(channels)
        at = place(row, col)
        keep = at >= 0
        self._stamp_at = at[keep]
        self._stamp_dev = dev[keep]
        self._stamp_sign = sign[keep]

        # Device arrays.  The terminal rows (gate, drain, source) index
        # the state vector, whose extra last slot is a pad held at 0 V:
        # GND's index -1 reads it.  The polarity is +1 for NMOS, -1 for
        # PMOS.
        self._terminals = np.array(
            [[self._index[node] for node in nodes] for nodes in
             ([m.gate for m in mosfets], [m.drain for m in mosfets],
              [m.source for m in mosfets])], dtype=np.intp).reshape(3, -1)
        self._polarity = np.array([1.0 if m.kind == NMOS else -1.0
                                   for m in mosfets])
        self._r_on = np.array([d.r_on(tech) for d in devices])

    @property
    def bandwidth(self) -> int:
        """Half-bandwidth ``kb`` of the ordered free block."""
        return self._kb

    def _device_law(self):
        """A function ``law(v, g)``: the device channel conductances at the
        padded state vector ``v``, written into ``g``.

        The gate drive is ``p v_g - min(p v_d, p v_s)`` with polarity
        ``p``: the gate over the lower channel terminal for NMOS, the
        higher channel terminal over the gate for PMOS.  The law then runs
        :func:`repro.tech.transistor.conductances`' operations in place,
        with ``max(., 0)`` for its ``drive <= v_th`` branch (``drive - v_th
        <= 0`` exactly then), so ``g`` equals it bit for bit.
        """
        terminals, r_on = self._terminals, self._r_on
        polarity = np.broadcast_to(self._polarity, terminals.shape).copy()
        tech = self.tech
        v_th = tech.v_th
        v_span = max(tech.v_sat_frac * tech.vdd - v_th, 1e-12)
        work = np.empty(terminals.shape)
        v_g, v_d, v_s = work

        def law(v: np.ndarray, g: np.ndarray) -> np.ndarray:
            v.take(terminals, out=work)
            np.multiply(work, polarity, out=work)
            np.minimum(v_d, v_s, out=v_d)
            np.subtract(v_g, v_d, out=g)
            g -= v_th
            g /= v_span
            np.minimum(g, 1.0, out=g)
            np.maximum(g, 0.0, out=g)
            g /= r_on
            return g

        return law

    # --- integration ----------------------------------------------------------

    def run(self, t_stop: float, dt: float,
            v_init: Optional[Dict[str, float]] = None,
            refactor_tol: float = 1e-3) -> TransientResult:
        """Integrate from 0 to ``t_stop`` with fixed step ``dt``.

        ``v_init`` supplies initial conditions for free nodes (default 0 V).
        Driven nodes start at their stimulus value at t=0.  The system
        matrix is refactorized when some device conductance moved by more
        than ``refactor_tol`` (finite, >= 0) times the largest one.
        Raises :class:`SimulationError` at the first step whose state is
        not finite.
        """
        if not (math.isfinite(t_stop) and math.isfinite(dt)
                and 0 < dt <= t_stop and math.isfinite(t_stop / dt)):
            raise SimulationError(
                f"need finite 0 < dt <= t_stop, got dt={dt!r}, "
                f"t_stop={t_stop!r}")
        if not (math.isfinite(refactor_tol) and refactor_tol >= 0):
            raise SimulationError(
                "refactor_tol must be finite and >= 0, got "
                f"{refactor_tol!r}")
        steps = int(round(t_stop / dt))
        n, nf, kb = self._n_all, self._n_free, self._kb
        n_band, n_coupling, size = self._layout
        nd = n - nf
        times = np.linspace(0.0, steps * dt, steps + 1)

        # One row per step: the state vector, GND's pad last.  Driven
        # columns are filled for the whole run up front, one call per
        # stimulus with a vector form.
        history = np.zeros((steps + 1, n + 1))
        if v_init:
            for node, value in v_init.items():
                idx = self._index.get(node)
                if idx is None:
                    raise SimulationError(f"unknown node {node!r} in v_init")
                if idx >= 0:
                    history[0, idx] = value
        for k, src in enumerate(self._sources):
            stimulus = src.stimulus
            if hasattr(stimulus, "sample"):
                history[:, nf + k] = stimulus.sample(times)
            elif callable(stimulus):
                history[:, nf + k] = [stimulus(t) for t in times.tolist()]
            else:
                history[:, nf + k] = stimulus
        _check_rows(history, times, 0, 1)

        n_a = n_band + n_coupling  # the entries of C/dt + G
        static = self._g_static.copy()
        static[:n_a] += self._c_flat[:n_a] / dt
        c_diag = self._c_diag / dt
        off_rows, off_cols, off_values = self._c_off
        off_values = off_values / dt
        i_out = np.zeros((steps + 1, nd))
        energy_history = np.empty((nd, steps + 1))
        law = self._device_law()
        g_mos, g_last = np.empty(len(self._r_on)), np.empty(len(self._r_on))
        checked = 0  # rows [0, checked] are finite

        # The state rows are checked every _BLOCK steps and at the end; the
        # error names the first non-finite row.  A NaN conductance fails
        # the refactor test, so every factorization sees finite entries.
        with np.errstate(all="ignore"):
            for step in range(1, steps + 1):
                prev, cur = history[step - 1], history[step]
                law(prev, g_mos)
                if step == 1 or (g_mos.size > 0 and np.maximum.reduce(
                        np.abs(g_mos - g_last)) > g_tol):
                    # Conductances are >= 0: the max is the largest one.
                    g_tol = refactor_tol * (g_mos.max(initial=0.0) + _GMIN)
                    buffer = static + np.bincount(
                        self._stamp_at,
                        weights=g_mos[self._stamp_dev] * self._stamp_sign,
                        minlength=size)
                    factor = lu_factor(buffer[:n_band].reshape(kb + 1, nf))
                    coupling = buffer[n_band:n_a].reshape(nf, nd)
                    g_rows = buffer[n_a:].reshape(nd, n + 1)
                    g_last, g_mos = g_mos, g_last

                # Free rows of the BE system, solved in place:
                #   A_ff v_new_f = (C/dt) v_old - A_fd v_new_d
                # where (C/dt) v_old spans ALL columns (the capacitor
                # history term from driven nodes included).
                rhs = cur[:nf]
                np.multiply(c_diag, prev[:nf], out=rhs)
                if off_rows.size:
                    rhs += np.bincount(off_rows,
                                       weights=off_values * prev[off_cols],
                                       minlength=nf)
                if nd:
                    rhs -= np.dot(coupling, cur[nf:n])
                lu_solve(factor, rhs)
                if nd:  # source currents: G_d v here, C_d dv/dt below
                    np.dot(g_rows, cur, out=i_out[step])
                if step - checked == _BLOCK:
                    _check_rows(history, times, checked + 1, step + 1)
                    checked = step
        _check_rows(history, times, checked + 1, steps + 1)

        # The driven rows of C dv/dt, a block of steps at a time.
        c_rows = self._c_flat[n_a:].reshape(nd, n + 1) / dt
        for lo in range(1, steps + 1, _BLOCK):
            hi = min(lo + _BLOCK, steps + 1)
            dv = history[lo:hi] - history[lo - 1:hi - 1]
            i_out[lo:hi] += dv @ c_rows.T

        # In place: run-length temporaries here fragmented the heap and
        # raised the peak RSS of a sequence of Table-1 runs by ~2 MB.
        charge = i_out.sum(axis=0) * dt
        i_out *= history[:, nf:n]
        i_out *= dt
        np.cumsum(i_out.T, axis=1, out=energy_history)

        voltages = {node: history[:, idx]
                    for node, idx in self._index.items() if idx >= 0}
        voltages[GND] = np.zeros(steps + 1)
        names = [src.name for src in self._sources]
        return TransientResult(times, voltages,
                               dict(zip(names, energy_history[:, -1])),
                               dict(zip(names, charge)),
                               dict(zip(names, energy_history)))


def _band_order(n: int, edges: Sequence[Tuple[int, int]]) -> List[int]:
    """Reverse Cuthill–McKee order of an ``n``-node graph: ``order[k]`` is
    the node placed at position ``k``.

    Each connected component is a breadth-first search from a
    pseudo-peripheral node (George–Liu: restart from the lowest-degree node
    of the last level while the depth grows), neighbours visited by
    ascending degree; ties break on node index, so the order is
    deterministic.
    """
    neighbours: List[set] = [set() for _ in range(n)]
    for a, b in edges:
        if a != b:
            neighbours[a].add(b)
            neighbours[b].add(a)
    degree = [len(adj) for adj in neighbours]
    adjacency = [sorted(adj, key=lambda j: (degree[j], j))
                 for adj in neighbours]

    def bfs(root: int) -> List[List[int]]:
        levels, seen = [[root]], {root}
        while True:
            nxt = []
            for node in levels[-1]:
                for j in adjacency[node]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            if not nxt:
                return levels
            levels.append(nxt)

    placed = [False] * n
    order: List[int] = []
    for root in sorted(range(n), key=lambda i: (degree[i], i)):
        if placed[root]:
            continue
        levels = bfs(root)
        while True:
            candidate = min(levels[-1], key=lambda i: (degree[i], i))
            deeper = bfs(candidate)
            if len(deeper) <= len(levels):
                break
            levels = deeper
        for level in levels:
            for node in level:
                placed[node] = True
                order.append(node)
    order.reverse()
    return order


def _stamp_entries(ia: int, ib: int) -> List[Tuple[int, int, float]]:
    """``(row, col, sign)`` entries of a two-terminal stamp between node
    indices ``ia`` and ``ib``; rows and columns of GND (-1) drop out."""
    entries = []
    if ia >= 0:
        entries.append((ia, ia, 1.0))
    if ib >= 0:
        entries.append((ib, ib, 1.0))
    if ia >= 0 and ib >= 0:
        entries += [(ia, ib, -1.0), (ib, ia, -1.0)]
    return entries


def _check_rows(history: np.ndarray, times: np.ndarray, lo: int,
                hi: int) -> None:
    """Raise :class:`SimulationError` at the first of the state rows
    ``[lo, hi)`` with a non-finite entry."""
    block = history[lo:hi]
    # The sum is finite when every entry is; only an overflowing sum of
    # finite entries needs the elementwise test to pass.
    if math.isfinite(block.sum()):
        return
    finite = np.isfinite(block).all(axis=1)
    if finite.all():
        return
    step = lo + int(np.argmin(finite))
    raise SimulationError(
        f"transient diverged: node voltages are not finite at step "
        f"{step} (t = {times[step]:.6g} s)")
