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
small steps used).  The Jacobian is refactorized only when a device
conductance moved materially, which makes the quiescent majority of each
transient cheap.

Each step is array operations over fixed device arrays built once per
simulator: terminal indices (GND reads a pad slot held at 0 V), a polarity
mask and per-device ``r_on``.  Gate drives and conductances
(:func:`repro.tech.transistor.conductances`) are one numpy expression over
all devices.  A refactorization stamps the conductances into G with one
precomputed ``np.add.at`` scatter and slices out the free×driven coupling
block and the driven rows of G; steps in between reuse them.

Output bits are a contract: they equal a device-by-device evaluation of
the same scheme.  The device law runs the scalar
:meth:`~repro.tech.transistor.Transistor.conductance`'s IEEE operations in
the same order, the scatter accumulates each G entry in device order, the
LU is dense with a fixed refactor rule, and each source current is its
own pair of 1-D dot products (a matrix-vector product over all driven
rows could sum in another order).  Table 1's reference numbers and the
goldens in ``tests/test_circuit_netlist_spice.py`` pin the contract.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs

from ..errors import SimulationError
from ..tech.technology import Technology
from ..tech.transistor import NMOS, Transistor, conductances
from .netlist import GND, SpiceCircuit
from .waveform import Waveform

_GMIN = 1e-12  # universal leak conductance for numerical conditioning

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


def lu_factor(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense LU factors of ``a`` (LAPACK ``getrf``, 0-based pivots).

    Warns, as :func:`scipy.linalg.lu_factor` does, when a pivot is exactly
    zero.
    """
    if a.size == 0:
        return np.empty_like(a), np.zeros(0, dtype=np.int32)
    lu, piv, info = _getrf(a)
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. "
                      "Singular matrix.", LinAlgWarning, stacklevel=2)
    return lu, piv


def lu_solve(lu_piv: Tuple[np.ndarray, np.ndarray],
             b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` from :func:`lu_factor`'s factors (``getrs``)."""
    lu, piv = lu_piv
    if b.size == 0:
        return b.copy()
    x, _ = _getrs(lu, piv, b, overwrite_b=True)
    return x


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

    def total_supply_energy(self) -> float:
        """Energy delivered by all sources with positive net delivery."""
        return sum(e for e in self.source_energy.values() if e > 0)


class TransientSimulator:
    """Backward-Euler transient simulator over a :class:`SpiceCircuit`."""

    def __init__(self, circuit: SpiceCircuit, tech: Technology):
        circuit.validate()
        self.circuit = circuit
        self.tech = tech
        self._free = circuit.free_nodes()
        self._driven = circuit.driven_nodes()
        self._index: Dict[str, int] = {GND: -1}
        all_nodes = self._free + sorted(self._driven)
        for i, node in enumerate(all_nodes):
            self._index[node] = i
        self._n_free = len(self._free)
        self._n_all = len(all_nodes)
        self._sources = [self._driven[node] for node in sorted(self._driven)]
        self._driven_idx = np.array(
            [self._index[src.node] for src in self._sources], dtype=np.intp)
        self._build_static()

    # --- matrix assembly ----------------------------------------------------

    def _build_static(self) -> None:
        """Assemble the constant C matrix, the static part of G and the
        device arrays the step loop evaluates and stamps."""
        n = self._n_all
        self._cmat = np.zeros((n, n))
        self._gstatic = np.zeros((n, n))
        np.fill_diagonal(self._gstatic, _GMIN)

        def stamp(mat: np.ndarray, a: str, b: str, value: float) -> None:
            for row, col, sign in _stamp_entries(self._index[a],
                                                 self._index[b]):
                mat[row, col] += sign * value

        for cap in self.circuit.capacitors:
            stamp(self._cmat, cap.a, cap.b, cap.c)
        for res in self.circuit.resistors:
            stamp(self._gstatic, res.a, res.b, 1.0 / res.r)

        # MOS parasitic capacitances are part of the extracted network.
        mosfets = self.circuit.mosfets
        devices = [Transistor(m.kind, m.w_um) for m in mosfets]
        for mos, device in zip(mosfets, devices):
            stamp(self._cmat, mos.gate, GND, device.c_gate(self.tech))
            stamp(self._cmat, mos.drain, GND, device.c_drain(self.tech))
            stamp(self._cmat, mos.source, GND, device.c_drain(self.tech))

        # Device arrays.  Terminal indices point into the state vector,
        # whose extra last slot is a pad held at 0 V: GND's index -1
        # reads it.
        def terminals(node_of) -> np.ndarray:
            return np.array([self._index[node_of(m)] for m in mosfets],
                            dtype=np.intp)

        self._gate = terminals(lambda m: m.gate)
        self._drain = terminals(lambda m: m.drain)
        self._source = terminals(lambda m: m.source)
        self._is_nmos = np.array([m.kind == NMOS for m in mosfets],
                                 dtype=bool)
        self._r_on = np.array([d.r_on(self.tech) for d in devices])

        # The channel-conductance stamp as one scatter, its entries in
        # device order so every G entry accumulates in that order.
        rows, cols, dev, signs = [], [], [], []
        for k, mos in enumerate(mosfets):
            for row, col, sign in _stamp_entries(self._index[mos.drain],
                                                 self._index[mos.source]):
                rows.append(row)
                cols.append(col)
                dev.append(k)
                signs.append(sign)
        self._stamp_at = (np.array(rows, dtype=np.intp),
                          np.array(cols, dtype=np.intp))
        self._stamp_dev = np.array(dev, dtype=np.intp)
        self._stamp_sign = np.array(signs)

    def _drives(self, v: np.ndarray) -> np.ndarray:
        """Per-device gate drive at the padded state vector ``v``: gate
        over the lower channel terminal for NMOS, the higher channel
        terminal over the gate for PMOS."""
        v_g = v[self._gate]
        v_d = v[self._drain]
        v_s = v[self._source]
        return np.where(self._is_nmos, v_g - np.minimum(v_d, v_s),
                        np.maximum(v_d, v_s) - v_g)

    # --- integration ----------------------------------------------------------

    def run(self, t_stop: float, dt: float,
            v_init: Optional[Dict[str, float]] = None,
            refactor_tol: float = 1e-3) -> TransientResult:
        """Integrate from 0 to ``t_stop`` with fixed step ``dt``.

        ``v_init`` supplies initial conditions for free nodes (default 0 V).
        Driven nodes start at their stimulus value at t=0.  Raises
        :class:`SimulationError` at the first step whose state is not
        finite.
        """
        if t_stop <= 0 or dt <= 0 or dt > t_stop:
            raise SimulationError("need 0 < dt <= t_stop")
        steps = int(round(t_stop / dt))
        n, nf = self._n_all, self._n_free
        sources, driven_idx = self._sources, self._driven_idx
        v = np.zeros(n + 1)  # v[-1] is GND's pad
        if v_init:
            for node, value in v_init.items():
                idx = self._index.get(node)
                if idx is None:
                    raise SimulationError(f"unknown node {node!r} in v_init")
                if idx >= 0:
                    v[idx] = value
        for src, idx in zip(sources, driven_idx):
            v[idx] = src.value(0.0)

        times = np.linspace(0.0, steps * dt, steps + 1)
        history = np.empty((steps + 1, n))
        history[0] = v[:n]
        _check_finite(v, 0, 0.0)

        c_over_dt = self._cmat / dt
        c_free = c_over_dt[:nf]
        c_rows = [self._cmat[idx] for idx in driven_idx]
        i_out = np.empty(len(sources))
        charge = np.zeros(len(sources))
        energy = np.zeros(len(sources))
        energy_history = np.zeros((len(sources), steps + 1))

        g_last = None
        lu = None
        for step in range(1, steps + 1):
            t_now = times[step]
            g_mos = conductances(self._drives(v), self._r_on, self.tech)
            needs_factor = lu is None or (
                g_mos.size > 0
                and np.abs(g_mos - g_last).max() >
                refactor_tol * (np.abs(g_last).max() + _GMIN)
            )
            if needs_factor:
                g_full = self._gstatic.copy()
                np.add.at(g_full, self._stamp_at,
                          g_mos[self._stamp_dev] * self._stamp_sign)
                a_full = c_over_dt + g_full
                lu = lu_factor(a_full[:nf, :nf])
                coupling = a_full[:nf, nf:].copy()
                g_rows = [g_full[idx] for idx in driven_idx]
                g_last = g_mos

            # Free rows of the BE system:
            #   A_ff v_new_f = (C/dt) v_old - A_fd v_new_d
            # where (C/dt) v_old spans ALL columns (the capacitor history
            # term from driven nodes included).
            v_old = v
            v = v_old.copy()
            v_driven = np.array([src.value(t_now) for src in sources])
            v[driven_idx] = v_driven
            rhs = c_free @ v_old[:n]
            if sources:
                rhs -= coupling @ v_driven
            v[:nf] = lu_solve(lu, rhs)
            _check_finite(v, step, t_now)

            # Source current bookkeeping: i_out = (C dv/dt + G v)_row.
            v_now = v[:n]
            dv_dt = (v_now - v_old[:n]) / dt
            for k, (row_c, row_g) in enumerate(zip(c_rows, g_rows)):
                i_out[k] = row_c @ dv_dt + row_g @ v_now
            charge += i_out * dt
            energy += i_out * v_driven * dt
            energy_history[:, step] = energy
            history[step] = v_now

        voltages = {}
        for node, idx in self._index.items():
            if idx >= 0:
                voltages[node] = history[:, idx]
        voltages[GND] = np.zeros(steps + 1)
        names = [src.name for src in sources]
        return TransientResult(times, voltages, dict(zip(names, energy)),
                               dict(zip(names, charge)),
                               dict(zip(names, energy_history)))


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


def _check_finite(v: np.ndarray, step: int, t: float) -> None:
    if not np.isfinite(v).all():
        raise SimulationError(
            f"transient diverged: node voltages are not finite at step "
            f"{step} (t = {t:.6g} s)")
