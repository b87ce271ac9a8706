"""Event-driven logic simulation of elaborated netlists.

Plays the role Modelsim plays in the paper's flow: functional
verification of the synthesized design and generation of the switching
activity (.saif) that drives power analysis.  Two-valued simulation with
native behavioural models for brick macros (storage, 1R1W access, CAM
match) and flip-flops; combinational cells evaluate the gate-catalog
functions of their library model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import gate_type
from ..errors import SimulationError
from .module import FlatCell, FlatNetlist
from .signals import bits_to_int, int_to_bits


@dataclass
class Activity:
    """Switching-activity record (the .saif of the flow).

    ``toggles`` counts transitions per net; ``cell_ops`` counts named
    operations per cell (flop clocks, brick reads/writes/matches).
    ``cycles`` is the number of clock cycles simulated.
    """

    toggles: Dict[int, int] = field(default_factory=dict)
    cell_ops: Dict[str, Dict[str, int]] = field(default_factory=dict)
    cycles: int = 0

    def toggle_rate(self, net: int) -> float:
        """Average toggles per cycle for a net."""
        if self.cycles == 0:
            return 0.0
        return self.toggles.get(net, 0) / self.cycles

    def count_op(self, cell: str, op: str, n: int = 1) -> None:
        self.cell_ops.setdefault(cell, {}).setdefault(op, 0)
        self.cell_ops[cell][op] += n


class _BrickState:
    """Behavioural model of one brick macro instance."""

    def __init__(self, cell: FlatCell):
        self.cell = cell
        self.words: int = cell.model.attrs["words"] * \
            cell.model.attrs["stack"]
        self.bits: int = cell.model.attrs["bits"]
        self.memory_type: str = cell.model.attrs["memory_type"]
        self.storage: List[int] = [0] * self.words
        self.out_word = 0
        self.match_vector = 0
        self._buses: Dict[str, Tuple[int, ...]] = {}

    def pin_bus(self, base: str) -> Tuple[int, ...]:
        """Net ids of an expanded bus pin, LSB first (cached per base)."""
        nets = self._buses.get(base)
        if nets is None:
            found = []
            i = 0
            while f"{base}[{i}]" in self.cell.pins:
                found.append(self.cell.pins[f"{base}[{i}]"])
                i += 1
            nets = self._buses[base] = tuple(found)
        return nets


class LogicSimulator:
    """Two-valued, cycle-based simulator over a :class:`FlatNetlist`.

    Drive primary inputs with :meth:`set_input`, settle combinational
    logic with :meth:`settle` (implicit in :meth:`clock`), and advance
    sequential state with :meth:`clock`.  Activity is recorded per net
    and per cell operation.
    """

    def __init__(self, netlist: FlatNetlist, clock_port: str = "clk"):
        self.netlist = netlist
        self.clock_port = clock_port
        if clock_port not in netlist.inputs:
            raise SimulationError(
                f"netlist has no clock input {clock_port!r}")
        self.values: List[bool] = [False] * netlist.n_nets
        for net, value in netlist.constants.items():
            self.values[net] = value
        self.activity = Activity()
        self._comb_cells: List[FlatCell] = []
        self._flops: List[FlatCell] = []
        self._bricks: List[_BrickState] = []
        for cell in netlist.cells:
            if cell.model.is_brick:
                self._bricks.append(_BrickState(cell))
            elif cell.model.sequential:
                self._flops.append(cell)
            else:
                self._comb_cells.append(cell)
        self._levelize()

    def _levelize(self) -> None:
        """Topological order of combinational cells (loop check)."""
        deps: Dict[int, Set[int]] = {i: set()
                                     for i in range(len(self._comb_cells))}
        out_of: Dict[int, int] = {}
        for i, cell in enumerate(self._comb_cells):
            for pin, net in cell.pins.items():
                if cell.model.pins[cell.base_pin(pin)].direction == \
                        "output":
                    out_of[net] = i
        for i, cell in enumerate(self._comb_cells):
            for pin, net in cell.pins.items():
                if cell.model.pins[cell.base_pin(pin)].direction != \
                        "output" and net in out_of:
                    deps[i].add(out_of[net])
        indeg = {i: len(deps[i]) for i in deps}
        users: Dict[int, List[int]] = {}
        for i, ds in deps.items():
            for d in ds:
                users.setdefault(d, []).append(i)
        ready = [i for i, d in indeg.items() if d == 0]
        topo: List[int] = []
        while ready:
            i = ready.pop()
            topo.append(i)
            for u in users.get(i, []):
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
        if len(topo) != len(self._comb_cells):
            raise SimulationError(
                "combinational loop detected in netlist")
        # One (function, input getter, output net) per cell in
        # topological order, so settle() touches no catalog, pin dict or
        # arity check.  A getter returns the input values in pin order
        # (a 1-element slice for 1-input gates).
        self._comb_ops: List[Tuple[Callable[..., bool],
                                   Callable[[List[bool]], Sequence[bool]],
                                   int]] = []
        for i in topo:
            cell = self._comb_cells[i]
            gate = gate_type(cell.model.gate_name)
            ins = [cell.pins[pin] for pin in gate.pins]
            getter = itemgetter(*ins) if len(ins) > 1 else \
                itemgetter(slice(ins[0], ins[0] + 1))
            self._comb_ops.append((gate.func, getter, cell.pins["Y"]))

    # --- value access -----------------------------------------------------------

    def set_input(self, port: str, value: int) -> None:
        """Drive a primary input (integer, LSB-first bit expansion)."""
        try:
            nets = self.netlist.inputs[port]
        except KeyError as exc:
            raise SimulationError(f"no input port {port!r}") from exc
        bits = int_to_bits(value, len(nets))
        for net, bit in zip(nets, bits):
            self._set_net(net, bit)

    def get_output(self, port: str) -> int:
        try:
            nets = self.netlist.outputs[port]
        except KeyError as exc:
            raise SimulationError(f"no output port {port!r}") from exc
        return bits_to_int([self.values[n] for n in nets])

    def _set_net(self, net: int, value: bool) -> None:
        if self.values[net] != value:
            self.values[net] = value
            self.activity.toggles[net] = \
                self.activity.toggles.get(net, 0) + 1

    # --- evaluation ------------------------------------------------------------

    def settle(self) -> None:
        """Propagate combinational logic to a fixpoint (single pass over
        the topological order, which is exact for loop-free logic)."""
        values = self.values
        toggles = self.activity.toggles
        # Net values are always bools, so the catalog functions return
        # bools: no bool() wrapper needed.
        for func, inputs, out in self._comb_ops:
            value = func(*inputs(values))
            if values[out] != value:  # _set_net, inlined
                values[out] = value
                toggles[out] = toggles.get(out, 0) + 1

    def clock(self) -> None:
        """One rising clock edge: settle, capture sequential state,
        settle again."""
        self.settle()
        # Capture flops: next state from current D values.
        flop_next: List[Tuple[FlatCell, bool]] = []
        for cell in self._flops:
            gate = gate_type(cell.model.gate_name)
            d = self.values[cell.pins["D"]]
            if gate.name == "DFFE":
                en = self.values[cell.pins["EN"]]
                q = self.values[cell.pins["Y"]]
                flop_next.append((cell, d if en else q))
            else:
                flop_next.append((cell, d))
            self.activity.count_op(cell.name, "clock")
        brick_next: List[Tuple[_BrickState, Dict[str, int]]] = []
        for brick in self._bricks:
            brick_next.append((brick, self._brick_capture(brick)))
        for cell, q in flop_next:
            self._set_net(cell.pins["Y"], q)
        for brick, update in brick_next:
            self._brick_update(brick, update)
        self.activity.cycles += 1
        self.settle()

    # --- brick behaviour -----------------------------------------------------------

    def _onehot_index(self, brick: _BrickState, nets: Sequence[int],
                      what: str) -> Optional[int]:
        asserted = [i for i, n in enumerate(nets) if self.values[n]]
        if not asserted:
            return None
        if len(asserted) > 1:
            raise SimulationError(
                f"brick {brick.cell.name}: multiple {what} wordlines "
                f"asserted: {asserted}")
        return asserted[0]

    def _brick_capture(self, brick: _BrickState) -> Dict[str, int]:
        """Sample the brick's inputs at the clock edge."""
        cell = brick.cell
        update: Dict[str, int] = {}
        rwl = brick.pin_bus("RWL")
        wwl = brick.pin_bus("WWL")
        we_net = cell.pins.get("WE")
        we = self.values[we_net] if we_net is not None else False
        read_idx = self._onehot_index(brick, rwl, "read")
        if read_idx is not None:
            if read_idx >= brick.words:
                raise SimulationError(
                    f"brick {cell.name}: read index {read_idx} out of "
                    f"range")
            update["read"] = read_idx
            # Read-old-data on same-edge collision: sample at capture.
            update["rdata"] = brick.storage[read_idx]
        if we:
            write_idx = self._onehot_index(brick, wwl, "write")
            if write_idx is not None:
                wbl = brick.pin_bus("WBL")
                update["write"] = write_idx
                update["wdata"] = bits_to_int(
                    [self.values[n] for n in wbl])
        if brick.memory_type == "CAM":
            sl = brick.pin_bus("SL")
            if sl:
                update["search"] = bits_to_int(
                    [self.values[n] for n in sl])
        return update

    def _brick_update(self, brick: _BrickState,
                      update: Dict[str, int]) -> None:
        cell = brick.cell
        if "write" in update:
            brick.storage[update["write"]] = update["wdata"]
            self.activity.count_op(cell.name, "write")
        if "read" in update:
            brick.out_word = update["rdata"]
            self.activity.count_op(cell.name, "read")
            arbl = brick.pin_bus("ARBL")
            for net, bit in zip(arbl,
                                int_to_bits(brick.out_word, len(arbl))):
                self._set_net(net, bit)
        if "search" in update:
            key = update["search"]
            brick.match_vector = 0
            for w in range(brick.words):
                if brick.storage[w] == key:
                    brick.match_vector |= 1 << w
            self.activity.count_op(cell.name, "match")
            ml = brick.pin_bus("ML")
            for net, bit in zip(ml, int_to_bits(brick.match_vector,
                                                len(ml))):
                self._set_net(net, bit)
        self.activity.count_op(cell.name, "clock")

    # --- convenience -----------------------------------------------------------

    def brick_state(self, cell_name: str) -> List[int]:
        """Snapshot of a brick's storage (testing hook)."""
        for brick in self._bricks:
            if brick.cell.name == cell_name:
                return list(brick.storage)
        raise SimulationError(f"no brick instance {cell_name!r}")

    def load_brick(self, cell_name: str, words: Sequence[int]) -> None:
        """Preload a brick's storage (testbench backdoor)."""
        for brick in self._bricks:
            if brick.cell.name == cell_name:
                if len(words) > brick.words:
                    raise SimulationError("preload larger than brick")
                for i, word in enumerate(words):
                    brick.storage[i] = word
                return
        raise SimulationError(f"no brick instance {cell_name!r}")
