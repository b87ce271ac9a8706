"""Tests for the gate catalog and logical-effort engine."""

import itertools
import math

import pytest

from repro.circuit import gate_type, parasitic_inv
from repro.circuit.logical_effort import buffer_chain_batch, \
    optimal_stage_effort
from repro.errors import NetlistError, SizingError


class TestCatalog:
    def test_inverter_reference_values(self):
        inv = gate_type("INV")
        assert inv.g["A"] == 1.0
        assert inv.p == 1.0

    def test_nand_efforts_follow_formula(self):
        for k in (2, 3, 4):
            gate = gate_type(f"NAND{k}")
            assert gate.g["A"] == pytest.approx((k + 2) / 3)

    def test_nor_worse_than_nand(self):
        assert gate_type("NOR2").g["A"] > gate_type("NAND2").g["A"]

    def test_unknown_gate_raises(self):
        with pytest.raises(NetlistError):
            gate_type("NAND9")

    def test_every_function_truth_table(self):
        expectations = {
            "INV": lambda a: not a,
            "NAND2": lambda a, b: not (a and b),
            "NOR2": lambda a, b: not (a or b),
            "AND2": lambda a, b: a and b,
            "OR2": lambda a, b: a or b,
            "XOR2": lambda a, b: a != b,
            "XNOR2": lambda a, b: a == b,
            "AOI21": lambda a, b, c: not ((a and b) or c),
            "OAI21": lambda a, b, c: not ((a or b) and c),
            "MUX2": lambda a, b, s: b if s else a,
        }
        for name, func in expectations.items():
            gate = gate_type(name)
            for combo in itertools.product(
                    (False, True), repeat=len(gate.pins)):
                assert gate.evaluate(combo) == func(*combo), \
                    f"{name}{combo}"

    def test_evaluate_arity_checked(self):
        with pytest.raises(NetlistError):
            gate_type("NAND2").evaluate([True])

    def test_sequential_cells_marked(self):
        assert gate_type("DFF").sequential
        assert not gate_type("NAND2").sequential


class TestLogicalEffort:
    def test_optimal_stage_effort_fixed_point(self):
        rho = optimal_stage_effort(1.0)
        assert rho == pytest.approx(3.59, abs=0.01)
        assert rho == pytest.approx(math.exp(1.0 + 1.0 / rho), rel=1e-12)
        assert optimal_stage_effort(1.0) is rho  # memoized

    def test_buffer_chain_tapers_geometrically(self, tech):
        caps, n = buffer_chain_batch([1e-15], [64e-15], tech)
        caps = caps[0, :n[0]].tolist()
        ratios = [caps[i + 1] / caps[i] for i in range(len(caps) - 1)]
        for r in ratios:
            assert r == pytest.approx(ratios[0], rel=1e-6)

    def test_buffer_chain_stage_count_grows_with_effort(self, tech):
        _, n = buffer_chain_batch([1e-15] * 3, [2e-15, 60e-15, 1e-12],
                                     tech)
        assert n.tolist() == sorted(n.tolist())
        assert n[0] == 1 < n[2]

    def test_buffer_chain_parity_forcing(self, tech):
        loads = [2e-15, 20e-15, 64e-15, 300e-15, 1e-12]
        _, free = buffer_chain_batch([1e-15] * 5, loads, tech)
        _, odd = buffer_chain_batch([1e-15] * 5, loads, tech,
                                       parity="odd")
        _, even = buffer_chain_batch([1e-15] * 5, loads, tech,
                                        parity="even")
        assert (odd % 2 == 1).all() and (even % 2 == 0).all()
        assert ((odd - free) <= 1).all() and ((even - free) <= 1).all()

    def test_buffer_chain_fanout_below_one(self, tech):
        _, n = buffer_chain_batch([4e-15], [2e-15], tech)
        assert n.tolist() == [1]
        assert 0 < parasitic_inv(tech) < 3

    def test_buffer_chain_rejects_bad_caps(self, tech):
        with pytest.raises(SizingError):
            buffer_chain_batch([0.0], [1e-15], tech)
        with pytest.raises(SizingError):
            buffer_chain_batch([1e-15], [1e-15], tech, parity="three")
