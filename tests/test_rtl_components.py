"""Functional tests for gate-level component generators.

Every generator is verified by elaborating a small module and simulating
it against the Python semantics of the function it implements.
"""

import itertools

import pytest

from repro.rtl import (
    LogicSimulator,
    Module,
    as_bus,
    and2,
    and_tree,
    buf,
    decoder,
    elaborate,
    inv,
    multiplier,
    mux2,
    nand2,
    onehot_mux,
    or2,
    or_tree,
    register,
    ripple_adder,
    xor2,
    xor_tree,
)
from repro.errors import RTLError


def _harness(build):
    """Create module with a clk input, run ``build(m)``, return module."""
    m = Module("dut")
    m.input("clk")
    build(m)
    return m


def _sim(m, stdlib):
    return LogicSimulator(elaborate(m, stdlib))


class TestGatePrimitives:
    """Each one-cell generator against its truth table."""

    @pytest.mark.parametrize("gen,arity,fn", [
        (inv, 1, lambda a: 1 - a),
        (buf, 1, lambda a: a),
        (and2, 2, lambda a, b: a & b),
        (or2, 2, lambda a, b: a | b),
        (nand2, 2, lambda a, b: 1 - (a & b)),
        (xor2, 2, lambda a, b: a ^ b),
        (mux2, 3, lambda a, b, sel: b if sel else a),
    ], ids=["inv", "buf", "and2", "or2", "nand2", "xor2", "mux2"])
    def test_truth_table(self, stdlib, gen, arity, fn):
        def build(m):
            ins = [m.input(f"i{k}") for k in range(arity)]
            m.alias(as_bus(m.output("y")), as_bus(gen(m, *ins)))
        m = _harness(build)
        sim = _sim(m, stdlib)
        for bits in itertools.product((0, 1), repeat=arity):
            for k, bit in enumerate(bits):
                sim.set_input(f"i{k}", bit)
            sim.settle()
            assert sim.get_output("y") == fn(*bits), bits


_TREES = {
    "and": (and_tree, lambda word, width: int(word == (1 << width) - 1)),
    "or": (or_tree, lambda word, width: int(word != 0)),
    "xor": (xor_tree, lambda word, width: bin(word).count("1") & 1),
}


class TestReductionTrees:
    """The balanced reductions take one to many levels of mixed-arity
    cells; widths are chosen so each tree ends on a partial group."""

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("kind", sorted(_TREES))
    def test_exhaustive(self, stdlib, kind, width):
        tree, fn = _TREES[kind]

        def build(m):
            a = as_bus(m.input("a", width))
            m.alias(as_bus(m.output("y")), as_bus(tree(m, list(a))))
        m = _harness(build)
        sim = _sim(m, stdlib)
        for word in range(1 << width):
            sim.set_input("a", word)
            sim.settle()
            assert sim.get_output("y") == fn(word, width), word

    @pytest.mark.parametrize("kind", sorted(_TREES))
    def test_empty_input_rejected(self, kind):
        tree, _ = _TREES[kind]
        with pytest.raises(RTLError):
            tree(Module("empty"), [])


class TestDecoder:
    @pytest.mark.parametrize("bits", [1, 2, 3, 5])
    def test_one_hot_for_every_code(self, stdlib, bits):
        def build(m):
            a = as_bus(m.input("a", bits))
            m.alias(m.output("y", 1 << bits), decoder(m, a))
        m = _harness(build)
        sim = _sim(m, stdlib)
        for code in range(1 << bits):
            sim.set_input("a", code)
            sim.settle()
            assert sim.get_output("y") == (1 << code)

    def test_enable_gates_all_outputs(self, stdlib):
        def build(m):
            a = as_bus(m.input("a", 2))
            en = m.input("en")
            m.alias(m.output("y", 4), decoder(m, a, en=en))
        m = _harness(build)
        sim = _sim(m, stdlib)
        sim.set_input("a", 2)
        sim.set_input("en", 0)
        sim.settle()
        assert sim.get_output("y") == 0
        sim.set_input("en", 1)
        sim.settle()
        assert sim.get_output("y") == 4


class TestMuxes:
    def test_onehot_mux_selects(self, stdlib):
        def build(m):
            options = [as_bus(m.input(f"d{i}", 4)) for i in range(4)]
            sel = as_bus(m.input("sel", 4))
            m.alias(m.output("y", 4), onehot_mux(m, options, sel))
        m = _harness(build)
        sim = _sim(m, stdlib)
        values = [3, 9, 12, 6]
        for i, v in enumerate(values):
            sim.set_input(f"d{i}", v)
        for i in range(4):
            sim.set_input("sel", 1 << i)
            sim.settle()
            assert sim.get_output("y") == values[i]


class TestArithmetic:
    def test_ripple_adder_exhaustive_4bit(self, stdlib):
        def build(m):
            a = as_bus(m.input("a", 4))
            b = as_bus(m.input("b", 4))
            total, cout = ripple_adder(m, a, b)
            m.alias(m.output("s", 4), total)
            m.alias(as_bus(m.output("co")), as_bus(cout))
        m = _harness(build)
        sim = _sim(m, stdlib)
        for x, y in itertools.product(range(16), repeat=2):
            sim.set_input("a", x)
            sim.set_input("b", y)
            sim.settle()
            got = sim.get_output("s") | (sim.get_output("co") << 4)
            assert got == x + y, (x, y)

    @pytest.mark.parametrize("wa,wb", [(2, 2), (3, 4), (4, 3)])
    def test_multiplier_exhaustive(self, stdlib, wa, wb):
        def build(m):
            a = as_bus(m.input("a", wa))
            b = as_bus(m.input("b", wb))
            m.alias(m.output("p", wa + wb), multiplier(m, a, b))
        m = _harness(build)
        sim = _sim(m, stdlib)
        for x in range(1 << wa):
            for y in range(1 << wb):
                sim.set_input("a", x)
                sim.set_input("b", y)
                sim.settle()
                assert sim.get_output("p") == x * y, (x, y)


class TestRegister:
    def test_dff_captures_on_clock(self, stdlib):
        def build(m):
            d = as_bus(m.input("d", 4))
            clk = m.ports["clk"].signal
            m.alias(m.output("q", 4), as_bus(register(m, d, clk)))
        m = _harness(build)
        sim = _sim(m, stdlib)
        sim.set_input("d", 9)
        sim.settle()
        assert sim.get_output("q") == 0  # not yet clocked
        sim.clock()
        assert sim.get_output("q") == 9

    def test_dffe_holds_without_enable(self, stdlib):
        def build(m):
            d = as_bus(m.input("d", 2))
            en = m.input("en")
            clk = m.ports["clk"].signal
            m.alias(m.output("q", 2),
                    as_bus(register(m, d, clk, en=en)))
        m = _harness(build)
        sim = _sim(m, stdlib)
        sim.set_input("d", 3)
        sim.set_input("en", 1)
        sim.clock()
        assert sim.get_output("q") == 3
        sim.set_input("d", 1)
        sim.set_input("en", 0)
        sim.clock()
        assert sim.get_output("q") == 3  # held
