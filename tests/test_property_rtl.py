"""Property-based tests: RTL generators vs Python semantics, SRAM vs
reference memory model."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rtl import LogicSimulator, Module, as_bus, elaborate, \
    multiplier, ripple_adder

_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[
                         HealthCheck.too_slow,
                         HealthCheck.function_scoped_fixture])


class TestArithmeticEquivalence:
    @given(width=st.integers(2, 5), data=st.data())
    @_settings
    def test_adder_random_operands(self, width, data, stdlib):
        x = data.draw(st.integers(0, (1 << width) - 1))
        y = data.draw(st.integers(0, (1 << width) - 1))
        m = Module("add")
        m.input("clk")
        a = as_bus(m.input("a", width))
        b = as_bus(m.input("b", width))
        total, cout = ripple_adder(m, a, b)
        m.alias(m.output("s", width), total)
        m.alias(as_bus(m.output("co")), as_bus(cout))
        sim = LogicSimulator(elaborate(m, stdlib))
        sim.set_input("a", x)
        sim.set_input("b", y)
        sim.settle()
        assert sim.get_output("s") | (sim.get_output("co") << width) \
            == x + y

    @given(wa=st.integers(2, 4), wb=st.integers(2, 4), data=st.data())
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[
                  HealthCheck.too_slow,
                  HealthCheck.function_scoped_fixture])
    def test_multiplier_random_operands(self, wa, wb, data, stdlib):
        x = data.draw(st.integers(0, (1 << wa) - 1))
        y = data.draw(st.integers(0, (1 << wb) - 1))
        m = Module("mul")
        m.input("clk")
        a = as_bus(m.input("a", wa))
        b = as_bus(m.input("b", wb))
        m.alias(m.output("p", wa + wb), multiplier(m, a, b))
        sim = LogicSimulator(elaborate(m, stdlib))
        sim.set_input("a", x)
        sim.set_input("b", y)
        sim.settle()
        assert sim.get_output("p") == x * y


class TestSramAgainstModel:
    @given(ops=st.lists(st.tuples(st.integers(0, 31),
                                  st.integers(0, 31),
                                  st.integers(0, 1023), st.booleans()),
                        min_size=1, max_size=60))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[
                  HealthCheck.too_slow,
                  HealthCheck.function_scoped_fixture])
    def test_fig3_sram_random_traffic(self, ops, fig3_library):
        from repro.rtl import fig3_sram
        module, _ = fig3_sram()
        sim = LogicSimulator(elaborate(module, fig3_library))
        model = {}
        for ra, wa, di, we in ops:
            sim.set_input("raddr", ra)
            sim.set_input("waddr", wa)
            sim.set_input("din", di)
            sim.set_input("we", int(we))
            sim.clock()
            expect = model.get(ra)
            if expect is not None:
                assert sim.get_output("dout") == expect
            if we:
                model[wa] = di
