"""Structural RTL substrate: modules, generators, memories, simulation."""

from .components import (
    and2,
    and_tree,
    buf,
    decoder,
    full_adder,
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
from .ecc import (
    DecodeResult,
    build_secded_decoder,
    build_secded_encoder,
    secded_decode,
    secded_encode,
    secded_parity_bits,
)
from .memory import build_cam, build_sram, fig3_sram
from .module import (
    CellRef,
    FlatCell,
    FlatNetlist,
    Module,
    Port,
    elaborate,
)
from .signals import Bus, Net, as_bus, bits_to_int, int_to_bits
from .simulate import Activity, LogicSimulator
from .spgemm_datapath import build_update_datapath, \
    update_datapath_reference
from .verilog import emit_module

__all__ = [
    "and2", "and_tree", "buf", "decoder", "full_adder", "inv",
    "multiplier", "mux2", "nand2", "onehot_mux", "or2", "or_tree",
    "register", "ripple_adder", "xor2", "xor_tree",
    "DecodeResult", "build_secded_decoder", "build_secded_encoder",
    "secded_decode", "secded_encode", "secded_parity_bits",
    "build_cam", "build_sram", "fig3_sram",
    "CellRef", "FlatCell", "FlatNetlist", "Module", "Port",
    "elaborate",
    "Bus", "Net", "as_bus", "bits_to_int", "int_to_bits",
    "Activity", "LogicSimulator",
    "build_update_datapath", "update_datapath_reference",
    "emit_module",
]
