"""Cell substrate: bitcells, brick leaf cells, standard-cell library."""

from .bitcells import (
    CAM_10T,
    DUAL_PORT_8T,
    EDRAM_1T1C,
    MEMORY_TYPES,
    SRAM_6T,
    SRAM_8T,
    Bitcell,
    make_bitcell,
)
from .leafcells import (
    ControlBlock,
    LocalSense,
    WordlineDriver,
    build_inverter,
    inverter_widths,
)
from .stdcells import (
    DEFAULT_DRIVES,
    cell_name,
    make_stdcell,
    make_stdcell_library,
    unit_input_cap,
)

__all__ = [
    "CAM_10T", "DUAL_PORT_8T", "EDRAM_1T1C", "MEMORY_TYPES", "SRAM_6T",
    "SRAM_8T", "Bitcell", "make_bitcell",
    "ControlBlock", "LocalSense", "WordlineDriver", "build_inverter",
    "inverter_widths",
    "DEFAULT_DRIVES", "cell_name", "make_stdcell", "make_stdcell_library",
    "unit_input_cap",
]
