"""SpGEMM application: Fig. 5 architecture and Fig. 6 comparison."""

from .blocking import (
    BYTES_PER_NNZ,
    DEFAULT_BLOCK_COLS,
    ColumnBlock,
    column_blocks,
    stream_block,
    writeback_column,
)
from .cam_accelerator import AcceleratorRun, CAMSpGEMMAccelerator
from .cam_arch import CAMGeometry, HorizontalCAM, VerticalCAM
from .dram import DRAMChannel, DRAMConfig
from .energy import (
    HEAP_FREQ_HZ,
    HEAP_POWER_W,
    LIM_FREQ_HZ,
    LIM_POWER_W,
    ChipEnergyModel,
    estimated_frequencies,
    heap_energy_model,
    lim_energy_model,
)
from .heap_accelerator import FIFOPriorityQueue, HeapSpGEMMAccelerator
from .reference import (
    multiply_work,
    spgemm_dense_check,
    spgemm_gustavson,
)
from .sparse import CSCMatrix, random_sparse
from .stats import WorkloadStats, analyze_workload
from .workloads import (
    Workload,
    banded,
    benchmark_suite,
    block_diagonal_dense,
    erdos_renyi,
    mesh_2d,
    power_law,
)

__all__ = [
    "BYTES_PER_NNZ", "DEFAULT_BLOCK_COLS", "ColumnBlock",
    "column_blocks", "stream_block", "writeback_column",
    "AcceleratorRun", "CAMSpGEMMAccelerator",
    "CAMGeometry", "HorizontalCAM", "VerticalCAM",
    "DRAMChannel", "DRAMConfig",
    "HEAP_FREQ_HZ", "HEAP_POWER_W", "LIM_FREQ_HZ", "LIM_POWER_W",
    "ChipEnergyModel", "estimated_frequencies", "heap_energy_model",
    "lim_energy_model",
    "FIFOPriorityQueue", "HeapSpGEMMAccelerator",
    "multiply_work", "spgemm_dense_check", "spgemm_gustavson",
    "CSCMatrix", "random_sparse",
    "WorkloadStats", "analyze_workload",
    "Workload", "banded", "benchmark_suite", "block_diagonal_dense",
    "erdos_renyi", "mesh_2d", "power_law",
]
