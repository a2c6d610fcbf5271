"""Block recursive inversion of large partitioned matrices.

Compute any single b-by-b block of the inverse of a nonsingular order-m
matrix, partitioned into k-by-k blocks, without ever materializing the
matrix or its inverse: the recursion touches blocks through a provider
(in-memory, file-backed, or kernel-generated) and keeps only a handful of
block buffers alive. A dense LU baseline, operation counters, a memory
gauge, and a benchmark harness round out the package.
"""

from .baseline import lu_invert_full
from .core import Block, MemoryGauge, OpCounters, Workspace, invert_dense, multiply, subtract
from .engine import (
    BranchPath,
    Frame,
    Quadrant,
    invert_block,
    invert_full,
    predicted_counts,
    reduce_frame,
    root_frame,
    split_frame,
)
from .errors import (
    BadPartitionError,
    BriError,
    DimensionMismatchError,
    FormatError,
    GaugeUnderflowError,
    IndexOutOfRangeError,
    MissingBlocksError,
    SingularBlockError,
    SingularPivotError,
    UsageError,
)
from .formats import (
    BrimReader,
    BrimSink,
    MemorySink,
    read_matrix,
    write_matrix,
)
from .providers import (
    BlockLayout,
    BlockProvider,
    KernelSpec,
    kernel_matrix,
    make_file_provider,
    make_kernel_provider,
    make_memory_provider,
)

__version__ = "0.1.0"
