"""Block recursive inversion of large partitioned matrices.

Compute any single b-by-b block of the inverse of a nonsingular order-m
matrix, partitioned into k-by-k blocks, without ever materializing the
matrix or its inverse: the recursion touches blocks through a provider
(in-memory, file-backed, or kernel-generated) and keeps only a handful of
block buffers alive. A dense LU baseline, operation counters, a memory
gauge, and a benchmark harness round out the package.
"""

from .baseline import MATERIALIZE_LIMIT, bench_lu, lu_invert_full, materialize
from .core import Block, Workspace, invert_dense, multiply, subtract
from .engine import (
    BranchPath,
    Frame,
    InversionSummary,
    Quadrant,
    frame_at,
    invert_block,
    invert_full,
    reduce_frame,
    root_frame,
    schur_eliminate,
    split_frame,
)
from .errors import (
    BadPartitionError,
    BriError,
    DimensionMismatchError,
    FormatError,
    FrameTooSmallError,
    GaugeUnderflowError,
    IndexOutOfRangeError,
    MaterializeLimitError,
    MissingBlocksError,
    SingularBlockError,
    SingularMatrixError,
    SingularPivotError,
    UsageError,
)
from .formats import (
    CSV_COLUMNS,
    BrimHeader,
    BrimReader,
    BrimSink,
    MemorySink,
    read_bench_csv,
    read_header,
    read_matrix,
    write_bench_csv,
    write_matrix,
)
from .instrumentation import BenchRecord, MemoryGauge, OpCounters, gauge_scope, predicted_counts
from .providers import (
    BlockLayout,
    BlockProvider,
    KernelSpec,
    kernel_matrix,
    make_file_provider,
    make_kernel_provider,
    make_memory_provider,
    permute_provider,
)

__version__ = "0.1.0"
