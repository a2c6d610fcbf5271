"""Dense LU baseline: the oracle the recursive engine is validated against.

Inverts the whole order-m matrix in one factorization, the opposite memory
profile of the recursive path: everything resident at once. Reuses the
block arithmetic at order m, so the baseline peak is three m-by-m buffers
(resident input, factorization workspace, output).
"""

from __future__ import annotations

import time

import numpy as np

from .core import Workspace, invert_dense
from .errors import DimensionMismatchError, SingularBlockError, SingularMatrixError
from .instrumentation import BenchRecord

__all__ = ["lu_invert_full", "bench_lu", "MATERIALIZE_LIMIT"]

# The largest input order `bri verify` accepts: it holds the input, its
# dense LU inverse and the candidate at once.
MATERIALIZE_LIMIT = 4096


def lu_invert_full(a: np.ndarray) -> np.ndarray:
    """Dense inverse via LU with partial pivoting. Input left intact."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got shape {a.shape}")
    ws = Workspace()
    work = ws.from_array(a)  # factorization scratch, input stays untouched
    try:
        inv = invert_dense(work)
    except SingularBlockError as e:
        raise SingularMatrixError(e.pivot_index, a.shape[0]) from e
    finally:
        work.release()
    out = inv.data
    inv.release()
    return out


def bench_lu(a: np.ndarray, seed: int) -> tuple[np.ndarray, BenchRecord]:
    """Time one dense inversion and account its peak bytes.

    Peak is three order-m buffers: the resident input, the factorization
    workspace copy, and the output.
    """
    m = a.shape[0]
    t0 = time.perf_counter()
    inv = lu_invert_full(a)
    wall_ms = (time.perf_counter() - t0) * 1e3
    record = BenchRecord(
        method="lu",
        m=m,
        k=1,
        wall_ms=wall_ms,
        peak_bytes=3 * 8 * m * m,
        n_block_inv=1,
        n_block_mul=0,
        seed=seed,
    )
    return inv, record
