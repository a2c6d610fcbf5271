"""Dense LU baseline: the oracle the recursive engine is validated against.

Inverts the whole order-m matrix in one factorization, the opposite memory
profile of the recursive path: everything resident at once. Reuses the
block arithmetic at order m, so the baseline peak is two m-by-m buffers
(the resident input, and a working copy that becomes the inverse).
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
    work = ws.from_array(a)  # inverted in place, input stays untouched
    try:
        invert_dense(work)
    except SingularBlockError as e:
        raise SingularMatrixError(e.pivot_index, a.shape[0]) from e
    finally:
        work.release()
    return work.data


def bench_lu(a: np.ndarray, seed: int) -> tuple[np.ndarray, BenchRecord]:
    """Time one dense inversion and account its peak bytes.

    Peak is two order-m buffers: the resident input and the working copy
    that becomes its inverse.
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
        peak_bytes=2 * 8 * m * m,
        n_block_inv=1,
        n_block_mul=0,
        seed=seed,
    )
    return inv, record
