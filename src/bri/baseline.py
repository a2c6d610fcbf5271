"""Dense LU baseline: the oracle the recursive engine is validated against.

Inverts the whole order-m matrix in one factorization, the opposite memory
profile of the recursive path: everything resident at once. Reuses the
block arithmetic at order m, so the baseline peak is two m-by-m buffers
(the resident input, and a working copy that becomes the inverse), the
peak ``bri invert --method lu`` and ``bri bench`` report.
"""

from __future__ import annotations

import numpy as np

from .core import Workspace, invert_dense

__all__ = ["lu_invert_full"]


def lu_invert_full(a: np.ndarray) -> np.ndarray:
    """Dense inverse via LU with partial pivoting. Input left intact.

    A non-square or order-0 input raises DimensionMismatchError, and a
    singular matrix SingularBlockError of order m.
    """
    ws = Workspace()
    work = ws.from_array(a)  # inverted in place, input stays untouched
    inverse = work.data
    try:
        invert_dense(work)
    finally:
        work.release()
    return inverse

