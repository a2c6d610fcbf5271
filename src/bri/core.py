"""Dense b-by-b block arithmetic with explicit buffer accounting.

All elements are float64 and every block buffer is a C-contiguous (b, b)
ndarray owned by a :class:`Block`. Buffers are registered with a
:class:`~bri.instrumentation.MemoryGauge` at allocation and deregistered by
an explicit ``release()``, so peak-memory assertions are deterministic
rather than GC-dependent.

Design notes
------------
* Operations are free functions matching the operand vocabulary:
  ``multiply``, ``subtract``, ``invert_dense``. A result
  block joins the workspace of its first operand.
* ``invert_dense`` factors in place over the input buffer (the input's
  contents are unspecified afterwards) so a single inversion keeps at most
  the input plus the result alive. The factorization runs on the
  transposed view, which is Fortran-contiguous for a C-ordered buffer, so
  LAPACK works truly in place; solving against identity columns with
  trans=0 then lands the inverse directly in row-major order.
* ``multiply`` calls scipy's ``dgemm`` rather than numpy's ``@``, so every
  BLAS and LAPACK call runs on the one OpenBLAS that scipy links. numpy
  bundles a second OpenBLAS with its own thread pool; alternating between
  the two makes each pool's idle threads spin against the other's work.
* Singularity is a growth-scaled pivot test: |u_ii| <= b * eps * max|A|.
  LAPACK wrapper scratch is not block-buffer accounting; the gauge counts
  engine-managed buffers only.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DimensionMismatchError, GaugeUnderflowError, SingularBlockError
from .instrumentation import MemoryGauge, OpCounters

__all__ = [
    "Block",
    "Workspace",
    "multiply",
    "subtract",
    "invert_dense",
]

_EPS = float(np.finfo(np.float64).eps)


class Workspace:
    """Allocation context: one op-counter tally plus one memory gauge.

    Create one per inversion run; merge counters afterwards if several
    runs need a combined tally. Not shared mutable state: concurrent runs
    each get their own workspace.
    """

    __slots__ = ("counters", "gauge")

    def __init__(self, counters: OpCounters | None = None, gauge: MemoryGauge | None = None):
        self.counters = counters if counters is not None else OpCounters()
        self.gauge = gauge if gauge is not None else MemoryGauge()

    def from_array(self, a) -> "Block":
        """Allocate a block from a copy of array-like data."""
        return Block(np.array(a, dtype=np.float64, order="C"), self)


class Block:
    """One square float64 block plus its accounting hooks.

    The buffer registers with the workspace gauge on construction and must
    be released exactly once; a second release raises GaugeUnderflowError.
    """

    __slots__ = ("data", "_ws", "_released")

    def __init__(self, buf: np.ndarray, ws: Workspace | None = None):
        if buf.ndim != 2 or buf.shape[0] != buf.shape[1]:
            raise DimensionMismatchError(f"block buffer must be square, got {buf.shape}")
        # Blocks own writable scratch: in-place subtract and the in-place
        # factorization inside invert_dense write through this buffer.
        if (
            buf.dtype != np.float64
            or not buf.flags["C_CONTIGUOUS"]
            or not buf.flags.writeable
            or not buf.flags.owndata
        ):
            buf = np.array(buf, dtype=np.float64, order="C")
        self.data = buf
        self._ws = ws
        self._released = False
        if ws is not None:
            ws.gauge.on_alloc()

    @property
    def order(self) -> int:
        return self.data.shape[0]

    @property
    def workspace(self) -> Workspace | None:
        return self._ws

    def release(self) -> None:
        """Deregister this block's buffer from the gauge."""
        if self._released:
            raise GaugeUnderflowError("block released twice")
        self._released = True
        if self._ws is not None:
            self._ws.gauge.on_release()

    def __repr__(self) -> str:  # pragma: no cover
        state = "released" if self._released else "live"
        return f"Block(order={self.order}, {state})"


def _require_same_order(x: Block, y: Block) -> int:
    if x.order != y.order:
        raise DimensionMismatchError(f"operand orders differ: {x.order} vs {y.order}")
    return x.order


def _count(ws: Workspace | None, field: str) -> None:
    if ws is not None:
        setattr(ws.counters, field, getattr(ws.counters, field) + 1)


def multiply(x: Block, y: Block) -> Block:
    """Dense product x times y (BLAS dgemm). Allocates exactly one result buffer.

    Counts as one block multiplication.
    """
    order = _require_same_order(x, y)
    buf = np.empty((order, order))
    # (x y)^T = y^T x^T on the F-contiguous transposed views, so dgemm writes
    # the product straight into buf's C-ordered memory. beta=0 means BLAS
    # never reads buf's uninitialised contents. f2py hands back the very
    # array it wrote to; any other object would mean it wrote to a copy.
    c = buf.T
    if blas.dgemm(1.0, y.data.T, x.data.T, beta=0.0, c=c, overwrite_c=1) is not c:
        raise RuntimeError("dgemm wrote its product to a copy of the output buffer")
    out = Block(buf, x._ws)
    _count(x._ws, "block_multiplications")
    return out


def subtract(x: Block, y: Block, in_place: bool = False) -> Block:
    """Difference x - y. With ``in_place`` the result overwrites x's
    buffer and no new buffer is allocated (the returned block *is* x).

    Counts as one block subtraction either way.
    """
    _require_same_order(x, y)
    if in_place:
        np.subtract(x.data, y.data, out=x.data)
        _count(x._ws, "block_subtractions")
        return x
    out = Block(x.data - y.data, x._ws)
    _count(x._ws, "block_subtractions")
    return out


def _singular_index(diag: np.ndarray, order: int, scale: float) -> int:
    """1-based index of the first pivot failing the threshold, else 0.

    NaN pivots compare false against the threshold and are flagged too.
    """
    tol = order * _EPS * scale
    ok = np.abs(diag) > tol
    if ok.all():
        return 0
    return int(np.flatnonzero(~ok)[0]) + 1


def invert_dense(x: Block) -> Block:
    """Dense inverse of one block via LU with partial pivoting plus
    triangular solves against identity columns.

    The input buffer is reused as factorization workspace: after the call
    x's contents are unspecified (the caller still owns and releases x).
    Allocates exactly one result buffer. Counts as one block inversion.
    """
    order = x.order
    scale = float(np.abs(x.data).max()) if order else 0.0
    # Factor A^T in place through the F-contiguous transposed view.
    lu, piv, info = lapack.dgetrf(x.data.T, overwrite_a=1)
    if info < 0:  # pragma: no cover
        raise ValueError(f"illegal LAPACK argument {-info}")
    bad = _singular_index(lu.diagonal(), order, scale)
    if bad:
        raise SingularBlockError(bad, order)
    res = Block(np.zeros((order, order)), x._ws)
    np.fill_diagonal(res.data, 1.0)
    # Solving A^T y = e_j writes (A^T)^-1 columnwise into the F-view,
    # which reads back row-major as the inverse of A itself.
    _, info = lapack.dgetrs(lu, piv, res.data.T, trans=0, overwrite_b=1)
    if info != 0:  # pragma: no cover
        raise SingularBlockError(abs(info), order)
    _count(x._ws, "block_inversions")
    return res
