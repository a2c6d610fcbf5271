"""Dense b-by-b block arithmetic with explicit buffer accounting.

All elements are float64 and every block buffer is a C-contiguous (b, b)
ndarray owned by a :class:`Block`. Each workspace's :class:`MemoryGauge`
counts a buffer from its block's construction until an explicit
``release()`` drops it; only ``Block`` writes the gauge, so peak counts
are deterministic and match the buffers the process holds. The
gauge counts these engine-managed buffers, not heap bytes: a file read's
mapping, the multiply's scratch panel and LAPACK's work array are
outside it. One *block operation* is one call on b-by-b operands, an
inversion, a multiplication or a subtraction, and the
:class:`OpCounters` of the block's :class:`Workspace` tallies each;
nothing here is global state.

Design notes
------------
* A block owns its buffer; ``Block`` refuses one it does not own rather
  than copy it. Operations are free functions matching the operand
  vocabulary: ``multiply``, ``subtract``, ``invert_dense``. Each writes its
  result over its first operand's buffer and returns that very block, so
  only a provider's fetch allocates one. On a padded target,
  ``invert_block`` clears the padding in the buffer of the final inverse.
* ``invert_dense`` inverts in place. LAPACK's ``getrf`` factors the
  transposed view, which is Fortran-contiguous for a C-ordered buffer,
  and ``getri`` overwrites the factors with the inverse of that
  transpose, which reads back row-major as the inverse itself.
  After the LU, ``getri`` costs 4/3 b^3 flops against 2 b^3 for solving
  against identity columns with ``getrs`` (Du Croz and Higham, "Stability
  of methods for matrix inversion", IMA J. Numer. Anal. 12, 1992).
* ``multiply`` computes x y one row panel at a time: panel i of the
  product reads only panel i of x, so it goes to a scratch panel and is
  copied back over x. The panel is ceil(b/4) rows, a quarter block of
  scratch beside the k live blocks of a run's peak. A half-block panel
  costs one dgemm call fewer per panel pair but puts a full run at m=384,
  k=6 above (gauge + 1) blocks under tracemalloc (7.12 of 7). Four dgemm
  calls cost about 46% more than one at b=192. At orders that are
  multiples of 16 the panels give the same bits as one dgemm over the
  whole block. At other orders above 100 (b=101, say), and at some
  below, OpenBLAS runs another kernel on the shorter panel and the
  products differ in the last bits (summation order only). A product
  cannot be written over its own right factor, so ``multiply(x, x)``
  raises ValueError.
* ``multiply`` calls scipy's ``dgemm`` rather than numpy's ``@``, so every
  BLAS and LAPACK call runs on the one OpenBLAS that scipy links. numpy
  bundles a second OpenBLAS with its own thread pool; alternating between
  the two makes each pool's idle threads spin against the other's work.
* The three LAPACK and BLAS calls come from scipy's compiled f2py modules,
  ``scipy.linalg._fblas`` and ``_flapack``, loaded from their files without
  importing the ``scipy.linalg`` package. That package pulls in scipy's
  array-API layer and, through it, ``numpy.f2py``, ``numpy.ma``,
  ``numpy.random`` and more, none of which bri uses. ``import bri`` took
  about 0.5 s and 57 MiB RSS with it, and takes 0.2 s and 33 MiB without
  (scipy 1.17, 2-core x86-64 Linux). Both modules are registered in
  sys.modules under their own names, so a later ``import scipy.linalg``
  reuses them and one OpenBLAS still serves all.
* Singularity is a growth-scaled pivot test: |u_ii| <= b * eps * max|A|,
  with max|A| taken as max(max A, -min A). That builds no |A| copy, and a
  NaN in A makes it NaN, which fails every pivot.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GaugeUnderflowError, SingularBlockError

__all__ = [
    "OpCounters",
    "MemoryGauge",
    "Block",
    "Workspace",
    "multiply",
    "subtract",
    "invert_dense",
]

_EPS = float(np.finfo(np.float64).eps)


def _extension(name: str, directory: str):
    """The compiled module ``name`` loaded from ``directory`` and registered in
    sys.modules, or the module already registered under ``name``.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# scipy's f2py BLAS and LAPACK modules, from scipy's linalg directory (found
# without importing scipy) and without importing the scipy.linalg package.
_LINALG = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
blas = _extension("scipy.linalg._fblas", _LINALG)
lapack = _extension("scipy.linalg._flapack", _LINALG)


@dataclass
class OpCounters:
    """Tally of block operations for one or more runs."""

    block_inversions: int = 0
    block_multiplications: int = 0
    block_subtractions: int = 0
    schur_nodes: int = 0


@dataclass
class MemoryGauge:
    """Live and high-water counts of block buffers in one workspace.

    Only :class:`Block` writes it: construction counts a buffer live, and
    ``release`` counts it gone.
    """

    live_blocks: int = 0
    peak_blocks: int = 0


class Workspace:
    """Allocation context: one op-counter tally plus one memory gauge.

    Runs that share a workspace add to one tally, and its gauge peak is
    the largest live count any of them reached. Every block belongs to
    exactly one workspace.
    """

    __slots__ = ("counters", "gauge")

    def __init__(self):
        self.counters = OpCounters()
        self.gauge = MemoryGauge()

    def from_array(self, a) -> "Block":
        """Allocate a block from a copy of array-like data."""
        return Block(np.array(a, dtype=np.float64, order="C"), self)


class Block:
    """One square float64 block of order >= 1, counted in its workspace's gauge.

    The block owns its buffer: a view or a read-only, F-ordered or non-float64
    array raises ValueError, and nothing is copied. The buffer counts in the
    workspace gauge from construction and must be released exactly once;
    release drops it, ``data`` becomes None, and a second release raises
    GaugeUnderflowError.
    """

    __slots__ = ("data", "_ws")

    def __init__(self, buf: np.ndarray, ws: Workspace):
        if buf.ndim != 2 or buf.shape[0] != buf.shape[1] or buf.size == 0:
            raise DimensionMismatchError(f"block must be square of order >= 1, got {buf.shape}")
        # Operations write through the buffer in place, and release frees it.
        f = buf.flags
        if not (buf.dtype == np.float64 and f.c_contiguous and f.writeable and f.owndata):
            raise ValueError("a block needs a writable C-ordered float64 buffer of its own")
        self.data = buf
        self._ws = ws
        gauge = ws.gauge
        gauge.live_blocks += 1
        gauge.peak_blocks = max(gauge.peak_blocks, gauge.live_blocks)

    @property
    def order(self) -> int:
        return self.data.shape[0]

    def release(self) -> None:
        """Count this block's buffer gone from the gauge, then drop it."""
        if self.data is None:
            raise GaugeUnderflowError("block released twice")
        self._ws.gauge.live_blocks -= 1
        self.data = None

    def __repr__(self) -> str:  # pragma: no cover
        return "Block(released)" if self.data is None else f"Block(order={self.order}, live)"


def _require_same_order(x: Block, y: Block) -> int:
    if x.order != y.order:
        raise DimensionMismatchError(f"operand orders differ: {x.order} vs {y.order}")
    return x.order


def multiply(x: Block, y: Block) -> Block:
    """Product x times y (BLAS dgemm), written over x's buffer; the returned
    block *is* x.

    Allocates no block buffer. Counts as one block multiplication. Raises
    ValueError when y shares x's buffer, since the product would overwrite
    its own right factor.
    """
    order = _require_same_order(x, y)
    if y.data is x.data:
        raise ValueError("cannot multiply a block by itself in place")
    # Row panel i of x y needs only row panel i of x, so each panel's product
    # goes to a scratch of ceil(b/4) rows and is then copied over the panel.
    # (x_i y)^T = y^T x_i^T on F-contiguous transposed views, so dgemm writes
    # straight into the scratch's C-ordered memory; beta=0 means it never
    # reads the scratch's uninitialised contents. f2py hands back the very
    # array it wrote to; any other object would mean it wrote to a copy.
    height = -(-order // 4)
    scratch = np.empty((height, order))
    for r0 in range(0, order, height):
        panel = x.data[r0 : r0 + height]
        prod = scratch[: panel.shape[0]]
        c = prod.T
        if blas.dgemm(1.0, y.data.T, panel.T, beta=0.0, c=c, overwrite_c=1) is not c:
            raise RuntimeError("dgemm wrote its product to a copy of the scratch panel")
        panel[...] = prod
    x._ws.counters.block_multiplications += 1
    return x


def subtract(x: Block, y: Block) -> Block:
    """Difference x - y, written over x's buffer; the returned block *is* x.

    Allocates nothing. Counts as one block subtraction.
    """
    _require_same_order(x, y)
    np.subtract(x.data, y.data, out=x.data)
    x._ws.counters.block_subtractions += 1
    return x


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
    """Dense inverse of one block via LU with partial pivoting, written over
    x's buffer; the returned block *is* x.

    Allocates no block buffer. Counts as one block inversion. On a singular
    block x's contents are unspecified (the caller still owns and releases x).
    """
    order = x.order
    scale = float(np.maximum(x.data.max(), -x.data.min()))
    # Factor A^T in place through the F-contiguous transposed view.
    at = x.data.T
    lu, piv, info = lapack.dgetrf(at, overwrite_a=1)
    if info < 0:  # pragma: no cover
        raise ValueError(f"illegal LAPACK argument {-info}")
    bad = _singular_index(lu.diagonal(), order, scale)
    if bad:
        raise SingularBlockError(bad, order)
    # (A^T)^-1 in the F-view reads back row-major as A^-1. getri's panel
    # width is lwork // order, capped at LAPACK's optimal 64. Up to order 128
    # OpenBLAS runs 3-column panels on one thread but 64-column ones on two,
    # and each hand-off between BLAS threads waits a 4 ms scheduler tick
    # whenever both share one CPU: 0.2 ms against 15 ms at order 96.
    panel = 3 if order <= 128 else 64
    inv, info = lapack.dgetri(lu, piv, lwork=panel * order, overwrite_lu=1)
    if info != 0:  # pragma: no cover
        raise SingularBlockError(abs(info), order)
    if lu is not at or inv is not at:
        raise RuntimeError("LAPACK wrote the inverse to a copy of the block buffer")
    x._ws.counters.block_inversions += 1
    return x
