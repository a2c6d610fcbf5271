"""Recursive single-block inversion over a block provider.

The computation is organized around *frames*: pure index bookkeeping that
names a (sub)problem as an ordered tuple of 1-based block-row and
block-column indices into the provider, plus its branch path: the
quadrants from the root frame, (A,), down to the one the frame occupies in
its parent. No element arithmetic happens at split time.

Splitting a frame of n block rows produces four children of n-1:

    A keeps rows[1..n-1] and cols[1..n-1];
    B keeps rows[1..n-1] and cols (c3, c2, c4, ..., cn);
    C keeps rows (r3, r2, r4, ..., rn) and cols[1..n-1];
    D combines both exchanged orderings.

The exchange keeps the anchor block — position (2, 2) of every frame — in
place all the way down, so every leaf (n = 2) eliminates its D quadrant,
and an internal node whose path ends in x eliminates the mirror of x
(A <-> D, B <-> C) on the 2x2 of its reduced children. A quadrant's value
is 2*row + col, so its mirror is q ^ 3 and the two beside it are q ^ 1
and q ^ 2.

Buffer discipline: a node evaluates the pivot child first and inverts it
in place, then folds the other children in one at a time, each written
over a block already held: T = pivot_inv @ rt over the inverse, U = l @ T
over l, then r - U over r. Every intermediate is released as soon as it
is consumed, and only a fetch allocates. A frame above a leaf therefore
holds one block while it evaluates a child, and a leaf holds two, so the
peak number of live buffers during one block run is exactly k (k - 2
frames above the leaf, two at the leaf), the fewest this evaluation
order allows. There is no memoization across branches: subtrees refetch
blocks from the provider by design. Each node is one fold, so a block
run's operation counts are closed forms in k: :func:`predicted_counts`
returns them, and the workspace's counters match them exactly.

A full inverse is k*k such runs, one after another on one workspace, so
its peak is that of its largest run: time is traded for memory, one
block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from .core import Block, OpCounters, Workspace, invert_dense, multiply, subtract
from .errors import BadPartitionError, SingularBlockError, SingularPivotError
from .providers import BlockProvider

__all__ = [
    "Quadrant",
    "Frame",
    "BranchPath",
    "root_frame",
    "split_frame",
    "reduce_frame",
    "invert_block",
    "invert_full",
    "predicted_counts",
]


class Quadrant(IntEnum):
    """Position of a frame within its parent's 2x2 arrangement: 2*row + col."""

    A = 0
    B = 1
    C = 2
    D = 3


BranchPath = tuple[Quadrant, ...]


@dataclass(frozen=True)
class Frame:
    """An n-by-n sub-grid of block indices (1-based) and its branch path from the root."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    path: BranchPath

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise BadPartitionError(
                f"frame must be square: {len(self.rows)} rows vs {len(self.cols)} cols"
            )
        if len(self.rows) < 2:
            raise BadPartitionError(f"frame needs at least 2 block rows, got {len(self.rows)}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def anchor(self) -> tuple[int, int]:
        """Block-index pair at frame position (2, 2), invariant under splits."""
        return (self.rows[1], self.cols[1])


def root_frame(k: int) -> Frame:
    idx = tuple(range(1, k + 1))
    return Frame(idx, idx, (Quadrant.A,))


def split_frame(frame: Frame) -> tuple[Frame, Frame, Frame, Frame]:
    """Four children of order n-1, in (A, B, C, D) order, paths extended. Index work only."""
    n = frame.n
    if n < 3:
        raise BadPartitionError(f"cannot split a frame of {n} block rows")
    r, c, p = frame.rows, frame.cols, frame.path
    rx = (r[2], r[1]) + r[3:]  # rows with the exchange applied, length n-1
    cx = (c[2], c[1]) + c[3:]
    return (
        Frame(r[:-1], c[:-1], p + (Quadrant.A,)),
        Frame(r[:-1], cx, p + (Quadrant.B,)),
        Frame(rx, c[:-1], p + (Quadrant.C,)),
        Frame(rx, cx, p + (Quadrant.D,)),
    )


def _fold(get: Callable[[int], Block], q: int, ws: Workspace) -> Block:
    """One Schur reduction, evaluating operands lazily in release order.

    For pivot quadrant q the reduction is  r - l @ (inv(pivot) @ rt):
    rt shares the pivot's row (q ^ 1), l its column (q ^ 2), and r sits
    opposite it (q ^ 3). ``get(quadrant)`` yields the operand at that
    quadrant when the fold needs it. Exactly 1 inversion + 2
    multiplications + 1 subtraction; every operand and intermediate is
    released here. Each operation writes over its first operand, so T
    reuses the pivot's buffer, U reuses l's and the result reuses r's.
    """
    ws.counters.schur_nodes += 1
    inv = invert_dense(get(q))
    rt = get(q ^ 1)
    t = multiply(inv, rt)
    rt.release()
    u = multiply(get(q ^ 2), t)
    t.release()
    r = get(q ^ 3)
    out = subtract(r, u)
    u.release()
    return out


def predicted_counts(k: int) -> OpCounters:
    """Exact block-operation counts for one single-block inversion run.

    The reduction tree has (4**(k-1) - 1) / 3 nodes: levels of 4**j nodes
    for j = 0 .. k-2. Each node costs 1 inversion + 2 multiplications +
    1 subtraction, and the run finishes with one more dense inversion.
    """
    if k < 2:
        raise BadPartitionError(f"partition needs k >= 2, got {k}")
    nodes = (4 ** (k - 1) - 1) // 3
    return OpCounters(
        block_inversions=nodes + 1,
        block_multiplications=2 * nodes,
        block_subtractions=nodes,
        schur_nodes=nodes,
    )


def reduce_frame(provider: BlockProvider, frame: Frame, ws: Workspace) -> Block:
    """Reduce a frame to a single b-by-b block.

    A leaf (n = 2) fetches its four blocks and eliminates quadrant D; an
    internal node reduces its four children and eliminates the mirror of
    its own quadrant. A singular pivot at any node raises SingularPivotError
    carrying the node's branch path and, as pivot block,
    ``provider.input_block`` of the frame's anchor.
    """
    if frame.n == 2:
        rows, cols = frame.rows, frame.cols

        def get(key: int) -> Block:
            return provider.fetch_block(rows[key >> 1], cols[key & 1], ws)

        q = Quadrant.D
    else:
        children = split_frame(frame)

        def get(key: int) -> Block:
            return reduce_frame(provider, children[key], ws)

        q = frame.path[-1] ^ 3
    try:
        return _fold(get, q, ws)
    except SingularBlockError as e:
        raise SingularPivotError(frame.path, provider.input_block(*frame.anchor)) from e


def invert_block(
    provider: BlockProvider,
    alpha: int,
    beta: int,
    ws: Workspace,
) -> Block:
    """Block (alpha, beta), 1-based, of the inverse of the provided matrix.

    Runs the reduction on the view the provider selects for this target
    (the block exchange that moves the target into leading position, or
    on a padded layout an element-shifted window that starts at the
    target's real entries) and inverts the root reduction in place. If
    the target block holds padding, it then clears the rest in place to
    that block of [[M^-1, 0], [0, I]]. The block returned is the one the
    final inversion produced; every block it allocates belongs to ``ws``.
    A singular final reduction raises SingularBlockError; singular
    interior pivots raise SingularPivotError (see reduce_frame).
    """
    lay = provider.layout
    out = invert_dense(reduce_frame(provider.run_view(alpha, beta), root_frame(lay.k), ws))
    (r0, r1), (c0, c1) = lay.span(alpha), lay.span(beta)
    h, w = r1 - r0, c1 - c0  # the window leads with the target's real rows and columns
    if h < lay.b or w < lay.b:
        out.data[h:] = 0.0
        out.data[:, w:] = 0.0
        if alpha == beta:
            np.fill_diagonal(out.data[h:, h:], 1.0)
    return out


def invert_full(provider: BlockProvider, sink, ws: Workspace) -> None:
    """All k*k inverse blocks, streamed to ``sink.put(alpha, beta, data)``.

    Runs row-major over (alpha, beta), one block run at a time on the
    calling thread, and never holds more than one output block. All runs
    share the workspace ``ws``: each releases every block before the next
    starts, so its tally grows by the sum over runs and its peak is the
    largest run's high-water mark.
    """
    lay = provider.layout
    for alpha in range(1, lay.k + 1):
        for beta in range(1, lay.k + 1):
            blk = invert_block(provider, alpha, beta, ws)
            sink.put(alpha, beta, blk.data)
            blk.release()
