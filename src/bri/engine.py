"""Recursive single-block inversion over a block provider.

The computation is organized around *frames*: pure index bookkeeping that
names a (sub)problem as an ordered tuple of 1-based block-row and
block-column indices into the provider, plus the quadrant label the frame
occupies in its parent. No element arithmetic happens at split time.

Splitting a frame of n block rows produces four children of n-1:

    A keeps rows[1..n-1] and cols[1..n-1];
    B keeps rows[1..n-1] and cols (c3, c2, c4, ..., cn);
    C keeps rows (r3, r2, r4, ..., rn) and cols[1..n-1];
    D combines both exchanged orderings.

The exchange keeps the anchor block — position (2, 2) of every frame — in
place all the way down, so every leaf (n = 2) eliminates its D quadrant,
and an internal node with label x eliminates the mirror of x (A <-> D,
B <-> C) on the 2x2 of its reduced children.

Buffer discipline: a node evaluates the pivot child first, folds the other
children in one at a time (T = pivot_inv @ rt, then U = l @ T, then
r - U in place), and releases every intermediate as soon as it is
consumed. Each node on the active recursion path therefore holds at most
one finished block plus at most three transients at the fold point, which
keeps the peak number of live buffers during one block run at k + 1,
well under the asserted 2k + 4 envelope. There is no memoization across
branches: subtrees refetch blocks from the provider by design.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import Block, Workspace, invert_dense, multiply, subtract
from .errors import (
    FrameTooSmallError,
    IndexOutOfRangeError,
    SingularBlockError,
    SingularPivotError,
)
from .instrumentation import OpCounters
from .providers import BlockProvider

__all__ = [
    "Quadrant",
    "Frame",
    "BranchPath",
    "root_frame",
    "frame_at",
    "split_frame",
    "schur_eliminate",
    "reduce_frame",
    "invert_block",
    "invert_full",
    "InversionSummary",
]


class Quadrant(Enum):
    """Position of a frame within its parent's 2x2 arrangement."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"

    @property
    def mirror(self) -> "Quadrant":
        return _MIRROR[self]


_MIRROR = {
    Quadrant.A: Quadrant.D,
    Quadrant.D: Quadrant.A,
    Quadrant.B: Quadrant.C,
    Quadrant.C: Quadrant.B,
}

BranchPath = tuple[Quadrant, ...]


@dataclass(frozen=True)
class Frame:
    """An n-by-n sub-grid of block indices (1-based) with a quadrant label."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    label: Quadrant

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise FrameTooSmallError(
                f"frame must be square: {len(self.rows)} rows vs {len(self.cols)} cols"
            )
        if len(self.rows) < 2:
            raise FrameTooSmallError(f"frame needs at least 2 block rows, got {len(self.rows)}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def anchor(self) -> tuple[int, int]:
        """Block-index pair at frame position (2, 2), invariant under splits."""
        return (self.rows[1], self.cols[1])


def root_frame(k: int) -> Frame:
    idx = tuple(range(1, k + 1))
    return Frame(idx, idx, Quadrant.A)


def split_frame(frame: Frame) -> tuple[Frame, Frame, Frame, Frame]:
    """Four children of order n-1, in (A, B, C, D) order. Index work only."""
    n = frame.n
    if n < 3:
        raise FrameTooSmallError(f"cannot split a frame of {n} block rows")
    r, c = frame.rows, frame.cols
    rx = (r[2], r[1]) + r[3:]  # rows with the exchange applied, length n-1
    cx = (c[2], c[1]) + c[3:]
    return (
        Frame(r[:-1], c[:-1], Quadrant.A),
        Frame(r[:-1], cx, Quadrant.B),
        Frame(rx, c[:-1], Quadrant.C),
        Frame(rx, cx, Quadrant.D),
    )


def frame_at(k: int, path: BranchPath) -> Frame:
    """Replay a branch path from the root; path[0] must be the root label A."""
    frame = root_frame(k)
    if not path or path[0] is not Quadrant.A:
        raise FrameTooSmallError(f"branch path must start at the root label A, got {path}")
    for label in path[1:]:
        children = split_frame(frame)
        frame = children["ABCD".index(label.name)]
    return frame


# For pivot quadrant q the reduction is  result = r - l @ (inv(pivot) @ rt)
# where the roles are fixed by position: result sits opposite the pivot,
# l shares the result's row and the pivot's column, rt the reverse.
_PLAN: dict[Quadrant, tuple[Quadrant, Quadrant, Quadrant, Quadrant]] = {
    Quadrant.D: (Quadrant.D, Quadrant.C, Quadrant.B, Quadrant.A),
    Quadrant.C: (Quadrant.C, Quadrant.D, Quadrant.A, Quadrant.B),
    Quadrant.B: (Quadrant.B, Quadrant.A, Quadrant.D, Quadrant.C),
    Quadrant.A: (Quadrant.A, Quadrant.B, Quadrant.C, Quadrant.D),
}


def _fold(get: Callable[[Quadrant], Block], q: Quadrant, ws: Workspace | None) -> Block:
    """One Schur reduction, evaluating operands lazily in release order.

    ``get(quadrant)`` yields the operand at that quadrant when the fold
    needs it. Exactly 1 inversion + 2 multiplications + 1 subtraction;
    every operand and intermediate is released here (the result reuses
    r's buffer).
    """
    pivot_q, rt_q, l_q, r_q = _PLAN[q]
    if ws is not None:
        ws.counters.schur_nodes += 1
    p = get(pivot_q)
    inv = invert_dense(p)
    p.release()
    rt = get(rt_q)
    t = multiply(inv, rt)
    inv.release()
    rt.release()
    l = get(l_q)
    u = multiply(l, t)
    l.release()
    t.release()
    r = get(r_q)
    out = subtract(r, u, in_place=True)
    u.release()
    return out


def schur_eliminate(g, q: Quadrant) -> Block:
    """Schur complement of quadrant q in the 2x2 block arrangement g.

    g is ((a, b), (c, d)) row-major; q = D yields a - b d^-1 c and the
    other quadrants follow by position. All four input blocks are consumed
    (released); the result reuses the surviving quadrant's buffer.
    """
    (a, b), (c, d) = g
    blocks = {Quadrant.A: a, Quadrant.B: b, Quadrant.C: c, Quadrant.D: d}
    return _fold(blocks.__getitem__, q, blocks[q].workspace)


def reduce_frame(
    provider: BlockProvider,
    frame: Frame,
    ws: Workspace | None = None,
    trace: Callable[[BranchPath, Frame, np.ndarray], None] | None = None,
    _path: BranchPath | None = None,
) -> Block:
    """Reduce a frame to a single b-by-b block.

    A leaf (n = 2) fetches its four blocks and eliminates quadrant D; an
    internal node reduces its four children and eliminates the mirror of
    its own label. A singular pivot at any node raises SingularPivotError
    carrying the branch path from the root.

    ``trace``, when given, is called as trace(path, frame, value) with a
    copy of every node's reduced value, leaves included.
    """
    path: BranchPath = (frame.label,) if _path is None else _path
    if frame.n == 2:
        (r1, r2), (c1, c2) = frame.rows, frame.cols
        spots = {
            Quadrant.A: (r1, c1),
            Quadrant.B: (r1, c2),
            Quadrant.C: (r2, c1),
            Quadrant.D: (r2, c2),
        }

        def get(key: Quadrant) -> Block:
            row, col = spots[key]
            return provider.fetch_block(row, col, ws)

        q = Quadrant.D
    else:
        children = {child.label: child for child in split_frame(frame)}

        def get(key: Quadrant) -> Block:
            return reduce_frame(provider, children[key], ws, trace, path + (key,))

        q = frame.label.mirror
    try:
        out = _fold(get, q, ws)
    except SingularBlockError as e:
        raise SingularPivotError(path, frame.anchor) from e
    if trace is not None:
        trace(path, frame, out.data.copy())
    return out


def invert_block(
    provider: BlockProvider,
    alpha: int,
    beta: int,
    ws: Workspace | None = None,
    trace: Callable[[BranchPath, Frame, np.ndarray], None] | None = None,
) -> Block:
    """Block (alpha, beta), 1-based, of the inverse of the provided matrix.

    Runs the reduction on the view the provider selects for this target
    (normally the block-permuted view that moves the target into leading
    position; padded off-diagonal targets get an element-shifted window),
    inverts the root reduction, and applies the view's finishing map if
    any. A singular final reduction raises SingularBlockError; singular
    interior pivots raise SingularPivotError with their branch path.
    """
    lay = provider.layout
    if not (1 <= alpha <= lay.k and 1 <= beta <= lay.k):
        raise IndexOutOfRangeError(f"inverse block ({alpha}, {beta}) outside 1..{lay.k}")
    if ws is None:
        ws = Workspace()
    view, finish = provider.run_view(alpha, beta)
    red = reduce_frame(view, root_frame(lay.k), ws, trace)
    win = invert_dense(red)
    red.release()
    if finish is None:
        return win
    data = finish(win.data)
    win.release()
    return Block(data, ws)


@dataclass
class InversionSummary:
    """Merged accounting for one full-inverse computation."""

    m: int
    k: int
    b: int
    l: int
    wall_ms: float
    counters: OpCounters
    peak_blocks: int  # sum of the `jobs` largest run peaks: a bound on concurrently live buffers
    peak_bytes: int
    jobs: int = 1


def invert_full(
    provider: BlockProvider,
    sink,
    ws: Workspace | None = None,
    jobs: int = 1,
) -> InversionSummary:
    """All k*k inverse blocks, streamed to ``sink.put(alpha, beta, data)``.

    Runs row-major over (alpha, beta) and never holds more than one output
    block per worker. Every run gets its own workspace; the summary reports
    the merged counters and, as peak, the sum of the ``jobs`` largest run
    peaks, which with one job is the single-run high-water mark. The
    caller's ``ws``, if given, receives the merged counters. Runs stay on
    the calling thread with one job and go to a thread pool with more.
    """
    lay = provider.layout
    pairs = [(a, b) for a in range(1, lay.k + 1) for b in range(1, lay.k + 1)]
    njobs = max(1, min(jobs, len(pairs)))

    def run_one(pair: tuple[int, int]) -> tuple[OpCounters, int]:
        w = Workspace()
        blk = invert_block(provider, pair[0], pair[1], w)
        sink.put(pair[0], pair[1], blk.data)
        blk.release()
        return w.counters, w.gauge.peak_blocks

    t0 = time.perf_counter()
    merged = OpCounters()
    peaks: list[int] = []
    with ExitStack() as stack:
        run_map = map if njobs == 1 else stack.enter_context(ThreadPoolExecutor(njobs)).map
        for counters, run_peak in run_map(run_one, pairs):
            merged.merge(counters)
            peaks.append(run_peak)
    peak = sum(sorted(peaks)[-njobs:])
    if ws is not None:
        ws.counters.merge(merged)

    wall_ms = (time.perf_counter() - t0) * 1e3
    return InversionSummary(
        m=lay.m,
        k=lay.k,
        b=lay.b,
        l=lay.l,
        wall_ms=wall_ms,
        counters=merged,
        peak_blocks=peak,
        peak_bytes=peak * 8 * lay.b * lay.b,
        jobs=njobs,
    )
