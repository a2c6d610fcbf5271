"""Block providers: uniform fetch access to M_alpha_beta from any backing.

A provider hands out one b-by-b block per fetch as a fresh buffer; nothing
is cached or kept resident between fetches. Backings: an in-memory array, a
BRIM file read by row segments, or a kernel rule evaluated on demand.

One class, BlockProvider, serves every view. It reads the order m+l
block-diagonal extension [[M, 0], [0, I]], which lets every k divide the
working order, through an element row map and an element column map:

* the providers the make_* functions build use identity maps, and
* a permuted view composes a block exchange onto its base's maps: block
  row 1 with beta and block column 1 with alpha, which moves the target
  block of the inverse into leading position. The (1,1) inverse block of
  the view equals N_alpha_beta.

Each block's slice of each map is split into contiguous real strips and
padding positions once, when the view is built, so a fetch only reads.

One wrinkle: on a padded layout, a block-level exchange leaves padding
rows and their matching columns in different pivot minors of the
reduction, and those pivots become exactly singular no matter what M is
(they acquire zero rows or columns). Every inverted pivot of the
reduction tree covers the anchor block and, when its row and column
block sets differ at all, they differ only over blocks 3..k-1. run_view
therefore switches, whenever padding is present, to element maps that
shift the window: the b-wide row and column strips carrying the target's
real entries lead, all padding indices sit at shared positions inside
blocks 2 and k of both maps, and a finishing step places the computed
window into the padded output block. Pivots then stay generically
nonsingular and the result is unchanged. Padding wider than two blocks
cannot be tucked away like this, so k >= 5 partitions reject layouts
with l > 2b.

Fetches are deterministic: repeated fetches of the same index pair return
bit-identical buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Block, Workspace
from .errors import BadPartitionError, DimensionMismatchError, IndexOutOfRangeError
from .formats import BrimReader, read_header

__all__ = [
    "BlockLayout",
    "KernelSpec",
    "BlockProvider",
    "make_memory_provider",
    "make_file_provider",
    "make_kernel_provider",
    "kernel_matrix",
    "permute_provider",
]


@dataclass(frozen=True)
class BlockLayout:
    """Partition bookkeeping: order m split into k block rows of width b.

    l zero-or-identity padding rows/cols make the working order n = m + l
    divisible by k; l is the smallest such non-negative integer.
    """

    m: int
    k: int
    l: int
    b: int

    @property
    def n(self) -> int:
        """Working (padded) order."""
        return self.m + self.l

    @classmethod
    def for_order(cls, m: int, k: int) -> "BlockLayout":
        if m < 1:
            raise BadPartitionError(f"matrix order must be >= 1, got {m}")
        if k < 2:
            raise BadPartitionError(f"partition needs k >= 2, got {k}")
        l = (-m) % k
        return cls(m=m, k=k, l=l, b=(m + l) // k)


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian-kernel system matrix of order n+1 for n training inputs.

    Element rule, 1-based over order m = n + 1: entry (1,1) is 0, the rest
    of the first row and column are 1, and interior entry (i, j) is
    exp(-||x_{i-1} - x_{j-1}||^2 / (2 sigma^2)) + delta_ij / gamma.
    Elements are recomputed on every fetch; the inputs are the only state.
    """

    inputs: np.ndarray  # (n, d), read-only
    gamma: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        x = np.ascontiguousarray(self.inputs, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] < 1:
            raise DimensionMismatchError(f"kernel inputs must be (n, d), got {self.inputs.shape}")
        if not (self.gamma > 0) or not (self.sigma > 0):
            raise BadPartitionError("kernel gamma and sigma must be positive")
        x.setflags(write=False)
        object.__setattr__(self, "inputs", x)

    @property
    def order(self) -> int:
        return self.inputs.shape[0] + 1


# ---------------------------------------------------------------------------
# Element sources: rectangle reads over the raw (unpadded) m-by-m matrix.
# ---------------------------------------------------------------------------


class _MemorySource:
    def __init__(self, matrix: np.ndarray):
        a = np.array(matrix, dtype=np.float64, order="C", copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {a.shape}")
        a.setflags(write=False)
        self.matrix = a
        self.m = a.shape[0]

    def rect(self, r0, r1, c0, c1) -> np.ndarray:
        return self.matrix[r0:r1, c0:c1]


class _FileSource:
    def __init__(self, path):
        self.reader = BrimReader(path)
        self.m = self.reader.m

    def rect(self, r0, r1, c0, c1) -> np.ndarray:
        return self.reader.read_rect(r0, r1, c0, c1)


class _KernelSource:
    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self.m = spec.order

    def rect(self, r0, r1, c0, c1) -> np.ndarray:
        spec = self.spec
        out = np.empty((r1 - r0, c1 - c0))
        if r0 == 0:
            out[0, :] = 1.0
            if c0 == 0:
                out[0, 0] = 0.0
        if c0 == 0:
            out[max(r0, 1) - r0 :, 0] = 1.0
        i0, j0 = max(r0, 1), max(c0, 1)
        if i0 < r1 and j0 < c1:
            xi = spec.inputs[i0 - 1 : r1 - 1]
            xj = spec.inputs[j0 - 1 : c1 - 1]
            sq = ((xi[:, None, :] - xj[None, :, :]) ** 2).sum(axis=2)
            gram = np.exp(sq / (-2.0 * spec.sigma**2))
            # ridge term on the global diagonal only
            di = np.arange(i0, r1)
            on_diag = (di >= j0) & (di < c1)
            gram[np.flatnonzero(on_diag), di[on_diag] - j0] += 1.0 / spec.gamma
            out[i0 - r0 :, j0 - c0 :] = gram
        return out


def _real_window(lay: BlockLayout, j: int) -> int:
    """Start of b consecutive real indices covering block j's real span."""
    lo = (j - 1) * lay.b
    return min(lo, lay.m - lay.b)


def _run_maps(lay: BlockLayout, alpha: int, beta: int) -> tuple[np.ndarray, np.ndarray]:
    """Element row and column maps for one padded-target run.

    Both maps lead with the b-wide real window carrying the target's
    entries (beta's for rows, alpha's for cols), park up to b padding
    indices at the tail of the last block and any overflow at the tail
    of the anchor block, at identical positions in both maps, and fill
    the remaining slots with the leftover real indices, shared middle
    first so the two maps agree wherever they can.
    """
    b, m, n, l = lay.b, lay.m, lay.n, lay.l
    a0 = _real_window(lay, alpha)
    b0 = _real_window(lay, beta)
    real = np.arange(m)
    in_a = (real >= a0) & (real < a0 + b)
    in_b = (real >= b0) & (real < b0 + b)
    common = real[~in_a & ~in_b]
    pads = np.arange(m, n)
    over = max(0, l - b)  # padding beyond the last block's tail capacity

    def weave(lead: np.ndarray, rest: np.ndarray) -> np.ndarray:
        head, mid = rest[: b - over], rest[b - over :]
        return np.concatenate([lead, head, pads[:over], mid, pads[over:]])

    rmap = weave(real[in_b], np.concatenate([common, real[in_a & ~in_b]]))
    cmap = weave(real[in_a], np.concatenate([common, real[in_b & ~in_a]]))
    return rmap, cmap


def _strips(emap: np.ndarray, lay: BlockLayout) -> list[list[tuple[int, int, int]]]:
    """Each block's slice of an element map, split into maximal real strips.

    A strip (p, e, h) covers block positions p..p+h-1 and real element
    indices e..e+h-1, so one rectangle read serves it. Positions whose
    element index is padding (>= m) belong to no strip.
    """
    b = lay.b
    pos = np.flatnonzero(emap < lay.m)
    val = emap[pos]
    cut = np.ones(pos.size, dtype=bool)
    cut[1:] = (np.diff(pos) != 1) | (np.diff(val) != 1) | (pos[1:] % b == 0)
    first = np.flatnonzero(cut)
    height = np.diff(np.append(first, pos.size))
    blocks: list[list[tuple[int, int, int]]] = [[] for _ in range(lay.k)]
    for p, e, h in zip(pos[first].tolist(), val[first].tolist(), height.tolist()):
        blocks[p // b].append((p % b, e, h))
    return blocks


# ---------------------------------------------------------------------------
# Provider
# ---------------------------------------------------------------------------


class BlockProvider:
    """Blocks of [[M, 0], [0, I]] gathered through element row and column maps.

    Block (i, j), 1-based, holds the padded matrix at element rows
    rmap[(i-1)b : ib] and columns cmap[(j-1)b : jb]; both maps default
    to the identity. Each block's slice of each map is split into real
    strips once, here, so a fetch only reads. Read-only after construction.
    """

    def __init__(
        self,
        source,
        layout: BlockLayout,
        rmap: np.ndarray | None = None,
        cmap: np.ndarray | None = None,
    ):
        self.source = source
        self.layout = layout
        self._mapped = rmap is not None  # views pass both maps
        ident = np.arange(layout.n)
        self._rmap = ident if rmap is None else rmap
        self._cmap = ident if cmap is None else cmap
        self._rows = _strips(self._rmap, layout)
        self._cols = _strips(self._cmap, layout)
        # The identity entries of the padding, as (row, col) view positions:
        # at most l < k of them, each padding row paired with the position
        # of its element index in cmap.
        where = np.argsort(self._cmap)
        rpad = np.flatnonzero(self._rmap >= layout.m)
        self._ones = list(zip(rpad.tolist(), where[self._rmap[rpad]].tolist()))

    def fetch_block(self, alpha: int, beta: int, ws: Workspace | None = None) -> Block:
        """Fetch block (alpha, beta), 1-based, as one freshly allocated buffer."""
        k, b = self.layout.k, self.layout.b
        if not (1 <= alpha <= k and 1 <= beta <= k):
            raise IndexOutOfRangeError(f"block ({alpha}, {beta}) outside 1..{k}")
        rows, cols = self._rows[alpha - 1], self._cols[beta - 1]
        if rows and cols and rows[0][2] == b == cols[0][2]:
            # One whole strip each way: a single read. It may be a read-only
            # view (memory source); Block copies only such buffers.
            e, f = rows[0][1], cols[0][1]
            return Block(self.source.rect(e, e + b, f, f + b), ws)
        out = np.zeros((b, b))
        for p, e, h in rows:
            for q, f, w in cols:
                out[p : p + h, q : q + w] = self.source.rect(e, e + h, f, f + w)
        r0, c0 = (alpha - 1) * b, (beta - 1) * b
        for r, c in self._ones:
            if r0 <= r < r0 + b and c0 <= c < c0 + b:
                out[r - r0, c - c0] = 1.0
        return Block(out, ws)

    def run_view(self, alpha: int, beta: int):
        """View to reduce for target block (alpha, beta), plus a finisher.

        Returns (provider, finish) where finish is None when the run's
        output is the target block as-is (the plain permuted view), or a
        callable mapping the computed leading window to the target block.
        """
        lay = self.layout
        if lay.l == 0 or self._mapped:
            # A view already mapped away from the padded matrix has no
            # identity corner for a finisher to restore; it keeps the plain
            # exchange, as on unpadded layouts.
            return permute_provider(self, alpha, beta), None
        if lay.k >= 5 and lay.l > 2 * lay.b:
            # Deep reductions invert pivots whose row and column block
            # sets differ over blocks 3..k-1; padding caught there makes
            # them exactly singular, and blocks 2 and k can absorb at
            # most 2b padding indices between them.
            raise BadPartitionError(
                f"order {lay.m} with k={lay.k} needs {lay.l} padding indices, "
                f"more than two blocks' worth ({2 * lay.b}); use a partition "
                f"with k <= 4 or one that divides the order more evenly"
            )
        # A block-level exchange would strand padding columns away from
        # their rows (or vice versa) inside interior pivots, which are
        # then singular for every M. Run over the element-shifted window
        # instead; view rows index the *columns* of the inverse, so the
        # leading row window carries beta's span.
        a0 = _real_window(lay, alpha)
        b0 = _real_window(lay, beta)
        rmap, cmap = _run_maps(lay, alpha, beta)
        view = BlockProvider(self.source, lay, self._rmap[rmap], self._cmap[cmap])

        def finish(win: np.ndarray) -> np.ndarray:
            # win = inverse rows [a0, a0+b) x cols [b0, b0+b); the target
            # block's real entries lie inside it. Outside the real
            # region the inverse is the identity's padding corner.
            out = np.zeros((lay.b, lay.b))
            rg = np.arange((alpha - 1) * lay.b, alpha * lay.b)
            cg = np.arange((beta - 1) * lay.b, beta * lay.b)
            rr, cc = rg < lay.m, cg < lay.m
            if rr.any() and cc.any():
                out[np.ix_(rr, cc)] = win[np.ix_(rg[rr] - a0, cg[cc] - b0)]
            if alpha == beta:
                pad = np.flatnonzero(~rr)
                out[pad, pad] = 1.0
            return out

        return view, finish

    def close(self) -> None:
        """Close the source's file, if it reads one. Views share their base's source."""
        if isinstance(self.source, _FileSource):
            self.source.reader.close()

    def __enter__(self) -> "BlockProvider":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def make_memory_provider(matrix, k: int) -> BlockProvider:
    """Provider over an in-memory square matrix (copied, then read-only)."""
    source = _MemorySource(matrix)
    return BlockProvider(source, BlockLayout.for_order(source.m, k))


def make_file_provider(path, k: int) -> BlockProvider:
    """Provider over a BRIM file; each fetch reads at most b row segments.

    The file stays open until the provider is closed (``with provider:``).
    """
    # Check k against the header before opening, so a rejected layout leaks no file.
    layout = BlockLayout.for_order(read_header(path).m, k)
    return BlockProvider(_FileSource(path), layout)


def make_kernel_provider(spec: KernelSpec, k: int) -> BlockProvider:
    """Provider over a kernel system matrix, elements recomputed per fetch."""
    source = _KernelSource(spec)
    return BlockProvider(source, BlockLayout.for_order(spec.order, k))


def kernel_matrix(spec: KernelSpec) -> np.ndarray:
    """The full order-(n+1) kernel system matrix as one dense array."""
    return _KernelSource(spec).rect(0, spec.order, 0, spec.order)


def _swap(lay: BlockLayout, t: int) -> np.ndarray:
    """Element map exchanging block 1 with block t."""
    idx = np.arange(lay.n).reshape(lay.k, lay.b)
    idx[[0, t - 1]] = idx[[t - 1, 0]]
    return idx.ravel()


def permute_provider(provider: BlockProvider, alpha: int, beta: int) -> BlockProvider:
    """View with block row 1 <-> beta and block column 1 <-> alpha exchanged.

    The (1,1) block of the view's inverse is block (alpha, beta) of the
    base matrix's inverse. Applying the same permutation twice yields a
    view equivalent to the base. alpha = beta = 1 is the identity view.
    """
    lay = provider.layout
    if not (1 <= alpha <= lay.k and 1 <= beta <= lay.k):
        raise IndexOutOfRangeError(f"target block ({alpha}, {beta}) outside 1..{lay.k}")
    return BlockProvider(
        provider.source, lay, provider._rmap[_swap(lay, beta)], provider._cmap[_swap(lay, alpha)]
    )
