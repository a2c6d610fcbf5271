"""Block providers: uniform fetch access to M_alpha_beta from any backing.

A provider hands out one b-by-b block per fetch as a fresh buffer; nothing
is cached or kept resident between fetches. Backings: an in-memory array, a
BRIM file read by row segments, or a kernel rule evaluated on demand. A
fetch allocates that buffer and has its source write each strip straight
into its slice of it, so the block is the only block-sized allocation.

One class, BlockProvider, serves every view. It reads the order m+l
block-diagonal extension [[M, 0], [0, I]], which lets every k divide the
working order, through an element row map and an element column map:

* the providers the make_* functions build use identity maps, and
* views come only from run_view on such a provider, whose maps exchange
  block row 1 with beta and block column 1 with alpha, which moves the
  target block of the inverse into leading position. The (1,1) inverse
  block of the view equals N_alpha_beta. A view refuses run_view.

Each block's slice of each map is split into contiguous real strips and
padding offsets once, when the view is built, so a fetch only reads.

One wrinkle: on a padded layout, a block-level exchange leaves padding
rows and their matching columns in different pivot minors of the
reduction, and those pivots become exactly singular no matter what M is
(they acquire zero rows or columns). Every inverted pivot of the
reduction tree covers the anchor block and, when its row and column
block sets differ at all, they differ only over blocks 3..k-1. run_view
therefore switches, whenever padding is present, to element maps that
shift the window: each map leads with b real indices starting with the
target's real span, so the target's real entries sit at the origin of the
computed window, and all padding indices sit at shared positions inside
blocks 2 and k of both maps. A target block holding padding gets a
finishing step that clears the window past its real entries and restores
the identity's diagonal. Pivots then stay generically nonsingular and the
result is unchanged. Padding wider than two blocks cannot be tucked away
like this, so k >= 5 partitions reject layouts with l > 2b.

Fetches are deterministic: repeated fetches of the same index pair return
bit-identical buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Block, Workspace
from .errors import BadPartitionError, DimensionMismatchError, IndexOutOfRangeError
from .formats import BrimReader

__all__ = [
    "BlockLayout",
    "KernelSpec",
    "BlockProvider",
    "make_memory_provider",
    "make_file_provider",
    "make_kernel_provider",
    "kernel_matrix",
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


# ---------------------------------------------------------------------------
# Element sources: rect(r0, r1, c0, c1, out) writes that rectangle of the raw
# (unpadded) m-by-m matrix into out, the caller's float64 array of its shape.
# The memory and file sources wrap an array and a BrimReader; a KernelSpec is
# its own source, recomputing its elements on every call.
# ---------------------------------------------------------------------------


class _MemorySource:
    def __init__(self, matrix: np.ndarray):
        a = np.array(matrix, dtype=np.float64, order="C", copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {a.shape}")
        a.setflags(write=False)
        self.matrix = a

    def rect(self, r0, r1, c0, c1, out: np.ndarray) -> None:
        out[...] = self.matrix[r0:r1, c0:c1]


class _FileSource:
    def __init__(self, path):
        self.reader = BrimReader(path)

    def rect(self, r0, r1, c0, c1, out: np.ndarray) -> None:
        self.reader.read_rect(r0, r1, c0, c1, out)


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian-kernel system matrix of order n+1 for n training inputs.

    Element rule, 1-based over order m = n + 1: entry (1,1) is 0, the rest
    of the first row and column are 1, and interior entry (i, j) is
    exp(-||x_{i-1} - x_{j-1}||^2 / (2 sigma^2)) + delta_ij / gamma.
    Elements are recomputed on every fetch; the inputs are the only state.
    Inputs are (n, d) arrays; a 1-D array raises DimensionMismatchError.
    """

    PANEL = 1024  # elements of one row panel (8 KiB)

    inputs: np.ndarray  # (n, d), a read-only copy
    gamma: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        x = np.array(self.inputs, dtype=np.float64, order="C", copy=True)
        if x.ndim != 2 or x.shape[0] < 1:
            raise DimensionMismatchError(f"kernel inputs must be (n, d), got {x.shape}")
        if not (self.gamma > 0) or not (self.sigma > 0):
            raise BadPartitionError("kernel gamma and sigma must be positive")
        x.setflags(write=False)
        object.__setattr__(self, "inputs", x)

    @property
    def order(self) -> int:
        return self.inputs.shape[0] + 1

    def rect(self, r0, r1, c0, c1, out: np.ndarray) -> None:
        """Write rows r0:r1 and columns c0:c1 of the system matrix into ``out``."""
        if r0 == 0:
            out[0, :] = 1.0
            if c0 == 0:
                out[0, 0] = 0.0
        if c0 == 0:
            out[max(r0, 1) - r0 :, 0] = 1.0
        i0, j0 = max(r0, 1), max(c0, 1)
        if i0 < r1 and j0 < c1:
            gram = out[i0 - r0 :, j0 - c0 :]
            xi = self.inputs[i0 - 1 : r1 - 1].T
            xj = self.inputs[j0 - 1 : c1 - 1].T
            # Row panels of about PANEL elements, squares summed one dimension
            # at a time: each temporary is at most a panel. For d < 8 that is the
            # order of numpy's sum(axis=-1), so entries are bit-identical to it.
            h = max(1, self.PANEL // gram.shape[1])
            for p in range(0, gram.shape[0], h):
                acc = gram[p : p + h]
                acc[...] = 0.0
                for a, b in zip(xi[:, p : p + h], xj):
                    diff = np.subtract.outer(a, b)
                    acc += np.square(diff, out=diff)
                np.divide(acc, -2.0 * self.sigma**2, out=acc)
                np.exp(acc, out=acc)
            # ridge term on the global diagonal only
            di = np.arange(i0, r1)
            on_diag = (di >= j0) & (di < c1)
            gram[np.flatnonzero(on_diag), di[on_diag] - j0] += 1.0 / self.gamma


def _real_window(lay: BlockLayout, j: int) -> np.ndarray:
    """b consecutive real indices covering block j's real span, that span first."""
    lo, hi = min((j - 1) * lay.b, lay.m), min(j * lay.b, lay.m)
    return np.concatenate([np.arange(lo, hi), np.arange(hi - lay.b, lo)])


def _swap(lay: BlockLayout, t: int) -> np.ndarray:
    """Element map exchanging block 1 with block t."""
    idx = np.arange(lay.n).reshape(lay.k, lay.b)
    idx[[0, t - 1]] = idx[[t - 1, 0]]
    return idx.ravel()


def _run_maps(lay: BlockLayout, alpha: int, beta: int) -> tuple[np.ndarray, np.ndarray]:
    """Element row and column maps for one padded-target run.

    Both maps lead with _real_window's b indices (beta's for rows, alpha's
    for cols), so the target's real entries sit at the origin of the
    computed window. They park up to b padding indices at the tail of the
    last block and any overflow at the tail of the anchor block, at
    identical positions in both maps, and fill the remaining slots with
    the leftover real indices, shared middle first so the two maps agree
    wherever they can.
    """
    b, m, n, l = lay.b, lay.m, lay.n, lay.l
    lead_a = _real_window(lay, alpha)
    lead_b = _real_window(lay, beta)
    real = np.arange(m)
    in_a = np.isin(real, lead_a)
    in_b = np.isin(real, lead_b)
    common = real[~in_a & ~in_b]
    pads = np.arange(m, n)
    over = max(0, l - b)  # padding beyond the last block's tail capacity

    def weave(lead: np.ndarray, rest: np.ndarray) -> np.ndarray:
        head, mid = rest[: b - over], rest[b - over :]
        return np.concatenate([lead, head, pads[:over], mid, pads[over:]])

    rmap = weave(lead_b, np.concatenate([common, real[in_a & ~in_b]]))
    cmap = weave(lead_a, np.concatenate([common, real[in_b & ~in_a]]))
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
    strips once, here, so a fetch only reads. Both maps must hold each
    padding index at one position (else ValueError), so its one lies on
    the diagonal of a diagonal block. Read-only after construction.
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
        m, b = layout.m, layout.b
        # Clipped at m - 1, real indices all look alike and each padding index unique.
        if self._mapped and not np.array_equal(np.maximum(rmap, m - 1), np.maximum(cmap, m - 1)):
            raise ValueError("row and column maps must hold each padding index at one position")
        self._rows = _strips(self._rmap, layout)
        self._cols = _strips(self._cmap, layout)
        # Each block's padding offsets; their ones lie on the diagonal of block (a, a).
        pads = np.flatnonzero(self._rmap >= m).tolist()
        self._pads = [[p - a * b for p in pads if p // b == a] for a in range(layout.k)]

    def fetch_block(self, alpha: int, beta: int, ws: Workspace) -> Block:
        """Fetch block (alpha, beta), 1-based, into one freshly allocated buffer."""
        k, b = self.layout.k, self.layout.b
        if not (1 <= alpha <= k and 1 <= beta <= k):
            raise IndexOutOfRangeError(f"block ({alpha}, {beta}) outside 1..{k}")
        rows, cols = self._rows[alpha - 1], self._cols[beta - 1]
        # Every strip is written in place. Without padding the strips cover the
        # block, so it needs no zero fill; with padding the gaps stay zero.
        out = np.zeros((b, b)) if self._pads[alpha - 1] or self._pads[beta - 1] else np.empty((b, b))
        for p, e, h in rows:
            for q, f, w in cols:
                self.source.rect(e, e + h, f, f + w, out[p : p + h, q : q + w])
        if alpha == beta:
            for p in self._pads[alpha - 1]:
                out[p, p] = 1.0
        return Block(out, ws)

    def input_block(self, i: int, j: int) -> tuple[int, int]:
        """Block of the padded input holding the first row and column of block (i, j)."""
        b = self.layout.b
        return (int(self._rmap[(i - 1) * b]) // b + 1, int(self._cmap[(j - 1) * b]) // b + 1)

    def run_view(self, alpha: int, beta: int):
        """View to reduce for target block (alpha, beta), plus a finisher.

        Returns (provider, finish). The view's leading inverse block holds
        the target's real entries at its origin: by the plain exchange of
        block row 1 with beta and block column 1 with alpha, or on a padded
        layout by an element-shifted window. finish is None when the target
        block holds no padding; otherwise it zeroes the window past the
        target's real rows and columns, sets the padding diagonal when
        alpha == beta, and returns the array it was given.
        A view is final: calling run_view on one raises ValueError.
        """
        lay = self.layout
        if self._mapped:
            raise ValueError("run_view was called on a view; call it on the base provider")
        if not (1 <= alpha <= lay.k and 1 <= beta <= lay.k):
            raise IndexOutOfRangeError(f"inverse block ({alpha}, {beta}) outside 1..{lay.k}")
        if lay.l == 0:
            return BlockProvider(self.source, lay, _swap(lay, beta), _swap(lay, alpha)), None
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
        # their rows (or vice versa) inside interior pivots, singular for
        # every M. View rows index the *columns* of the inverse, so the
        # leading row window carries beta's span.
        view = BlockProvider(self.source, lay, *_run_maps(lay, alpha, beta))
        # The window's leading h rows and w columns are the target's real entries.
        h = min(lay.b, max(0, lay.m - (alpha - 1) * lay.b))
        w = min(lay.b, max(0, lay.m - (beta - 1) * lay.b))
        if h == w == lay.b:
            return view, None

        def finish(win: np.ndarray) -> np.ndarray:
            win[h:] = 0.0
            win[:, w:] = 0.0
            if alpha == beta:
                np.fill_diagonal(win[h:, h:], 1.0)
            return win

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
    return BlockProvider(source, BlockLayout.for_order(len(source.matrix), k))


def make_file_provider(path, k: int) -> BlockProvider:
    """Provider over a BRIM file; each fetch reads its row segments into the block.

    The file stays open until the provider is closed (``with provider:``).
    """
    source = _FileSource(path)
    try:
        return BlockProvider(source, BlockLayout.for_order(source.reader.m, k))
    except BaseException:
        source.reader.close()  # a rejected layout leaks no file
        raise


def make_kernel_provider(spec: KernelSpec, k: int) -> BlockProvider:
    """Provider over a kernel system matrix, elements recomputed per fetch."""
    return BlockProvider(spec, BlockLayout.for_order(spec.order, k))


def kernel_matrix(spec: KernelSpec) -> np.ndarray:
    """The full order-(n+1) kernel system matrix as one dense array."""
    out = np.empty((spec.order, spec.order))
    spec.rect(0, spec.order, 0, spec.order, out)
    return out
