"""Matrix file format (BRIM) and streaming inverse sinks.

BRIM layout, little-endian throughout:

    bytes 0..3    magic ``b"BRIM"``
    bytes 4..7    format version, u32 (currently 1)
    bytes 8..15   matrix order m, u64
    byte  16      element dtype tag, u8 (1 = float64)
    bytes 17..23  reserved, zero
    bytes 24..    m*m float64 elements, row-major

A sink writes the header with version 0 first and stamps version 1 only on
a successful ``finalize()``, so an aborted or partial write is detectable:
readers reject version 0 files.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading

import numpy as np

from .errors import DimensionMismatchError, FormatError, IndexOutOfRangeError, MissingBlocksError

__all__ = [
    "MAGIC",
    "VERSION",
    "DTYPE_F64",
    "HEADER_BYTES",
    "write_matrix",
    "read_matrix",
    "BrimReader",
    "BrimSink",
    "MemorySink",
]

MAGIC = b"BRIM"
VERSION = 1
DTYPE_F64 = 1
HEADER_BYTES = 24
_HEADER_FMT = "<4sIQB7x"  # magic, version, order, dtype tag, reserved


def _pack_header(m: int, version: int = VERSION) -> bytes:
    return struct.pack(_HEADER_FMT, MAGIC, version, m, DTYPE_F64)


def _check_header(fh, origin: str) -> int:
    """Check the header and total size of the open BRIM file ``fh``; return its order."""
    raw = os.pread(fh.fileno(), HEADER_BYTES, 0)
    if len(raw) < HEADER_BYTES:
        raise FormatError(f"{origin}: truncated header ({len(raw)} of {HEADER_BYTES} bytes)")
    magic, version, m, dtype_tag = struct.unpack(_HEADER_FMT, raw)
    if magic != MAGIC:
        raise FormatError(f"{origin}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        note = " (version 0 marks a partial or aborted write)" if version == 0 else ""
        raise FormatError(f"{origin}: unsupported version {version}{note}")
    if dtype_tag != DTYPE_F64:
        raise FormatError(f"{origin}: unsupported dtype tag {dtype_tag}, expected {DTYPE_F64}")
    if m < 1:
        raise FormatError(f"{origin}: order {m}, expected at least 1")
    expected = HEADER_BYTES + 8 * m * m
    actual = os.fstat(fh.fileno()).st_size
    if actual != expected:
        raise FormatError(f"{origin}: expected {expected} bytes for order {m}, found {actual}")
    return m


def write_matrix(path, matrix) -> None:
    """Write a dense square matrix of order >= 1 as a BRIM file."""
    a = np.ascontiguousarray(matrix, dtype="<f8")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatchError(f"matrix must be square of order >= 1, got shape {a.shape}")
    with open(os.fspath(path), "wb") as fh:
        fh.write(_pack_header(a.shape[0]))
        a.tofile(fh)


# Bytes of the file one mapping may span (a longer row segment is mapped alone).
# A reader keeps _KEPT mappings open, so its reads hold at most twice this plus
# two pages of mapped file pages in RSS. Memory, not time, sets it: 2 MiB holds
# 192 rows of a 9.5 KiB stride (1.8 MiB), so a b=192 block row of an m=768 file
# (a 1.2 MB span) is one mapping.
_SPAN_LIMIT = 2 << 20

# Every leaf of the reduction is a 2x2 frame that reads two blocks from the
# anchor's block row (the same row for every leaf of a run) and two from one
# other row, so two kept mappings serve almost every read of a run.
_KEPT = 2


class BrimReader:
    """Random-access rectangle reads from a BRIM file (POSIX only).

    A rectangle is copied out of read-only mappings of consecutive runs of
    its rows, each spanning at most ``_SPAN_LIMIT`` bytes of the file and
    covering whole rows (one row segment when a row's stride is longer),
    so reads of other columns of those rows copy from it too. The two most
    recently used mappings stay open between reads, at most two mappings
    plus two pages of RSS, until ``close()``. Lookup and copy run under one
    lock, so concurrent callers may share a reader; the file offset never
    moves. The file must not shrink while a reader holds it: a read fills
    the rows inside the file, then names the first row segment past its
    end in a ``FormatError``; a shrink between that size check and the
    copy raises ``SIGBUS``.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fh = open(self.path, "rb")
        try:
            self.m = _check_header(self._fh, self.path)
        except BaseException:
            self._fh.close()
            raise
        self._kept: list[tuple[int, int, mmap.mmap]] = []  # (start, end, mapping), most recent first
        self._lock = threading.Lock()

    def read_rect(self, r0: int, r1: int, c0: int, c1: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (native float64, the rectangle's shape, rows contiguous); return it."""
        m = self.m
        if not (0 <= r0 <= r1 <= m and 0 <= c0 <= c1 <= m):
            raise IndexOutOfRangeError(f"rectangle [{r0}:{r1}, {c0}:{c1}] outside order {m}")
        if out.shape != (r1 - r0, c1 - c0) or out.dtype != np.float64 or not out[:1].flags.c_contiguous:
            raise DimensionMismatchError(f"destination {out.dtype}{out.shape} for [{r0}:{r1}, {c0}:{c1}]")
        if out.size:  # an empty rectangle has no bytes to map
            self._copy(HEADER_BYTES + (r0 * m + c0) * 8, out)
        return out

    def _copy(self, offset: int, out: np.ndarray) -> None:
        """Copy into ``out`` the row segments one stride apart from byte ``offset`` on."""
        fd, stride, row_bytes = self._fh.fileno(), self.m * 8, out.shape[1] * 8
        per_map = max(1, _SPAN_LIMIT // stride)
        try:
            size = os.fstat(fd).st_size
            inside = min(len(out), max(0, (size - offset - row_bytes) // stride + 1))
            for i in range(0, inside, per_map):
                rows = out[i : min(i + per_map, inside)]
                end = offset + (len(rows) - 1) * stride + row_bytes
                with self._lock:
                    start, mapped = self._mapping(offset, end, len(rows), size)
                    # The strided view is a temporary, released before the mapping
                    # can close; copyto converts its little-endian elements to native.
                    np.copyto(rows, np.ndarray(rows.shape, "<f8", mapped, offset - start, (stride, 8)))
                offset += len(rows) * stride
            if inside < len(out):  # offset is now the first row segment past the end
                raise FormatError(f"{self.path}: short read at byte {offset}: "
                                  f"expected {row_bytes} bytes, got {max(0, size - offset)}")
        except OSError as e:
            raise OSError(f"{self.path}: read failed at byte {offset}: {e}") from e

    def _mapping(self, lo: int, hi: int, rows: int, size: int) -> tuple[int, mmap.mmap]:
        """A kept mapping holding bytes lo..hi of ``rows`` rows, and its first byte.

        Call under ``_lock``. A miss unmaps the least recently used mapping
        and maps the rows whole, up to the file's ``size``.
        """
        for n, (start, end, mapped) in enumerate(self._kept):
            if start <= lo and hi <= end:
                self._kept.insert(0, self._kept.pop(n))
                return start, mapped
        if len(self._kept) == _KEPT:
            self._kept.pop()[2].close()
        stride = self.m * 8
        if stride <= _SPAN_LIMIT:
            lo -= (lo - HEADER_BYTES) % stride
            hi = min(lo + rows * stride, size)
        start = lo - lo % mmap.ALLOCATIONGRANULARITY
        mapped = mmap.mmap(self._fh.fileno(), hi - start, prot=mmap.PROT_READ, offset=start)
        self._kept.insert(0, (start, hi, mapped))
        return start, mapped

    def close(self) -> None:
        """Unmap the kept mappings, then close the file."""
        with self._lock:
            while self._kept:
                self._kept.pop()[2].close()
        self._fh.close()

    def __enter__(self) -> "BrimReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_matrix(path) -> np.ndarray:
    """Read a whole BRIM file into an m-by-m float64 array, by ``BrimReader``'s copy loop."""
    with BrimReader(path) as reader:
        out = np.empty((reader.m, reader.m))
        # Not read_rect, whose calls bribench/tracing.py counts as block fetches.
        reader._copy(HEADER_BYTES, out)
    return out


class _BlockSink:
    """What both inverse sinks share: the layout, the check of each
    submitted block, the trim of augmentation padding, and the check that
    all k*k blocks arrived. Puts are serialized under ``_lock``.
    """

    def __init__(self, layout):
        self.layout = layout
        self._received: set[tuple[int, int]] = set()
        self._lock = threading.Lock()

    def _region(self, alpha: int, beta: int, data) -> tuple[int, int, np.ndarray]:
        """Check block (alpha, beta); return its origin and its real (unpadded) part."""
        lay = self.layout
        if not (1 <= alpha <= lay.k and 1 <= beta <= lay.k):
            raise IndexOutOfRangeError(f"block ({alpha}, {beta}) outside 1..{lay.k}")
        data = np.asarray(data)
        if data.shape != (lay.b, lay.b):
            raise DimensionMismatchError(
                f"block ({alpha}, {beta}) has shape {data.shape}, expected ({lay.b}, {lay.b})"
            )
        r0 = (alpha - 1) * lay.b
        c0 = (beta - 1) * lay.b
        return r0, c0, data[: max(0, lay.m - r0), : max(0, lay.m - c0)]

    def _require_complete(self) -> None:
        lay = self.layout
        missing = sorted(
            (a, b)
            for a in range(1, lay.k + 1)
            for b in range(1, lay.k + 1)
            if (a, b) not in self._received
        )
        if missing:
            raise MissingBlocksError(missing)


class BrimSink(_BlockSink):
    """Stream inverse blocks to a BRIM file, trimming augmentation padding.

    Blocks may arrive in any order and from concurrent submitters (puts
    are serialized internally). Every write, header included, is an
    unbuffered positional ``os.pwrite``; a row goes straight from the
    block's memory. ``finalize`` requires all k*k blocks and only then
    stamps the header valid; without it the file keeps version 0 as a
    partial-output marker.
    """

    def __init__(self, path, layout):
        super().__init__(layout)
        self.path = os.fspath(path)
        self._fh = open(self.path, "w+b", buffering=0)
        try:
            self._pwrite(_pack_header(layout.m, version=0), 0)
            self._fh.truncate(HEADER_BYTES + 8 * layout.m * layout.m)
        except BaseException:
            self._fh.close()
            raise
        self._finalized = False

    def _pwrite(self, data, offset: int) -> None:
        """Write all of ``data`` at ``offset`` without moving the file offset."""
        got = os.pwrite(self._fh.fileno(), data, offset)
        if got != memoryview(data).nbytes:
            raise OSError(f"{self.path}: short write at byte {offset}")

    def put(self, alpha: int, beta: int, block) -> None:
        r0, c0, region = self._region(alpha, beta, block)
        m = self.layout.m
        with self._lock:
            for i, row in enumerate(region):
                # Straight from the block's row; converts only on big-endian hosts.
                row = np.ascontiguousarray(row, dtype="<f8")
                self._pwrite(row, HEADER_BYTES + ((r0 + i) * m + c0) * 8)
            self._received.add((alpha, beta))

    def finalize(self) -> None:
        self._require_complete()
        self._pwrite(_pack_header(self.layout.m), 0)
        self._finalized = True

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "BrimSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On a clean exit finalize; on error leave the version-0 marker.
        try:
            if exc_type is None and not self._finalized:
                self.finalize()
        finally:
            self.close()


class MemorySink(_BlockSink):
    """Collect inverse blocks into an in-memory m-by-m array (tests, verify)."""

    def __init__(self, layout):
        super().__init__(layout)
        self.canvas = np.zeros((layout.m, layout.m))

    def put(self, alpha: int, beta: int, block) -> None:
        r0, c0, region = self._region(alpha, beta, block)
        nrows, ncols = region.shape
        with self._lock:
            self.canvas[r0 : r0 + nrows, c0 : c0 + ncols] = region
            self._received.add((alpha, beta))

    def finalize(self) -> np.ndarray:
        self._require_complete()
        return self.canvas

