"""BRIM files, block sinks, and the benchmark CSV."""

import csv
import gc
import json
import mmap
import os
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bri import (
    BlockLayout,
    BrimReader,
    BrimSink,
    DimensionMismatchError,
    FormatError,
    IndexOutOfRangeError,
    MemorySink,
    MissingBlocksError,
    read_matrix,
    write_matrix,
)
from bri import formats
from bri.cli import main
from bri.formats import HEADER_BYTES
from conftest import rng


def _rect(reader: BrimReader, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """The rectangle, read into a fresh destination."""
    return reader.read_rect(r0, r1, c0, c1, np.empty((r1 - r0, c1 - c0)))


class TestMatrixRoundTrip:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "i3.brim"
        write_matrix(path, np.eye(3))
        np.testing.assert_array_equal(read_matrix(path), np.eye(3))

    def test_write_is_byte_deterministic(self, tmp_path):
        a = rng(1).standard_normal((5, 5))
        p1, p2 = tmp_path / "a.brim", tmp_path / "b.brim"
        write_matrix(p1, a)
        write_matrix(p2, a)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_bits(self, tmp_path):
        a = rng(2).standard_normal((7, 7))
        path = tmp_path / "a.brim"
        write_matrix(path, a)
        back = read_matrix(path)
        assert np.array_equal(back, a)
        assert back.tobytes() == a.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.brim"
        write_matrix(path, np.zeros((6, 6)))
        raw = path.read_bytes()
        assert raw[:4] == b"BRIM"
        assert struct.unpack("<I", raw[4:8])[0] == 1
        assert struct.unpack("<Q", raw[8:16])[0] == 6
        assert raw[16] == 1
        assert raw[17:24] == bytes(7)
        assert len(raw) == 24 + 8 * 36

    def test_rejects_non_square(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            write_matrix(tmp_path / "x.brim", np.zeros((2, 3)))

    def test_rejects_order_zero(self, tmp_path):
        with pytest.raises(DimensionMismatchError, match="order >= 1"):
            write_matrix(tmp_path / "x.brim", np.empty((0, 0)))
        assert not (tmp_path / "x.brim").exists()


class TestHeaderValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.brim"
        write_matrix(path, np.eye(2))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            BrimReader(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.brim"
        path.write_bytes(b"BRIM\x01")
        with pytest.raises(FormatError, match="truncated"):
            BrimReader(path)

    def test_size_must_match_order(self, tmp_path):
        path = tmp_path / "cut.brim"
        write_matrix(path, np.eye(3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])  # drop one element
        with pytest.raises(FormatError, match="expected"):
            BrimReader(path)

    def test_order_zero_is_refused(self, tmp_path):
        path = tmp_path / "empty.brim"
        path.write_bytes(formats._pack_header(0))
        with pytest.raises(FormatError, match="order 0"):
            BrimReader(path)

    def test_reader_reports_the_order(self, tmp_path):
        path = tmp_path / "a.brim"
        write_matrix(path, np.eye(5))
        with BrimReader(path) as reader:
            assert type(reader.m) is int and reader.m == 5

    def test_version_zero_flagged_as_partial(self, tmp_path):
        path = tmp_path / "part.brim"
        write_matrix(path, np.eye(2))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="partial"):
            read_matrix(path)


class TestBrimReader:
    @pytest.mark.parametrize(
        "offset, patch, match",
        [
            (0, b"NOPE", "magic"),
            (4, struct.pack("<I", 0), "partial"),
            (16, b"\x02", "dtype tag 2"),
            (None, b"", "expected"),
        ],
        ids=["bad-magic", "version-0", "dtype-tag", "wrong-size"],
    )
    def test_bad_header_raises_and_closes(self, tmp_path, offset, patch, match):
        path = tmp_path / "bad.brim"
        write_matrix(path, np.eye(3))
        raw = bytearray(path.read_bytes())
        if offset is None:
            raw = raw[:-8]  # one element short
        else:
            raw[offset : offset + len(patch)] = patch
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=match):
            BrimReader(path)
        # A leaked handle warns when collected; pyproject turns that into an error.
        gc.collect()

    def test_opens_its_file_once(self, tmp_path):
        path = tmp_path / "a.brim"
        write_matrix(path, np.eye(3))
        with mock.patch("builtins.open", wraps=open) as spy:
            BrimReader(path).close()
        assert spy.call_count == 1

    def test_rect_reads_match_dense_slices(self, tmp_path):
        a = rng(3).standard_normal((9, 9))
        path = tmp_path / "a.brim"
        write_matrix(path, a)
        with BrimReader(path) as reader:
            assert reader.m == 9
            np.testing.assert_array_equal(_rect(reader, 0, 3, 0, 3), a[0:3, 0:3])
            np.testing.assert_array_equal(_rect(reader, 2, 9, 4, 7), a[2:9, 4:7])
            np.testing.assert_array_equal(_rect(reader, 8, 9, 8, 9), a[8:9, 8:9])

    @pytest.mark.parametrize("rect", [(0, 5, 0, 1), (2, 1, 0, 1), (0, 1, -1, 1)])
    def test_rect_outside_order_is_refused(self, tmp_path, rect):
        path = tmp_path / "a.brim"
        write_matrix(path, np.eye(4))
        with BrimReader(path) as reader, pytest.raises(IndexOutOfRangeError, match="order 4"):
            reader.read_rect(*rect, np.empty((1, 1)))

    def test_rect_is_owned_native_float64(self, tmp_path):
        path = tmp_path / "a.brim"
        write_matrix(path, np.eye(4))
        dest = np.empty((2, 4))
        with BrimReader(path) as reader:
            out = reader.read_rect(1, 3, 0, 4, dest)
        assert out is dest  # filled in place and handed back, no copy
        assert out.dtype == np.float64 and out.dtype.isnative
        np.testing.assert_array_equal(out, np.eye(4)[1:3])

    # One mapping of the 4-row span, or, with the span cut to one 72-byte
    # stride of the order-9 file, one mapping per row.
    @pytest.mark.parametrize("span, maps", [(None, 1), (72, 4)], ids=["mapped", "per-row"])
    def test_reads_into_a_column_slice(self, tmp_path, span, maps):
        a = rng(9).standard_normal((9, 9))
        path = tmp_path / "a.brim"
        write_matrix(path, a)
        dest = np.full((6, 7), -1.0)
        window = dest[1:5, 2:6]  # rows 4 apart in memory, each contiguous
        with (
            BrimReader(path) as reader,
            mock.patch.object(formats, "_SPAN_LIMIT", span or formats._SPAN_LIMIT),
            mock.patch.object(mmap, "mmap", wraps=mmap.mmap) as map_spy,
        ):
            assert reader.read_rect(3, 7, 1, 5, window) is window
            # A wrong shape, dtype or byte order, or rows that are not each
            # contiguous, would be misread (rounded, or a BufferError).
            for bad in (window[:, :3], window.astype(np.float32), window.astype(">f8"), dest[1:5, ::2]):
                with pytest.raises(DimensionMismatchError, match="destination"):
                    reader.read_rect(3, 7, 1, 5, bad)
        assert map_spy.call_count == maps
        np.testing.assert_array_equal(window, a[3:7, 1:5])
        window[...] = -1.0
        assert (dest == -1.0).all()  # nothing outside the window was written

    def test_truncated_file_raises_short_read(self, tmp_path):
        a = rng(4).standard_normal((6, 6))
        path = tmp_path / "a.brim"
        write_matrix(path, a)
        dest = np.zeros((4, 8))  # each read fills a column slice of it
        with BrimReader(path) as reader:
            # Cut the file inside row 4, after the reader validated its size.
            os.truncate(path, HEADER_BYTES + (4 * 6 + 2) * 8)
            reader.read_rect(0, 4, 0, 6, dest[:, 1:7])
            np.testing.assert_array_equal(dest[:, 1:7], a[0:4])
            # Rows 3..5 would be one mapping; the error names row 4, the first past the end.
            with pytest.raises(FormatError, match=f"short read at byte {HEADER_BYTES + 4 * 6 * 8}:"):
                reader.read_rect(3, 6, 0, 6, dest[:3, 2:8])
            np.testing.assert_array_equal(dest[0, 2:8], a[3])  # rows before the cut are in

    def test_truncated_file_per_row_names_the_short_row(self, tmp_path):
        a = rng(4).standard_normal((6, 6))
        path = tmp_path / "a.brim"
        write_matrix(path, a)
        dest = np.zeros((5, 8))
        with (
            BrimReader(path) as reader,
            mock.patch.object(formats, "_SPAN_LIMIT", 6 * 8),  # one row per mapping
            mock.patch.object(mmap, "mmap", wraps=mmap.mmap) as map_spy,
        ):
            os.truncate(path, HEADER_BYTES + (4 * 6 + 2) * 8)
            reader.read_rect(0, 4, 1, 5, dest[:4, 2:6])
            np.testing.assert_array_equal(dest[:4, 2:6], a[0:4, 1:5])
            map_spy.reset_mock()
            with pytest.raises(FormatError, match=f"short read at byte {HEADER_BYTES + 4 * 6 * 8}:"):
                reader.read_rect(1, 6, 0, 6, dest[:, 1:7])
            # Rows 1..3 lie inside the file and are filled first. The first read
            # kept the whole-row mappings of its last two rows, 2 and 3, and both
            # start at byte 0 (the granule boundary below them); row 3's ends
            # with row 3, at byte 24 + 4 * 48, so it holds rows 1..3: no new mapping.
            assert map_spy.call_count == 0
            np.testing.assert_array_equal(dest[:3, 1:7], a[1:4])

    def test_concurrent_reads_match_dense_slices(self, tmp_path):
        assert _concurrent_mismatches(tmp_path, 40) == [[], [], [], []]

    def test_concurrent_reads_share_kept_mappings(self, tmp_path):
        # Three rows per mapping of a 320 kB file: reads span several chunks,
        # threads evict mappings another thread just used, and a kept mapping
        # often starts a granule below the read that copies from it.
        with mock.patch.object(formats, "_SPAN_LIMIT", 3 * 8 * 200):
            assert _concurrent_mismatches(tmp_path, 200) == [[], [], [], []]


def _concurrent_mismatches(tmp_path, m: int) -> list:
    """Per thread, the rectangles four threads sharing one reader misread."""
    a = rng(5).standard_normal((m, m))
    path = tmp_path / "a.brim"
    write_matrix(path, a)
    rects = [
        (r0, r0 + h, c0, c0 + w)
        for r0, h, c0, w in rng(6).integers(0, m // 2, size=(200, 4)).tolist()
    ]

    def mismatches(offset: int, reader: BrimReader) -> list:
        # Each thread walks the same rectangles from a different start,
        # so calls on the shared reader interleave at different offsets.
        bad = []
        for j in range(len(rects)):
            r0, r1, c0, c1 = rects[(j + offset) % len(rects)]
            if not np.array_equal(_rect(reader, r0, r1, c0, c1), a[r0:r1, c0:c1]):
                bad.append((r0, r1, c0, c1))
        return bad

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with BrimReader(path) as reader, ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(mismatches, 50 * t, reader) for t in range(4)]
            return [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)


# Orders of the files the rectangle property reads: at 600 a full-width read
# spans 2.88 MB of the file, more than one mapping may hold.
_RECT_ORDERS = (1, 7, 40, 600)


@pytest.fixture(scope="module")
def rect_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("rects")
    files = {}
    for m in _RECT_ORDERS:
        a = rng(m).standard_normal((m, m))
        write_matrix(root / f"{m}.brim", a)
        files[m] = (root / f"{m}.brim", a)
    return files


@st.composite
def rectangles(draw):
    m = draw(st.sampled_from(_RECT_ORDERS))
    r0, r1 = sorted(draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
    full_width = draw(st.booleans())  # cols == m: no gap between row segments
    c0, c1 = (0, m) if full_width else sorted(draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
    # A mapping span of p - 1 or p rows (a single row below one stride), capped at the real limit.
    span = draw(st.integers(1, m + 1)) * 8 * m - draw(st.integers(0, 8 * m - 1))
    return m, r0, r1, c0, c1, min(span, formats._SPAN_LIMIT)


def _maps(rows: int, cols: int, m: int, span: int) -> int:
    """Mappings of a rows x cols read of an order-m file: ceil(rows / rows per mapping)."""
    return -(-rows // max(1, span // (8 * m))) if rows and cols else 0


class TestReadRectGroups:
    @settings(max_examples=60, deadline=None)
    @given(rect=rectangles())
    @example(rect=(600, 0, 600, 0, 600, formats._SPAN_LIMIT))
    @example(rect=(600, 10, 580, 100, 350, formats._SPAN_LIMIT))
    @example(rect=(600, 0, 600, 0, 600, 1))
    def test_read_rect_equals_dense_slice(self, rect_files, rect):
        m, r0, r1, c0, c1, span = rect
        path, a = rect_files[m]
        with (
            BrimReader(path) as reader,
            mock.patch.object(formats, "_SPAN_LIMIT", span),
            mock.patch.object(mmap, "mmap", wraps=mmap.mmap) as map_spy,
        ):
            np.testing.assert_array_equal(_rect(reader, r0, r1, c0, c1), a[r0:r1, c0:c1])
        assert map_spy.call_count == _maps(r1 - r0, c1 - c0, m, span)

    # Rows are 4800 bytes apart in the order-600 file.
    @pytest.mark.parametrize(
        "span, cols, maps",
        [
            (None, 600, 2),  # 436 rows per 2 MiB mapping
            (None, 100, 2),  # the gap between segments does not change the count
            (4800, 600, 600),  # one row per mapping
            (3 * 4800 + 8, 100, 200),  # three rows per mapping
        ],
        ids=["full-width", "100-cols", "row-per-map", "three-rows-per-map"],
    )
    def test_read_count(self, rect_files, span, cols, maps):
        path, a = rect_files[600]
        span = span or formats._SPAN_LIMIT
        assert maps == _maps(600, cols, 600, span)
        with (
            BrimReader(path) as reader,
            mock.patch.object(formats, "_SPAN_LIMIT", span),
            mock.patch.object(mmap, "mmap", wraps=mmap.mmap) as map_spy,
            mock.patch.object(os, "preadv", wraps=os.preadv) as read_spy,
        ):
            np.testing.assert_array_equal(_rect(reader, 0, 600, 0, cols), a[:, :cols])
        assert (map_spy.call_count, read_spy.call_count) == (maps, 0)

    def test_mappings_stay_within_the_span_limit(self, rect_files):
        path, a = rect_files[600]
        with BrimReader(path) as reader, mock.patch.object(mmap, "mmap", wraps=mmap.mmap) as map_spy:
            np.testing.assert_array_equal(_rect(reader, 0, 600, 0, 600), a)
        lengths = [call.args[1] for call in map_spy.call_args_list]
        # The file is 2.88 MB; a mapping starts up to one granule below its first row.
        assert sum(lengths) >= 600 * 4800
        assert max(lengths) <= formats._SPAN_LIMIT + mmap.ALLOCATIONGRANULARITY

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_at_most_two_mappings_outlive_a_read(self, tmp_path):
        m = 200  # rows 1600 bytes apart: a 320 kB file, many pages long
        a = rng(8).standard_normal((m, m))
        path = tmp_path / "a.brim"
        write_matrix(path, a)

        def mappings() -> int:
            with open("/proc/self/maps") as fh:
                return sum(line.rstrip().endswith(str(path)) for line in fh)

        rects = [
            (r0, r0 + h, c0, c0 + w)
            for r0, h, c0, w in rng(9).integers(1, m // 2, size=(40, 4)).tolist()
        ]
        with BrimReader(path) as reader, mock.patch.object(formats, "_SPAN_LIMIT", 10 * 8 * m):  # ten rows per mapping
            with mock.patch.object(mmap, "mmap", wraps=mmap.mmap) as map_spy:
                _rect(reader, 150, 160, 0, 5)
                _rect(reader, 150, 160, 120, 200)  # the same rows, other columns
            assert map_spy.call_count == 1 and mappings() == 1
            for r0, r1, c0, c1 in rects:
                np.testing.assert_array_equal(_rect(reader, r0, r1, c0, c1), a[r0:r1, c0:c1])
                assert 1 <= mappings() <= 2
            # Keep rows 150..159 mapped, then cut the file inside row 152: the
            # kept mapping's pages past the new end would raise SIGBUS if touched.
            _rect(reader, 150, 160, 0, m)
            os.truncate(path, HEADER_BYTES + (152 * m + 3) * 8)
            dest = np.zeros((10, m))
            with pytest.raises(FormatError, match=f"short read at byte {HEADER_BYTES + 152 * m * 8}:"):
                reader.read_rect(150, 160, 0, m, dest)
            np.testing.assert_array_equal(dest[:2], a[150:152])  # rows before the cut are in
            assert 1 <= mappings() <= 2
        assert mappings() == 0  # close() unmapped them


class TestBrimSink:
    def test_streams_unpadded_blocks(self, tmp_path):
        a = rng(4).standard_normal((4, 4))
        lay = BlockLayout.for_order(4, 2)
        path = tmp_path / "out.brim"
        with BrimSink(path, lay) as sink:
            for alpha in (1, 2):
                for beta in (1, 2):
                    r0, c0 = (alpha - 1) * 2, (beta - 1) * 2
                    sink.put(alpha, beta, a[r0 : r0 + 2, c0 : c0 + 2])
        np.testing.assert_array_equal(read_matrix(path), a)

    def test_trims_padding_to_original_order(self, tmp_path):
        # order 10 split 4 ways pads to 12; the sink stores only 10x10
        lay = BlockLayout.for_order(10, 4)
        assert (lay.b, lay.l) == (3, 2)
        full = rng(5).standard_normal((12, 12))
        path = tmp_path / "out.brim"
        with BrimSink(path, lay) as sink:
            for alpha in range(1, 5):
                for beta in range(1, 5):
                    r0, c0 = (alpha - 1) * 3, (beta - 1) * 3
                    sink.put(alpha, beta, full[r0 : r0 + 3, c0 : c0 + 3])
        out = read_matrix(path)
        assert out.shape == (10, 10)
        np.testing.assert_array_equal(out, full[:10, :10])

    def test_accepts_out_of_order_and_repeated_puts(self, tmp_path):
        lay = BlockLayout.for_order(4, 2)
        path = tmp_path / "out.brim"
        with BrimSink(path, lay) as sink:
            for alpha, beta in ((2, 2), (1, 2), (2, 1), (1, 1), (2, 2)):
                sink.put(alpha, beta, np.full((2, 2), float(alpha * 10 + beta)))
        out = read_matrix(path)
        assert out[0, 0] == 11.0 and out[2, 2] == 22.0

    def test_finalize_requires_every_block(self, tmp_path):
        lay = BlockLayout.for_order(4, 2)
        sink = BrimSink(tmp_path / "out.brim", lay)
        try:
            for alpha, beta in ((1, 1), (1, 2), (2, 1)):
                sink.put(alpha, beta, np.zeros((2, 2)))
            with pytest.raises(MissingBlocksError) as exc:
                sink.finalize()
            assert (2, 2) in exc.value.missing
        finally:
            sink.close()

    def test_unfinalized_file_keeps_partial_marker(self, tmp_path):
        lay = BlockLayout.for_order(4, 2)
        path = tmp_path / "out.brim"
        sink = BrimSink(path, lay)
        sink.put(1, 1, np.eye(2))
        sink.close()
        header = struct.unpack("<I", path.read_bytes()[4:8])[0]
        assert header == 0
        with pytest.raises(FormatError, match="partial"):
            read_matrix(path)

    def test_failed_header_write_closes_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0)
        with pytest.raises(OSError, match="short write"):
            BrimSink(tmp_path / "out.brim", BlockLayout.for_order(4, 2))
        # A leaked handle warns when collected; pyproject turns that into an error.
        gc.collect()

    def test_rejects_bad_shape_and_index(self, tmp_path):
        lay = BlockLayout.for_order(4, 2)
        with BrimSink(tmp_path / "out.brim", lay) as sink:
            with pytest.raises(DimensionMismatchError):
                sink.put(1, 1, np.zeros((3, 3)))
            with pytest.raises(IndexOutOfRangeError):
                sink.put(0, 1, np.zeros((2, 2)))
            for alpha in (1, 2):
                for beta in (1, 2):
                    sink.put(alpha, beta, np.zeros((2, 2)))


class TestMemorySink:
    def test_trims_like_the_file_sink(self):
        lay = BlockLayout.for_order(3, 2)
        sink = MemorySink(lay)
        full = rng(6).standard_normal((4, 4))
        for alpha in (1, 2):
            for beta in (1, 2):
                r0, c0 = (alpha - 1) * 2, (beta - 1) * 2
                sink.put(alpha, beta, full[r0 : r0 + 2, c0 : c0 + 2])
        out = sink.finalize()
        assert out.shape == (3, 3)
        np.testing.assert_array_equal(out, full[:3, :3])

    def test_finalize_requires_every_block(self):
        sink = MemorySink(BlockLayout.for_order(4, 2))
        sink.put(1, 1, np.zeros((2, 2)))
        with pytest.raises(MissingBlocksError):
            sink.finalize()


@pytest.mark.parametrize("sink_cls", [BrimSink, MemorySink])
def test_sinks_reject_wrong_shape_and_index(tmp_path, sink_cls):
    lay = BlockLayout.for_order(4, 2)
    sink = sink_cls(tmp_path / "out.brim", lay) if sink_cls is BrimSink else sink_cls(lay)
    try:
        for shape in ((3, 3), (1, 1), (2, 3)):
            with pytest.raises(DimensionMismatchError):
                sink.put(1, 1, np.ones(shape))
        for alpha, beta in ((0, 1), (1, 3)):
            with pytest.raises(IndexOutOfRangeError):
                sink.put(alpha, beta, np.ones((2, 2)))
        with pytest.raises(MissingBlocksError):  # no rejected block counts as received
            sink.finalize()
    finally:
        if sink_cls is BrimSink:
            sink.close()



class TestBenchCsv:
    def test_round_trip(self, capsys, tmp_path):
        # the CSV read back carries what the same run reports as JSON
        path = tmp_path / "bench.csv"
        assert main(["bench", "--m", "12", "--k-list", "2,3", "--repeat", "1",
                     "--csv", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert report["csv"] == str(path)
        assert len(records) == 3
        by_run = {(r["method"], int(r["k"])): r for r in records}
        assert sorted(by_run) == [(row["method"], row["k"]) for row in report["rows"]]
        for row in report["rows"]:
            rec = by_run[row["method"], row["k"]]
            assert int(rec["m"]) == 12 and int(rec["seed"]) == 42
            assert int(rec["peak_bytes"]) == row["peak_bytes"]
            assert float(rec["wall_ms"]) == pytest.approx(row["median_wall_ms"], abs=5e-4)
