"""Block providers: layouts, sources, permutation views, padded windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bri import (
    BadPartitionError,
    BlockLayout,
    BrimReader,
    DimensionMismatchError,
    IndexOutOfRangeError,
    KernelSpec,
    SingularBlockError,
    SingularPivotError,
    Workspace,
    gauge_scope,
    invert_block,
    kernel_matrix,
    make_file_provider,
    make_kernel_provider,
    make_memory_provider,
    materialize,
    permute_provider,
    write_matrix,
)
from bri.providers import _run_maps
from conftest import rng, shifted


class TestBlockLayout:
    @pytest.mark.parametrize(
        "m, k, b, l", [(4, 2, 2, 0), (10, 4, 3, 2), (3, 2, 2, 1), (64, 8, 8, 0)]
    )
    def test_minimal_padding(self, m, k, b, l):
        lay = BlockLayout.for_order(m, k)
        assert (lay.b, lay.l) == (b, l)
        assert lay.n == m + l == k * b

    def test_rejects_degenerate(self):
        with pytest.raises(BadPartitionError):
            BlockLayout.for_order(4, 1)
        with pytest.raises(BadPartitionError):
            BlockLayout.for_order(0, 2)


class TestMemoryProvider:
    def test_identity_off_diagonal_block_is_zero(self, ws):
        prov = make_memory_provider(np.eye(4), 2)
        blk = prov.fetch_block(1, 2, ws)
        assert not blk.data.any()
        blk.release()

    def test_blocks_are_dense_slices(self, ws):
        a = rng(21).standard_normal((6, 6))
        prov = make_memory_provider(a, 3)
        for alpha in range(1, 4):
            for beta in range(1, 4):
                blk = prov.fetch_block(alpha, beta, ws)
                r0, c0 = (alpha - 1) * 2, (beta - 1) * 2
                np.testing.assert_array_equal(blk.data, a[r0 : r0 + 2, c0 : c0 + 2])
                blk.release()
        assert ws.gauge.live_blocks == 0

    def test_source_copy_is_isolated(self):
        a = np.eye(2)
        prov = make_memory_provider(a, 2)
        a[0, 0] = 9.0
        blk = prov.fetch_block(1, 1)
        assert blk.data[0, 0] == 1.0


class TestFileProvider:
    def test_matches_memory_provider_blockwise(self, tmp_path, ws):
        a = rng(22).standard_normal((6, 6))
        path = tmp_path / "a.brim"
        write_matrix(path, a)
        mem = make_memory_provider(a, 3)
        with make_file_provider(path, 3) as fil:
            for alpha in range(1, 4):
                for beta in range(1, 4):
                    x = mem.fetch_block(alpha, beta, ws)
                    y = fil.fetch_block(alpha, beta, ws)
                    assert np.array_equal(x.data, y.data)
                    x.release()
                    y.release()

    def test_single_fetch_stays_block_sized(self, tmp_path, ws):
        # resident gauge-tracked memory per fetch: the one returned block
        a = rng(23).standard_normal((64, 64))
        path = tmp_path / "a.brim"
        write_matrix(path, a)
        with make_file_provider(path, 4) as prov, gauge_scope(ws.gauge) as scope:
            blk = prov.fetch_block(3, 2, ws)
            blk.release()
        assert scope.peak_blocks <= 2
        np.testing.assert_array_equal(blk.data, a[32:48, 16:32])

    def test_unpadded_block_run_reads_once_per_fetch(self, tmp_path, monkeypatch, ws):
        # k = 4 fetches 4^(k-1) = 64 blocks; each whole block is one read
        path = tmp_path / "a.brim"
        write_matrix(path, shifted(16, 24))
        calls = []
        read_rect = BrimReader.read_rect

        def counted(self, *rect):
            calls.append(rect)
            return read_rect(self, *rect)

        monkeypatch.setattr(BrimReader, "read_rect", counted)
        with make_file_provider(path, 4) as prov:
            invert_block(prov, 3, 2, ws).release()
        assert len(calls) == 64
        assert all(r1 - r0 == c1 - c0 == 4 for r0, r1, c0, c1 in calls)

    def test_provider_closes_its_file(self, tmp_path):
        path = tmp_path / "a.brim"
        write_matrix(path, np.eye(4))
        with make_file_provider(path, 2) as prov:
            view, _ = prov.run_view(2, 1)
            assert view.source is prov.source
        assert prov.source.reader._fh.closed
        with make_memory_provider(np.eye(4), 2) as mem:  # nothing to close
            pass
        assert mem.fetch_block(1, 1).data[0, 0] == 1.0


class TestKernelProvider:
    def test_corner_block(self, ws):
        spec = KernelSpec(inputs=np.zeros((3, 1)), gamma=1.0, sigma=1.0)
        prov = make_kernel_provider(spec, 2)
        blk = prov.fetch_block(1, 1, ws)
        np.testing.assert_allclose(blk.data, [[0.0, 1.0], [1.0, 2.0]], atol=0)
        blk.release()

    def test_full_matrix_structure(self):
        spec = KernelSpec(inputs=rng(30).standard_normal((3, 2)), gamma=2.0, sigma=1.0)
        a = kernel_matrix(spec)
        assert a.shape == (4, 4)
        assert a[0, 0] == 0.0
        np.testing.assert_array_equal(a[0, 1:], np.ones(3))
        np.testing.assert_array_equal(a[1:, 0], np.ones(3))
        # ridge 1/gamma on the interior diagonal, K(x, x) = 1
        np.testing.assert_allclose(np.diag(a)[1:], 1.5, atol=0)
        np.testing.assert_array_equal(a, a.T)

    def test_wide_kernel_saturates_to_ones(self):
        x = rng(31).random((4, 1))  # pairwise distances below 1
        spec = KernelSpec(inputs=x, gamma=1.0, sigma=1e8)
        a = kernel_matrix(spec)
        off = a[1:, 1:][~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 1.0, rtol=0, atol=1e-12)

    def test_matches_materialized_fetches(self):
        spec = KernelSpec(inputs=rng(32).standard_normal((5, 3)), gamma=1.5, sigma=0.8)
        prov = make_kernel_provider(spec, 2)
        np.testing.assert_array_equal(materialize(prov), kernel_matrix(spec))

    def test_spec_validation(self):
        with pytest.raises(BadPartitionError):
            KernelSpec(inputs=np.ones((2, 1)), gamma=0.0)
        with pytest.raises(BadPartitionError):
            KernelSpec(inputs=np.ones((2, 1)), sigma=-1.0)
        with pytest.raises(DimensionMismatchError):
            KernelSpec(inputs=np.ones((0, 1)))


class TestPermutedProvider:
    def test_unit_target_is_identity_view(self, ws):
        a = rng(40).standard_normal((6, 6))
        base = make_memory_provider(a, 3)
        view = permute_provider(base, 1, 1)
        np.testing.assert_array_equal(materialize(view), a)

    def test_scalar_example(self):
        base = make_memory_provider(np.array([[4.0, 2.0], [1.0, 3.0]]), 2)
        view = permute_provider(base, 2, 2)
        np.testing.assert_array_equal(materialize(view), [[3.0, 1.0], [2.0, 4.0]])

    def test_swaps_row_beta_and_col_alpha(self):
        a = rng(41).standard_normal((6, 6))
        base = make_memory_provider(a, 3)
        swapped = materialize(permute_provider(base, 3, 2))
        rows = [2, 3, 0, 1, 4, 5]  # block rows 1 and beta=2 exchanged, b=2
        cols = [4, 5, 2, 3, 0, 1]  # block cols 1 and alpha=3 exchanged
        np.testing.assert_array_equal(swapped, a[np.ix_(rows, cols)])

    def test_involution(self):
        a = rng(42).standard_normal((6, 6))
        base = make_memory_provider(a, 3)
        for alpha in range(1, 4):
            for beta in range(1, 4):
                twice = permute_provider(permute_provider(base, alpha, beta), alpha, beta)
                np.testing.assert_array_equal(materialize(twice), a)

    def test_leading_window_of_view_inverse_is_target_block(self):
        # the invariant the whole permutation scheme rests on
        a = shifted(6, 43)
        inv = np.linalg.inv(a)
        base = make_memory_provider(a, 3)
        for alpha in range(1, 4):
            for beta in range(1, 4):
                view = materialize(permute_provider(base, alpha, beta))
                win = np.linalg.inv(view)[:2, :2]
                target = inv[(alpha - 1) * 2 : alpha * 2, (beta - 1) * 2 : beta * 2]
                np.testing.assert_allclose(win, target, atol=1e-12)

    def test_rejects_out_of_range_target(self):
        base = make_memory_provider(np.eye(4), 2)
        with pytest.raises(IndexOutOfRangeError):
            permute_provider(base, 3, 1)


class TestAugmentedProvider:
    def test_no_padding_is_passthrough(self, ws):
        a = rng(50).standard_normal((4, 4))
        prov = make_memory_provider(a, 2)
        assert prov.layout.l == 0
        np.testing.assert_array_equal(materialize(prov, trim=False), a)

    def test_padded_corner_block(self, ws):
        a = rng(51).standard_normal((3, 3))
        prov = make_memory_provider(a, 2)
        blk = prov.fetch_block(2, 2, ws)
        np.testing.assert_array_equal(blk.data, [[a[2, 2], 0.0], [0.0, 1.0]])
        blk.release()

    def test_materializes_identity_padding(self):
        a = rng(52).standard_normal((10, 10))
        prov = make_memory_provider(a, 4)
        full = materialize(prov, trim=False)
        assert full.shape == (12, 12)
        np.testing.assert_array_equal(full[:10, :10], a)
        np.testing.assert_array_equal(full[10:, 10:], np.eye(2))
        assert not full[:10, 10:].any() and not full[10:, :10].any()
        np.testing.assert_array_equal(materialize(prov), a)


class TestRunViewMaps:
    @pytest.mark.parametrize("m, k", [(10, 4), (8, 6), (3, 2), (13, 4), (11, 7)])
    def test_maps_are_paired_bijections(self, m, k):
        lay = BlockLayout.for_order(m, k)
        assert lay.l > 0
        for alpha in range(1, k + 1):
            for beta in range(1, k + 1):
                rmap, cmap = _run_maps(lay, alpha, beta)
                assert sorted(rmap) == list(range(lay.n))
                assert sorted(cmap) == list(range(lay.n))
                rpad = np.flatnonzero(rmap >= m)
                cpad = np.flatnonzero(cmap >= m)
                # padding sits at identical positions in both maps, only
                # ever inside block 2 or block k
                np.testing.assert_array_equal(rpad, cpad)
                np.testing.assert_array_equal(rmap[rpad], cmap[cpad])
                blocks = set(rpad // lay.b + 1)
                assert blocks <= {2, k}

    def test_window_rows_cover_target_block(self):
        lay = BlockLayout.for_order(10, 4)
        for alpha in range(1, 5):
            for beta in range(1, 5):
                rmap, cmap = _run_maps(lay, alpha, beta)
                # leading row strip carries beta's span, columns alpha's
                assert rmap[0] == min((beta - 1) * lay.b, lay.m - lay.b)
                assert cmap[0] == min((alpha - 1) * lay.b, lay.m - lay.b)
                np.testing.assert_array_equal(np.diff(rmap[: lay.b]), 1)
                np.testing.assert_array_equal(np.diff(cmap[: lay.b]), 1)

    def test_shifted_view_window_inverts_to_target(self, ws):
        a = shifted(10, 53)
        inv = np.linalg.inv(a)
        gamma = np.zeros((12, 12))
        gamma[:10, :10] = a
        gamma[10:, 10:] = np.eye(2)
        prov = make_memory_provider(a, 4)
        for alpha, beta in ((2, 3), (4, 1), (1, 4), (4, 4)):
            view, finish = prov.run_view(alpha, beta)
            rmap, cmap = _run_maps(prov.layout, alpha, beta)
            dense_view = materialize(view, trim=False)
            np.testing.assert_array_equal(dense_view, gamma[np.ix_(rmap, cmap)])
            # view rows index inverse columns, so the window transposes maps
            win = np.linalg.inv(dense_view)[:3, :3]
            a0 = min((alpha - 1) * 3, 7)
            b0 = min((beta - 1) * 3, 7)
            np.testing.assert_allclose(win, inv[a0 : a0 + 3, b0 : b0 + 3], atol=1e-12)
            out = finish(win)
            r0, c0 = (alpha - 1) * 3, (beta - 1) * 3
            want = np.zeros((3, 3))
            rr = min(3, 10 - r0)
            cc = min(3, 10 - c0)
            want[:rr, :cc] = inv[r0 : r0 + rr, c0 : c0 + cc]
            if alpha == beta:
                for t in range(rr, 3):
                    want[t, t] = 1.0
            np.testing.assert_allclose(out, want, atol=1e-12)

    def test_unpadded_run_view_keeps_plain_permutation(self):
        a = shifted(8, 54)
        prov = make_memory_provider(a, 4)
        view, finish = prov.run_view(2, 3)
        assert finish is None
        np.testing.assert_array_equal(materialize(view, trim=False), materialize(permute_provider(prov, 2, 3), trim=False))

    def test_padded_permuted_view_inverts_right_or_raises(self, ws):
        # A view that moved the padding has no identity corner for the
        # shifted window's finisher to restore; it keeps the plain exchange,
        # whose pivots may be singular but whose answers are never wrong.
        view = permute_provider(make_memory_provider(shifted(10, 58), 4), 4, 4)
        inv = np.linalg.inv(materialize(view, trim=False))
        solved = 0
        for alpha in range(1, 5):
            for beta in range(1, 5):
                try:
                    blk = invert_block(view, alpha, beta, ws)
                except (SingularBlockError, SingularPivotError):
                    continue
                want = inv[(alpha - 1) * 3 : alpha * 3, (beta - 1) * 3 : beta * 3]
                np.testing.assert_allclose(blk.data, want, atol=1e-9)
                blk.release()
                solved += 1
        assert solved > 0

    def test_padding_wider_than_two_blocks_rejected(self):
        prov = make_memory_provider(shifted(3, 55), 7)  # l = 4 > 2b = 2
        with pytest.raises(BadPartitionError, match="padding"):
            prov.run_view(1, 2)

    def test_two_block_padding_is_accepted(self, ws):
        # l = 4 equals 2b exactly at m=8, k=6
        a = shifted(8, 56)
        prov = make_memory_provider(a, 6)
        inv = np.linalg.inv(a)
        blk = invert_block(prov, 3, 4, ws)
        np.testing.assert_allclose(blk.data, inv[4:6, 6:8], atol=1e-9)
        blk.release()
        pad = invert_block(prov, 5, 5, ws)  # block fully inside the padding
        np.testing.assert_array_equal(pad.data, np.eye(2))
        pad.release()

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 40),
        k=st.integers(2, 8),
        alpha=st.integers(1, 8),
        beta=st.integers(1, 8),
    )
    def test_map_pairing_property(self, m, k, alpha, beta):
        lay = BlockLayout.for_order(m, k)
        if lay.l == 0 or alpha > k or beta > k:
            return
        if lay.k >= 5 and lay.l > 2 * lay.b:
            return
        rmap, cmap = _run_maps(lay, alpha, beta)
        assert sorted(rmap) == list(range(lay.n))
        assert sorted(cmap) == list(range(lay.n))
        rpad = np.flatnonzero(rmap >= lay.m)
        np.testing.assert_array_equal(rpad, np.flatnonzero(cmap >= lay.m))
        np.testing.assert_array_equal(rmap[rpad], cmap[rpad])

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 40),
        k=st.integers(2, 8),
        alpha=st.integers(1, 8),
        beta=st.integers(1, 8),
    )
    def test_permuted_view_gathers_swapped_blocks(self, m, k, alpha, beta):
        # padded layouts included: the identity corner moves with its blocks
        if alpha > k or beta > k:
            return
        lay = BlockLayout.for_order(m, k)
        gamma = np.eye(lay.n)
        gamma[:m, :m] = rng(57).standard_normal((m, m))
        prov = make_memory_provider(gamma[:m, :m], k)

        def swapped(t):
            order = list(range(k))
            order[0], order[t - 1] = order[t - 1], order[0]
            return [blk * lay.b + i for blk in order for i in range(lay.b)]

        view = materialize(permute_provider(prov, alpha, beta), trim=False)
        np.testing.assert_array_equal(view, gamma[np.ix_(swapped(beta), swapped(alpha))])

