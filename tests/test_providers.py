"""Block providers: layouts, sources, permutation views, padded windows."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bri import (
    BadPartitionError,
    BlockLayout,
    BlockProvider,
    BrimReader,
    DimensionMismatchError,
    IndexOutOfRangeError,
    KernelSpec,
    Workspace,
    invert_block,
    kernel_matrix,
    make_file_provider,
    make_kernel_provider,
    make_memory_provider,
    write_matrix,
)
from bri.providers import _run_maps, _swap
from conftest import dense, rng, shifted


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

    def test_rejects_non_square_input_and_outside_block(self, ws):
        with pytest.raises(DimensionMismatchError, match="square"):
            make_memory_provider(np.ones((2, 3)), 2)
        prov = make_memory_provider(np.eye(4), 2)
        for alpha, beta in [(3, 1), (1, 0)]:
            with pytest.raises(IndexOutOfRangeError):
                prov.fetch_block(alpha, beta, ws)
        assert ws.gauge.live_blocks == 0

    def test_source_copy_is_isolated(self, ws):
        a = np.eye(2)
        prov = make_memory_provider(a, 2)
        a[0, 0] = 9.0
        blk = prov.fetch_block(1, 1, ws)
        assert blk.data[0, 0] == 1.0
        blk.release()


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
        with make_file_provider(path, 4) as prov:
            blk = prov.fetch_block(3, 2, ws)
            data = blk.data
            blk.release()
        assert ws.gauge.peak_blocks <= 2
        np.testing.assert_array_equal(data, a[32:48, 16:32])

    def test_unpadded_block_run_reads_once_per_fetch(self, tmp_path, monkeypatch, ws):
        # k = 4 fetches 4^(k-1) = 64 blocks; each whole block is one read
        path = tmp_path / "a.brim"
        write_matrix(path, shifted(16, 24))
        calls = []
        read_rect = BrimReader.read_rect

        def counted(self, r0, r1, c0, c1, out):
            calls.append((r1 - r0, c1 - c0, out.shape))
            return read_rect(self, r0, r1, c0, c1, out)

        monkeypatch.setattr(BrimReader, "read_rect", counted)
        with make_file_provider(path, 4) as prov:
            invert_block(prov, 3, 2, ws).release()
        assert calls == [(4, 4, (4, 4))] * 64

    def test_opens_its_file_once(self, tmp_path):
        path = tmp_path / "a.brim"
        write_matrix(path, np.eye(4))
        with mock.patch("builtins.open", wraps=open) as spy:
            make_file_provider(path, 2).close()
        assert spy.call_count == 1

    def test_provider_closes_its_file(self, tmp_path, ws):
        path = tmp_path / "a.brim"
        write_matrix(path, np.eye(4))
        with make_file_provider(path, 2) as prov:
            view, _ = prov.run_view(2, 1)
            assert view.source is prov.source
        assert prov.source.reader._fh.closed
        with make_memory_provider(np.eye(4), 2) as mem:  # nothing to close
            pass
        assert mem.fetch_block(1, 1, ws).data[0, 0] == 1.0


class TestKernelProvider:
    def test_corner_block(self, ws):
        spec = KernelSpec(inputs=np.zeros((3, 1)), gamma=1.0, sigma=1.0)
        prov = make_kernel_provider(spec, 2)
        blk = prov.fetch_block(1, 1, ws)
        np.testing.assert_allclose(blk.data, [[0.0, 1.0], [1.0, 2.0]], atol=0)
        blk.release()

    def test_inputs_are_copied(self, ws):
        x = rng(31).standard_normal((3, 2))
        prov = make_kernel_provider(KernelSpec(x), 2)
        assert x.flags.writeable
        before = prov.fetch_block(2, 2, ws)
        x *= 2.0  # moves every pairwise distance
        after = prov.fetch_block(2, 2, ws)
        np.testing.assert_array_equal(after.data, before.data)
        before.release()
        after.release()

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
        np.testing.assert_array_equal(dense(prov), kernel_matrix(spec))

    @pytest.mark.parametrize("x", [rng(33).standard_normal(4), [0.5, 1.0, 2.0]], ids=["array", "list"])
    def test_one_dimensional_inputs_are_refused(self, x):
        with pytest.raises(DimensionMismatchError, match=r"\(n, d\)"):
            KernelSpec(inputs=x)

    def test_spec_validation(self):
        with pytest.raises(BadPartitionError):
            KernelSpec(inputs=np.ones((2, 1)), gamma=0.0)
        with pytest.raises(BadPartitionError):
            KernelSpec(inputs=np.ones((2, 1)), sigma=-1.0)
        with pytest.raises(DimensionMismatchError):
            KernelSpec(inputs=np.ones((0, 1)))


class TestPermutedProvider:
    def test_unit_target_is_identity_view(self):
        a = rng(40).standard_normal((6, 6))
        view, finish = make_memory_provider(a, 3).run_view(1, 1)
        assert finish is None
        np.testing.assert_array_equal(dense(view), a)

    def test_scalar_example(self):
        base = make_memory_provider(np.array([[4.0, 2.0], [1.0, 3.0]]), 2)
        view, _ = base.run_view(2, 2)
        np.testing.assert_array_equal(dense(view), [[3.0, 1.0], [2.0, 4.0]])

    def test_swaps_row_beta_and_col_alpha(self):
        a = rng(41).standard_normal((6, 6))
        view, _ = make_memory_provider(a, 3).run_view(3, 2)
        rows = [2, 3, 0, 1, 4, 5]  # block rows 1 and beta=2 exchanged, b=2
        cols = [4, 5, 2, 3, 0, 1]  # block cols 1 and alpha=3 exchanged
        np.testing.assert_array_equal(dense(view), a[np.ix_(rows, cols)])

    @pytest.mark.parametrize("m", [6, 5], ids=["plain", "padded"])
    def test_view_refuses_run_view(self, m):
        view, _ = make_memory_provider(shifted(m, 42), 3).run_view(2, 3)
        with pytest.raises(ValueError, match="base provider"):
            view.run_view(2, 3)

    def test_leading_window_of_view_inverse_is_target_block(self):
        # the invariant the whole permutation scheme rests on
        a = shifted(6, 43)
        inv = np.linalg.inv(a)
        base = make_memory_provider(a, 3)
        for alpha in range(1, 4):
            for beta in range(1, 4):
                view, _ = base.run_view(alpha, beta)
                win = np.linalg.inv(dense(view))[:2, :2]
                target = inv[(alpha - 1) * 2 : alpha * 2, (beta - 1) * 2 : beta * 2]
                np.testing.assert_allclose(win, target, atol=1e-12)

    def test_rejects_out_of_range_target(self):
        base = make_memory_provider(np.eye(4), 2)
        with pytest.raises(IndexOutOfRangeError):
            base.run_view(3, 1)
        with pytest.raises(IndexOutOfRangeError):
            base.run_view(1, 0)


class TestAugmentedProvider:
    def test_no_padding_is_passthrough(self, ws):
        a = rng(50).standard_normal((4, 4))
        prov = make_memory_provider(a, 2)
        assert prov.layout.l == 0
        np.testing.assert_array_equal(dense(prov), a)

    def test_padded_corner_block(self, ws):
        a = rng(51).standard_normal((3, 3))
        prov = make_memory_provider(a, 2)
        blk = prov.fetch_block(2, 2, ws)
        np.testing.assert_array_equal(blk.data, [[a[2, 2], 0.0], [0.0, 1.0]])
        blk.release()

    def test_materializes_identity_padding(self):
        a = rng(52).standard_normal((10, 10))
        prov = make_memory_provider(a, 4)
        full = dense(prov)
        assert full.shape == (12, 12)
        np.testing.assert_array_equal(full[:10, :10], a)
        np.testing.assert_array_equal(full[10:, 10:], np.eye(2))
        assert not full[:10, 10:].any() and not full[10:, :10].any()


class TestFetchWritesEveryElement:
    @pytest.mark.parametrize("m, k", [(12, 4), (10, 4), (13, 4), (17, 6)])
    @pytest.mark.parametrize("kind", ["memory", "file", "kernel"])
    def test_no_element_is_left_from_a_dirty_buffer(self, tmp_path, ws, kind, m, k):
        # A block with no padding is allocated unfilled; dropping a NaN block of
        # the same size before each fetch likely hands that memory back to it.
        if kind == "kernel":
            spec = KernelSpec(rng(60).standard_normal((m - 1, 2)))
            a, prov = kernel_matrix(spec), make_kernel_provider(spec, k)
        else:
            a = rng(60).standard_normal((m, m))
            write_matrix(tmp_path / "a.brim", a)
            prov = make_memory_provider(a, k) if kind == "memory" else make_file_provider(tmp_path / "a.brim", k)
        lay = prov.layout
        gamma = np.eye(lay.n)
        gamma[:m, :m] = a
        with prov:
            views = [(prov, gamma)] + [
                (view, gamma[np.ix_(view._rmap, view._cmap)])
                for view in (prov.run_view(i, j)[0] for i in range(1, k + 1) for j in range(1, k + 1))
            ]
            for view, want in views:
                for i in range(1, k + 1):
                    for j in range(1, k + 1):
                        dirty = np.full((lay.b, lay.b), np.nan)
                        del dirty
                        blk = view.fetch_block(i, j, ws)
                        sl = np.s_[(i - 1) * lay.b : i * lay.b, (j - 1) * lay.b : j * lay.b]
                        np.testing.assert_array_equal(blk.data, want[sl])
                        blk.release()


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
        # Each map's first b entries are b consecutive real indices that
        # start with the target's real span: beta's for rows, alpha's for cols.
        for m, k in ((10, 4), (13, 4), (5, 4), (23, 5)):
            lay = BlockLayout.for_order(m, k)
            b = lay.b
            for alpha in range(1, k + 1):
                for beta in range(1, k + 1):
                    rmap, cmap = _run_maps(lay, alpha, beta)
                    for lead, t in ((rmap[:b], beta), (cmap[:b], alpha)):
                        span = np.arange((t - 1) * b, min(t * b, m))
                        np.testing.assert_array_equal(lead[: span.size], span)
                        lo = lead.min()
                        np.testing.assert_array_equal(np.sort(lead), np.arange(lo, lo + b))
                        assert lo + b <= m

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
            dense_view = dense(view)
            np.testing.assert_array_equal(dense_view, gamma[np.ix_(rmap, cmap)])
            # view rows index inverse columns, so the window transposes maps
            win = np.linalg.inv(dense_view)[:3, :3]
            np.testing.assert_allclose(win, inv[np.ix_(cmap[:3], rmap[:3])], atol=1e-12)
            if (alpha, beta) == (2, 3):  # all real: the window is the target
                assert finish is None
                np.testing.assert_allclose(win, inv[3:6, 6:9], atol=1e-12)
                continue
            out = finish(win)
            assert out is win  # written in place
            r0, c0 = (alpha - 1) * 3, (beta - 1) * 3
            want = np.zeros((3, 3))
            rr = min(3, 10 - r0)
            cc = min(3, 10 - c0)
            want[:rr, :cc] = inv[r0 : r0 + rr, c0 : c0 + cc]
            if alpha == beta:
                for t in range(rr, 3):
                    want[t, t] = 1.0
            np.testing.assert_allclose(out, want, atol=1e-12)

    @pytest.mark.parametrize("m, k", [(10, 4), (13, 4), (5, 4), (23, 5), (382, 6)])
    def test_only_targets_holding_padding_are_finished(self, ws, m, k):
        a = shifted(m, 59)
        prov = make_memory_provider(a, k)
        b = prov.layout.b
        inv = np.eye(prov.layout.n)
        inv[:m, :m] = np.linalg.inv(a)
        for alpha in range(1, k + 1):
            for beta in range(1, k + 1):
                _, finish = prov.run_view(alpha, beta)
                assert (finish is None) == (alpha * b <= m and beta * b <= m)
                blk = invert_block(prov, alpha, beta, ws)
                want = inv[(alpha - 1) * b : alpha * b, (beta - 1) * b : beta * b]
                np.testing.assert_allclose(blk.data, want, atol=1e-9)
                blk.release()

    def test_unpadded_run_view_keeps_plain_permutation(self):
        a = shifted(8, 54)
        prov = make_memory_provider(a, 4)
        view, finish = prov.run_view(2, 3)
        assert finish is None
        lay = prov.layout
        np.testing.assert_array_equal(dense(view), a[np.ix_(_swap(lay, 3), _swap(lay, 2))])

    def test_maps_must_share_padding(self):
        prov = make_memory_provider(shifted(10, 53), 4)  # l = 2, b = 3
        lay = prov.layout
        with pytest.raises(ValueError, match="padding"):  # at different positions
            BlockProvider(prov.source, lay, _swap(lay, 4), _swap(lay, 1))
        rmap, cmap = _run_maps(lay, 4, 1)
        BlockProvider(prov.source, lay, rmap, cmap)
        i, j = np.flatnonzero(rmap >= 10)
        rmap[[i, j]] = rmap[[j, i]]
        with pytest.raises(ValueError, match="padding"):  # same positions, other indices
            BlockProvider(prov.source, lay, rmap, cmap)

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

        rmap, cmap = _swap(lay, beta), _swap(lay, alpha)
        if lay.l == 0:
            view, _ = prov.run_view(alpha, beta)
        elif np.array_equal(np.where(rmap >= m, rmap, -1), np.where(cmap >= m, cmap, -1)):
            # run_view shifts padded targets; build the plain exchange directly
            view = BlockProvider(prov.source, lay, rmap, cmap)
        else:  # the exchange would move padding ones off the diagonal
            with pytest.raises(ValueError, match="padding"):
                BlockProvider(prov.source, lay, rmap, cmap)
            return
        np.testing.assert_array_equal(dense(view), gamma[np.ix_(swapped(beta), swapped(alpha))])

