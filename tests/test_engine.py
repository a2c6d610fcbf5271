"""Reduction engine: frames, Schur elimination, single-block and full inversion."""

import tracemalloc

import numpy as np
import pytest

from bri import (
    BadPartitionError,
    Frame,
    FrameTooSmallError,
    IndexOutOfRangeError,
    KernelSpec,
    MemorySink,
    Quadrant,
    SingularBlockError,
    SingularPivotError,
    Workspace,
    invert_block,
    invert_full,
    lu_invert_full,
    make_file_provider,
    make_kernel_provider,
    make_memory_provider,
    predicted_counts,
    reduce_frame,
    root_frame,
    split_frame,
    write_matrix,
)
from bri.engine import _fold
from conftest import full_inverse, replay, rng, shifted

A, B, C, D = Quadrant.A, Quadrant.B, Quadrant.C, Quadrant.D


class TestFoldOrder:
    # pivot, rt, l, r for each pivot quadrant: r - l @ (inv(pivot) @ rt)
    PLAN = {
        D: (D, C, B, A),
        C: (C, D, A, B),
        B: (B, A, D, C),
        A: (A, B, C, D),
    }

    @pytest.mark.parametrize("q", list(Quadrant))
    def test_fold_fetches_operands_in_plan_order(self, ws, q):
        asked = []

        def get(key):
            asked.append(key)
            return ws.from_array(np.eye(2) * (2.0 + key))

        _fold(get, q, ws).release()
        assert asked == list(self.PLAN[q])
        assert ws.gauge.live_blocks == 0

    def test_leaf_fetches_rows_by_high_bit_and_cols_by_low_bit(self, ws):
        prov = make_memory_provider(shifted(8, 91), 4)
        fetched = []
        fetch = prov.fetch_block

        def spy(i, j, w):
            fetched.append((i, j))
            return fetch(i, j, w)

        prov.fetch_block = spy
        frame = Frame((3, 2), (4, 1), (A, C))
        reduce_frame(prov, frame, ws).release()
        want = [(frame.rows[q >> 1], frame.cols[q & 1]) for q in self.PLAN[D]]
        assert fetched == want == [(2, 1), (2, 4), (3, 1), (3, 4)]


class TestFrames:
    def test_root_frame(self):
        f = root_frame(4)
        assert f.rows == (1, 2, 3, 4) and f.cols == (1, 2, 3, 4)
        assert f.path == (A,)
        assert f.anchor == (2, 2)

    def test_split_children_k4(self):
        a, b, c, d = split_frame(root_frame(4))
        assert a.rows == (1, 2, 3) and a.cols == (1, 2, 3) and a.path == (A, A)
        assert b.rows == (1, 2, 3) and b.cols == (3, 2, 4) and b.path == (A, B)
        assert c.rows == (3, 2, 4) and c.cols == (1, 2, 3) and c.path == (A, C)
        assert d.rows == (3, 2, 4) and d.cols == (3, 2, 4) and d.path == (A, D)

    def test_split_children_k3(self):
        a, _, _, d = split_frame(root_frame(3))
        assert a.rows == (1, 2) and a.cols == (1, 2)
        assert d.rows == (3, 2) and d.cols == (3, 2)

    def test_anchor_invariant_across_whole_tree(self):
        def walk(frame):
            assert frame.anchor == (2, 2)
            if frame.n > 2:
                for child in split_frame(frame):
                    walk(child)

        walk(root_frame(6))

    def test_leaf_cannot_split(self):
        with pytest.raises(FrameTooSmallError):
            split_frame(root_frame(2))

    def test_frame_validation(self):
        with pytest.raises(FrameTooSmallError):
            Frame((1, 2), (1, 2, 3), (A,))
        with pytest.raises(FrameTooSmallError):
            Frame((1,), (1,), (A,))


class TestReduceFrame:
    def test_identity_reduces_to_one(self, ws):
        prov = make_memory_provider(np.eye(4), 4)
        out = reduce_frame(prov, root_frame(4), ws)
        assert out.data[0, 0] == 1.0
        out.release()
        assert ws.gauge.live_blocks == 0

    def test_k2_is_one_schur_step(self, ws):
        prov = make_memory_provider(np.array([[4.0, 2.0], [1.0, 3.0]]), 2)
        out = reduce_frame(prov, root_frame(2), ws)
        assert out.data[0, 0] == pytest.approx(10.0 / 3.0, abs=1e-15)

    def test_matches_dense_schur_complement(self, ws):
        a = shifted(5, 81)
        prov = make_memory_provider(a, 5)
        out = reduce_frame(prov, root_frame(5), ws)
        want = a[0, 0] - a[0, 1:] @ np.linalg.inv(a[1:, 1:]) @ a[1:, 0]
        assert out.data[0, 0] == pytest.approx(want, abs=1e-9)

    def test_replayed_frame_reports_its_full_path(self, ws):
        # the frame a reduction starts from carries its path from the root
        a = shifted(6, 85)
        a[2:4, 2:4] = 0.0  # every pivot's anchor block
        view, _ = make_memory_provider(a, 3).run_view(1, 1)
        with pytest.raises(SingularPivotError) as exc:
            reduce_frame(view, replay(3, (A, D)), ws)
        assert exc.value.path == (A, D)


class TestPredictedCounts:
    # geometric node total (4^(k-1) - 1) / 3, one extra inversion at the root
    @pytest.mark.parametrize(
        "k, nodes", [(2, 1), (3, 5), (4, 21), (5, 85), (6, 341), (7, 1365)]
    )
    def test_node_series(self, k, nodes):
        c = predicted_counts(k)
        assert c.schur_nodes == nodes
        assert c.block_inversions == nodes + 1
        assert c.block_multiplications == 2 * nodes
        assert c.block_subtractions == nodes

    def test_rejects_degenerate_partition(self):
        with pytest.raises(BadPartitionError):
            predicted_counts(1)


class TestInvertBlock:
    def test_worked_example_all_blocks(self, ws):
        prov = make_memory_provider(np.array([[4.0, 2.0], [1.0, 3.0]]), 2)
        for (alpha, beta), want in {
            (1, 1): 0.3, (1, 2): -0.2, (2, 1): -0.1, (2, 2): 0.4,
        }.items():
            out = invert_block(prov, alpha, beta, ws)
            assert out.data[0, 0] == pytest.approx(want, abs=1e-15)
            out.release()
        assert ws.gauge.live_blocks == 0

    def test_identity_input_diagonal_targets(self, ws):
        prov = make_memory_provider(np.eye(6), 3)
        for alpha in range(1, 4):
            out = invert_block(prov, alpha, alpha, ws)
            np.testing.assert_array_equal(out.data, np.eye(2))
            out.release()

    def test_identity_input_off_diagonal_pivots_are_singular(self, ws):
        # the reduction for target (1, 2) must invert minors of I whose
        # row and column sets differ; those have zero rows, so the run
        # reports the singular pivot instead of inventing an answer
        prov = make_memory_provider(np.eye(6), 3)
        with pytest.raises(SingularPivotError):
            invert_block(prov, 1, 2, ws)

    def test_rejects_out_of_range_target(self, ws):
        prov = make_memory_provider(np.eye(4), 2)
        with pytest.raises(IndexOutOfRangeError):
            invert_block(prov, 0, 1, ws)
        with pytest.raises(IndexOutOfRangeError):
            invert_block(prov, 1, 3, ws)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_operation_counts_match_prediction(self, k):
        ws = Workspace()
        prov = make_memory_provider(shifted(k, 82), k)  # b = 1, no padding
        out = invert_block(prov, 1, 1, ws)
        out.release()
        want = predicted_counts(k)
        assert ws.counters.schur_nodes == want.schur_nodes
        assert ws.counters.block_inversions == want.block_inversions
        assert ws.counters.block_multiplications == want.block_multiplications
        assert ws.counters.block_subtractions == want.block_subtractions

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("b", [1, 4, 16])
    def test_peak_live_blocks_bound(self, k, b):
        ws = Workspace()
        prov = make_memory_provider(shifted(k * b, 83), k)
        out = invert_block(prov, 1, 1, ws)
        out.release()
        assert ws.gauge.peak_blocks == k

    # (m, k): unpadded, and padded with l = 2 and l = 3
    @pytest.mark.parametrize("m, k", [(8, 2), (12, 3), (8, 4), (10, 4), (13, 4), (15, 5)])
    def test_peak_is_k_for_every_target(self, m, k):
        # the buffer discipline of the engine docstring: k live blocks, one
        # fewer than the k + 1 of a multiply that allocates its product
        prov = make_memory_provider(shifted(m, 92), k)
        for alpha in range(1, k + 1):
            for beta in range(1, k + 1):
                ws = Workspace()
                invert_block(prov, alpha, beta, ws).release()
                assert ws.gauge.peak_blocks == k, (alpha, beta)
                assert ws.gauge.live_blocks == 0
        ws = Workspace()
        invert_full(prov, MemorySink(prov.layout), ws)
        assert ws.gauge.peak_blocks == k

    def test_k_invariance_of_full_inverse(self):
        a = shifted(12, 84)
        inverses = [full_inverse(a, k) for k in (2, 3, 4)]
        for x in inverses[1:]:
            assert np.abs(x - inverses[0]).max() <= 1e-8

    def test_zero_anchor_block_reports_branch(self, ws):
        a = shifted(6, 85)
        a[2:4, 2:4] = 0.0  # second block row/column pivot
        prov = make_memory_provider(a, 3)
        with pytest.raises(SingularPivotError) as exc:
            invert_block(prov, 1, 1, ws)
        err = exc.value
        assert len(err.path) >= 1 and err.path[0] is A
        assert err.pivot_block == (2, 2)
        # the reported branch replays to a frame whose anchor fetches the
        # zero block that caused the failure
        frame = replay(3, err.path)
        ar, ac = frame.anchor
        blk = prov.fetch_block(ar, ac, ws)
        assert not blk.data.any()
        blk.release()
        assert "A/D" in str(err)

    @pytest.mark.parametrize(
        "zeroed, target, m, k, path",
        [
            pytest.param((1, 2), (1, 2), 6, 3, None, id="zeroed0-target0"),
            pytest.param((2, 1), (2, 3), 6, 3, None, id="zeroed1-target1"),
            # padded (l = 2): the shifted window still names input block (2, 2)
            pytest.param((2, 2), (4, 1), 10, 4, (A, D, A), id="padded"),
        ],
    )
    def test_pivot_block_names_the_input_block(self, ws, zeroed, target, m, k, path):
        # every frame's anchor is the view's block (2, 2); the error names
        # the input block holding its first row and column, and the path
        # replays on the view to the zero block
        a = shifted(m, 90)
        b = -(-m // k)
        i, j = zeroed
        a[b * i - b : b * i, b * j - b : b * j] = 0.0
        prov = make_memory_provider(a, k)
        with pytest.raises(SingularPivotError) as exc:
            invert_block(prov, *target, ws)
        assert exc.value.pivot_block == zeroed
        assert path is None or exc.value.path == path
        assert isinstance(exc.value.__cause__, SingularBlockError)
        view, _ = prov.run_view(*target)
        ar, ac = replay(k, exc.value.path).anchor
        blk = view.fetch_block(ar, ac, ws)
        assert not blk.data.any()
        blk.release()


class TestTraceHook:
    def test_b_branch_values_and_root(self, ws):
        # scalar-block 4x4 case; every reduction lands on a closed formula
        a = shifted(4, 7)
        m = {(i, j): a[i - 1, j - 1] for i in range(1, 5) for j in range(1, 5)}
        leaf_a = m[1, 3] - m[1, 2] / m[2, 2] * m[2, 3]
        leaf_b = m[1, 4] - m[1, 2] / m[2, 2] * m[2, 4]
        leaf_c = m[3, 3] - m[3, 2] / m[2, 2] * m[2, 3]
        leaf_d = m[3, 4] - m[3, 2] / m[2, 2] * m[2, 4]
        node_b = leaf_b - leaf_a / leaf_c * leaf_d
        # frozen from the oracle freeze run, guarding the transcription
        assert leaf_a == pytest.approx(-0.280110, abs=1e-6)
        assert node_b == pytest.approx(-0.984281, abs=1e-6)

        # each branch value replayed on the (1, 1) run's view
        prov = make_memory_provider(a, 4)
        view, _ = prov.run_view(1, 1)

        def value(path) -> float:
            blk = reduce_frame(view, replay(4, path), ws)
            v = blk.data[0, 0]
            blk.release()
            return v

        for path, want in {
            (A, B, A): leaf_a, (A, B, B): leaf_b,
            (A, B, C): leaf_c, (A, B, D): leaf_d,
            (A, B): node_b,
        }.items():
            assert value(path) == pytest.approx(want, abs=1e-12)
        # root reduction inverts to the (1,1) entry of the dense inverse
        root = value((A,))
        assert 1.0 / root == pytest.approx(np.linalg.inv(a)[0, 0], abs=1e-12)
        out = invert_block(prov, 1, 1, ws)
        assert out.data[0, 0] == pytest.approx(1.0 / root, abs=1e-15)
        out.release()


class TestInvertFull:
    def test_near_identity_reassembles(self):
        # exact I is outside the algorithm's domain for off-diagonal
        # targets (singular pivot minors); a generic perturbation of it
        # is the closest well-posed case
        a = np.eye(4) + 0.01 * rng(95).standard_normal((4, 4))
        out = full_inverse(a, 2)
        np.testing.assert_allclose(out, np.linalg.inv(a), atol=1e-10)

    def test_matches_dense_oracle(self):
        a = shifted(8, 87)
        out = full_inverse(a, 4)
        ref = lu_invert_full(a)
        assert np.abs(out - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_padded_output_is_trimmed_and_exact(self):
        a = shifted(10, 88)
        out = full_inverse(a, 4)
        assert out.shape == (10, 10)
        ref = lu_invert_full(a)
        assert np.abs(out - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_summary_accounting(self):
        a = shifted(8, 89)
        prov = make_memory_provider(a, 4)
        sink = MemorySink(prov.layout)
        ws = Workspace()
        ws.counters.schur_nodes = 1  # a caller's workspace keeps its tally
        invert_full(prov, sink, ws)
        want = predicted_counts(4)
        assert ws.counters.schur_nodes == 16 * want.schur_nodes + 1
        assert ws.counters.block_inversions == 16 * want.block_inversions
        assert ws.gauge.peak_blocks == 4
        assert ws.gauge.live_blocks == 0


class TestLayoutSweep:
    """Structure of the default route over small layouts; accuracy is not gated here.

    k = 2..5 covers every order m <= 24. At k = 6 one order stands for each
    padding regime: 12 (l = 0), 17 (l <= b), 9 (b < l < 2b), 8 (l = 2b), and
    1, 2, 3 and 7 (l > 2b, refused).
    """

    @pytest.mark.parametrize(
        "k, orders",
        [(k, range(1, 25)) for k in (2, 3, 4, 5)] + [(6, (12, 17, 9, 8, 1, 2, 3, 7))],
        ids=["k2", "k3", "k4", "k5", "k6"],
    )
    def test_views_and_full_inverse(self, k, orders):
        for m in orders:
            prov = make_memory_provider(shifted(m, 1000 * k + m), k)
            lay = prov.layout
            refused = k >= 5 and lay.l > 2 * lay.b
            for alpha in range(1, k + 1):
                for beta in range(1, k + 1):
                    if refused:
                        with pytest.raises(BadPartitionError):
                            prov.run_view(alpha, beta)
                        continue
                    _, finish = prov.run_view(alpha, beta)
                    holds_padding = max(alpha, beta) * lay.b > m
                    assert (finish is not None) == holds_padding, (m, k, alpha, beta)
            if not refused:  # a singular pivot raises here
                sink = MemorySink(lay)
                invert_full(prov, sink, Workspace())
                sink.finalize()


class _Discard:
    """A sink that keeps nothing, so a traced peak shows only the block runs."""

    def put(self, alpha, beta, data):
        pass


def _traced(run) -> tuple[object, int]:
    """run()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def _single(prov, alpha, beta) -> int:
    """Gauge peak of one block run."""
    ws = Workspace()
    invert_block(prov, alpha, beta, ws).release()
    return ws.gauge.peak_blocks


class TestTracedPeak:
    # The gauge counts live blocks; tracemalloc counts every buffer Python
    # still holds. A released block that stays reachable (a fold's locals
    # across the recursion) would put the two apart by several blocks.
    @pytest.mark.parametrize("m, k", [(256, 4), (384, 6)])
    def test_within_one_block_of_the_gauge(self, m, k):
        prov = make_memory_provider(shifted(m, 96), k)
        block = 8 * (m // k) ** 2

        def full() -> int:
            ws = Workspace()
            invert_full(prov, _Discard(), ws)
            return ws.gauge.peak_blocks

        _single(prov, 2, 1)  # warm-up: first-call allocations are not the runs' own
        for run in (lambda: _single(prov, 2, 1), full):
            gauge, peak = _traced(run)
            assert peak < (gauge + 1) * block, (peak / block, gauge)

    # Padded layouts (l = 1 or 2) read strips of rows and columns; each is
    # written into the one block buffer the fetch allocates, and the
    # finisher clears the final inverse's padding in place. At k = 2 the
    # finish is the run's peak, so a finisher that allocated an output
    # block of its own would put the run above the gauge + 1 bound.
    @pytest.mark.parametrize("m, k", [(511, 2), (510, 4), (382, 6)])
    def test_padded_file_runs_within_one_block_of_the_gauge(self, tmp_path, m, k):
        path = tmp_path / "a.brim"
        write_matrix(path, shifted(m, 96))
        with make_file_provider(path, k) as prov:
            block = 8 * prov.layout.b**2
            _single(prov, k, 2)  # warm-up
            for target in [(k, 2), (2, k), (k, k), (1, k), (k, 1)]:
                gauge, peak = _traced(lambda: _single(prov, *target))
                assert gauge == k
                assert peak < (gauge + 1) * block, (target, peak / block)

    def test_padded_view_fetch_allocates_one_block(self, tmp_path):
        # The shifted view of a padded layout splits blocks into several
        # strips; a fetch still allocates only the block it returns.
        m, k = 510, 4
        path = tmp_path / "a.brim"
        write_matrix(path, shifted(m, 96))
        ws = Workspace()
        with make_file_provider(path, k) as prov:
            view, _ = prov.run_view(k, 2)
            block = 8 * prov.layout.b**2
            view.fetch_block(1, 1, ws).release()  # warm-up
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    _, peak = _traced(lambda: view.fetch_block(i, j, ws).release())
                    assert peak < 1.25 * block, ((i, j), peak / block)

    @pytest.mark.parametrize("order, k", [(768, 4), (576, 6)])
    def test_kernel_runs_within_one_block_of_the_gauge(self, order, k):
        # A kernel fetch fills its block a row panel of about 1024 elements
        # at a time, so its temporaries and numpy's staging buffers for
        # broadcast or strided operands are each at most that panel.
        # Measured peaks were 4.31 blocks at k=4 (b=192) and 6.67 at k=6
        # (b=96), so the memory runs' bound of gauge + 1 holds here too; a
        # whole (h, w, d) difference tensor per fetch traced 8.06 and 12.23.
        spec = KernelSpec(rng(98).standard_normal((order - 1, 3)))
        prov = make_kernel_provider(spec, k)
        block = 8 * prov.layout.b**2
        _single(prov, 2, 1)  # warm-up
        gauge, peak = _traced(lambda: _single(prov, 2, 1))
        assert gauge == k
        assert peak < (gauge + 1) * block, peak / block

    def test_block_run_holds_k_blocks_and_scratch(self):
        # Products written in place: one m=768, k=4 run (b=192) holds its
        # k blocks plus a quarter-block multiply panel and LAPACK's work
        # array, never a k + 1st block.
        m, k = 768, 4
        prov = make_memory_provider(shifted(m, 97), k)
        block = 8 * (m // k) ** 2
        ws = Workspace()
        invert_block(prov, 2, 1, ws).release()  # warm-up
        tracemalloc.start()
        try:
            invert_block(prov, 2, 1, ws).release()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ws.gauge.peak_blocks == k
        assert peak < (k + 0.5) * block, peak / block
