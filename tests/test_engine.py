"""Reduction engine: frames, Schur elimination, single-block and full inversion."""

import numpy as np
import pytest

from bri import (
    Frame,
    FrameTooSmallError,
    IndexOutOfRangeError,
    MemorySink,
    Quadrant,
    SingularPivotError,
    Workspace,
    frame_at,
    gauge_scope,
    invert_block,
    invert_full,
    lu_invert_full,
    make_file_provider,
    make_memory_provider,
    predicted_counts,
    reduce_frame,
    root_frame,
    schur_eliminate,
    split_frame,
    write_matrix,
)
from conftest import full_inverse, rng, shifted

A, B, C, D = Quadrant.A, Quadrant.B, Quadrant.C, Quadrant.D


class TestQuadrant:
    def test_mirror_mapping(self):
        assert A.mirror is D and D.mirror is A
        assert B.mirror is C and C.mirror is B

    def test_mirror_is_involution(self):
        for q in Quadrant:
            assert q.mirror.mirror is q


class TestFrames:
    def test_root_frame(self):
        f = root_frame(4)
        assert f.rows == (1, 2, 3, 4) and f.cols == (1, 2, 3, 4)
        assert f.label is A
        assert f.anchor == (2, 2)

    def test_split_children_k4(self):
        a, b, c, d = split_frame(root_frame(4))
        assert a.rows == (1, 2, 3) and a.cols == (1, 2, 3) and a.label is A
        assert b.rows == (1, 2, 3) and b.cols == (3, 2, 4) and b.label is B
        assert c.rows == (3, 2, 4) and c.cols == (1, 2, 3) and c.label is C
        assert d.rows == (3, 2, 4) and d.cols == (3, 2, 4) and d.label is D

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
            Frame((1, 2), (1, 2, 3), A)
        with pytest.raises(FrameTooSmallError):
            Frame((1,), (1,), A)

    def test_frame_at_replays_paths(self):
        assert frame_at(4, (A,)) == root_frame(4)
        assert frame_at(4, (A, B)) == split_frame(root_frame(4))[1]
        assert frame_at(4, (A, B, C)) == split_frame(split_frame(root_frame(4))[1])[2]

    def test_frame_at_requires_root_label(self):
        with pytest.raises(FrameTooSmallError):
            frame_at(4, (B,))
        with pytest.raises(FrameTooSmallError):
            frame_at(4, ())


class TestSchurEliminate:
    def test_block_diagonal_keeps_surviving_quadrant(self, ws):
        x = rng(80).standard_normal((2, 2))
        g = (
            (ws.from_array(x), ws.from_array(np.zeros((2, 2)))),
            (ws.from_array(np.zeros((2, 2))), ws.from_array(np.eye(2) * 2.0)),
        )
        out = schur_eliminate(g, D)
        np.testing.assert_array_equal(out.data, x)
        out.release()
        assert ws.gauge.live_blocks == 0

    def test_scalar_pivot_on_d(self, ws):
        g = (
            (ws.from_array([[4.0]]), ws.from_array([[2.0]])),
            (ws.from_array([[1.0]]), ws.from_array([[3.0]])),
        )
        out = schur_eliminate(g, D)
        assert out.data[0, 0] == pytest.approx(10.0 / 3.0, abs=1e-15)

    def test_scalar_pivot_on_c(self, ws):
        # eliminating C keeps B: 2 - 1 * (1/4) * 8 = 0
        g = (
            (ws.from_array([[1.0]]), ws.from_array([[2.0]])),
            (ws.from_array([[4.0]]), ws.from_array([[8.0]])),
        )
        out = schur_eliminate(g, C)
        assert out.data[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_consumes_all_inputs(self, ws):
        blocks = [ws.from_array(np.eye(2)) for _ in range(4)]
        out = schur_eliminate(((blocks[0], blocks[1]), (blocks[2], blocks[3])), D)
        assert ws.gauge.live_blocks == 1  # only the result remains
        out.release()


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
        with gauge_scope(ws.gauge) as scope:
            out = invert_block(prov, 1, 1, ws)
            out.release()
        assert scope.peak_blocks <= 2 * k + 4

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
        frame = frame_at(3, err.path)
        ar, ac = frame.anchor
        blk = prov.fetch_block(ar, ac, ws)
        assert not blk.data.any()
        blk.release()
        assert "A/D" in str(err)


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

        seen = {}
        prov = make_memory_provider(a, 4)
        out = invert_block(prov, 1, 1, ws, trace=lambda p, f, v: seen.__setitem__(p, v))
        for path, want in {
            (A, B, A): leaf_a, (A, B, B): leaf_b,
            (A, B, C): leaf_c, (A, B, D): leaf_d,
            (A, B): node_b,
        }.items():
            assert seen[path][0, 0] == pytest.approx(want, abs=1e-12)
        # root reduction inverts to the (1,1) entry of the dense inverse
        root = seen[(A,)][0, 0]
        assert 1.0 / root == pytest.approx(np.linalg.inv(a)[0, 0], abs=1e-12)
        assert out.data[0, 0] == pytest.approx(1.0 / root, abs=1e-15)
        out.release()

    def test_trace_covers_every_node_once(self, ws):
        prov = make_memory_provider(shifted(4, 86), 4)
        calls = []
        out = invert_block(prov, 1, 1, ws, trace=lambda p, f, v: calls.append(p))
        out.release()
        assert len(calls) == predicted_counts(4).schur_nodes
        assert len(set(calls)) == len(calls)
        assert all(p[0] is A for p in calls)
        assert (A,) == calls[-1]  # root reduces last


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
        summary = invert_full(prov, sink)
        want = predicted_counts(4)
        assert summary.counters.schur_nodes == 16 * want.schur_nodes
        assert summary.counters.block_inversions == 16 * want.block_inversions
        assert (summary.m, summary.k, summary.b, summary.l) == (8, 4, 2, 0)
        assert summary.peak_blocks <= 2 * 4 + 4
        assert summary.peak_bytes == summary.peak_blocks * 8 * 2 * 2
        assert summary.wall_ms > 0

    def test_parallel_runs_bit_identical(self):
        a = shifted(12, 90)
        prov = make_memory_provider(a, 3)
        seq = MemorySink(prov.layout)
        invert_full(prov, seq, jobs=1)
        par = MemorySink(prov.layout)
        summary = invert_full(prov, par, jobs=2)
        assert np.array_equal(seq.finalize(), par.finalize())
        assert summary.jobs == 2

    def test_parallel_file_runs_bit_identical(self, tmp_path):
        # The jobs share one BrimReader, which reads without a lock.
        path = tmp_path / "a.brim"
        write_matrix(path, shifted(12, 91))
        with make_file_provider(path, 3) as prov:
            seq = MemorySink(prov.layout)
            invert_full(prov, seq, jobs=1)
            par = MemorySink(prov.layout)
            summary = invert_full(prov, par, jobs=2)
        assert np.array_equal(seq.finalize(), par.finalize())
        assert summary.jobs == 2
