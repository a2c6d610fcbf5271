"""Block primitives: allocation accounting, multiply, subtract, inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bri import (
    Block,
    DimensionMismatchError,
    GaugeUnderflowError,
    SingularBlockError,
    Workspace,
    gauge_scope,
    invert_dense,
    multiply,
    subtract,
)
from conftest import rng


class TestBlock:
    def test_rejects_non_square(self, ws):
        with pytest.raises(DimensionMismatchError):
            ws.from_array(np.zeros((2, 3)))

    def test_double_release_raises(self, ws):
        blk = ws.from_array(np.zeros((2, 2)))
        blk.release()
        with pytest.raises(GaugeUnderflowError):
            blk.release()

    def test_gauge_counts_live_buffers(self, ws):
        a = ws.from_array(np.zeros((2, 2)))
        b = ws.from_array(np.eye(2))
        assert ws.gauge.live_blocks == 2
        a.release()
        b.release()
        assert ws.gauge.live_blocks == 0
        assert ws.gauge.peak_blocks == 2

    def test_from_array_copies_by_default(self, ws):
        src = np.eye(2)
        blk = ws.from_array(src)
        blk.data[0, 0] = 5.0
        assert src[0, 0] == 1.0
        blk.release()

    def test_normalizes_readonly_buffer(self, ws):
        src = np.eye(2)
        src.setflags(write=False)
        blk = Block(src, ws)
        blk.data[0, 1] = 3.0  # writable private copy
        assert src[0, 1] == 0.0
        blk.release()


class TestMultiply:
    def test_identity(self, ws):
        x = ws.from_array([[4.0, 2.0], [1.0, 3.0]])
        i = ws.from_array(np.eye(2))
        out = multiply(i, x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_product(self, ws):
        x = ws.from_array([[1.0, 2.0], [3.0, 4.0]])
        y = ws.from_array([[0.0, 1.0], [1.0, 0.0]])
        out = multiply(x, y)
        np.testing.assert_array_equal(out.data, [[2.0, 1.0], [4.0, 3.0]])

    def test_annihilator(self, ws):
        x = ws.from_array([[1.0, 2.0], [3.0, 4.0]])
        z = ws.from_array(np.zeros((2, 2)))
        out = multiply(x, z)
        assert not out.data.any()

    def test_counts_one_multiplication(self, ws):
        out = multiply(ws.from_array(np.eye(2)), ws.from_array(np.eye(2)))
        assert ws.counters.block_multiplications == 1
        assert ws.counters.block_inversions == 0
        out.release()

    def test_order_mismatch(self, ws):
        with pytest.raises(DimensionMismatchError):
            multiply(ws.from_array(np.zeros((2, 2))), ws.from_array(np.zeros((3, 3))))

    def test_large_block_matches_reference(self, ws):
        a = rng(11).standard_normal((128, 128))
        b = rng(12).standard_normal((128, 128))
        out = multiply(ws.from_array(a), ws.from_array(b))
        np.testing.assert_allclose(out.data, a @ b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 3, 193])
    def test_orders_match_reference(self, ws, order):
        a = rng(13).standard_normal((order, order))
        b = rng(14).standard_normal((order, order))
        out = multiply(ws.from_array(a), ws.from_array(b))
        np.testing.assert_allclose(out.data, a @ b, rtol=0, atol=1e-12)

    def test_aliased_operands(self, ws):
        a = rng(15).standard_normal((5, 5))
        x = ws.from_array(a)
        out = multiply(x, x)
        np.testing.assert_allclose(out.data, a @ a, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(x.data, a)

    def test_result_is_owned_writable_c_buffer(self, ws):
        x = ws.from_array(rng(16).standard_normal((4, 4)))
        y = ws.from_array(rng(17).standard_normal((4, 4)))
        out = multiply(x, y)
        flags = out.data.flags
        assert flags["C_CONTIGUOUS"] and flags.writeable and flags.owndata
        assert out.data.dtype == np.float64
        assert not np.shares_memory(out.data, x.data)
        assert not np.shares_memory(out.data, y.data)

    def test_allocates_exactly_one_block(self, ws):
        x = ws.from_array(np.eye(3))
        y = ws.from_array(np.eye(3))
        before = ws.gauge.live_blocks
        out = multiply(x, y)
        assert ws.gauge.live_blocks == before + 1
        assert ws.gauge.peak_blocks == before + 1
        out.release()


class TestSubtract:
    def test_zero_is_neutral(self, ws):
        x = ws.from_array([[4.0, 2.0], [1.0, 3.0]])
        out = subtract(x, ws.from_array(np.zeros((2, 2))))
        np.testing.assert_array_equal(out.data, [[4.0, 2.0], [1.0, 3.0]])

    def test_self_cancels(self, ws):
        x = ws.from_array([[4.0, 2.0], [1.0, 3.0]])
        y = ws.from_array(x.data)
        out = subtract(x, y)
        assert not out.data.any()

    def test_hand_difference(self, ws):
        x = ws.from_array([[4.0, 2.0], [1.0, 3.0]])
        y = ws.from_array([[1.0, 1.0], [1.0, 1.0]])
        out = subtract(x, y)
        np.testing.assert_array_equal(out.data, [[3.0, 1.0], [0.0, 2.0]])

    def test_in_place_reuses_left_buffer(self, ws):
        x = ws.from_array([[4.0, 2.0], [1.0, 3.0]])
        out = subtract(x, ws.from_array(np.eye(2)), in_place=True)
        assert out.data is x.data

    def test_counts_one_subtraction(self, ws):
        subtract(ws.from_array(np.zeros((2, 2))), ws.from_array(np.zeros((2, 2))))
        assert ws.counters.block_subtractions == 1


class TestInvertDense:
    def test_identity(self, ws):
        out = invert_dense(ws.from_array(np.eye(3)))
        np.testing.assert_array_equal(out.data, np.eye(3))

    def test_adjugate_example(self, ws):
        # det = 10, inverse = [[3, -2], [-1, 4]] / 10
        out = invert_dense(ws.from_array([[4.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(out.data, [[0.3, -0.2], [-0.1, 0.4]], atol=1e-15)

    def test_singular_raises(self, ws):
        with pytest.raises(SingularBlockError):
            invert_dense(ws.from_array([[1.0, 2.0], [2.0, 4.0]]))

    def test_counts_one_inversion(self, ws):
        out = invert_dense(ws.from_array(np.eye(4)))
        assert ws.counters.block_inversions == 1
        out.release()

    def test_peak_is_two_blocks(self, ws):
        x = ws.from_array(rng(3).standard_normal((8, 8)) + 8 * np.eye(8))
        with gauge_scope(ws.gauge) as scope:
            out = invert_dense(x)
            out.release()
            x.release()
        assert scope.peak_blocks <= 2

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), order=st.integers(1, 12))
    def test_product_with_inverse_is_identity(self, seed, order):
        ws = Workspace()
        a = rng(seed).standard_normal((order, order)) + order * np.eye(order)
        inv = invert_dense(ws.from_array(a))
        np.testing.assert_allclose(a @ inv.data, np.eye(order), rtol=0, atol=1e-10)
        inv.release()
