"""Block primitives: allocation accounting, multiply, subtract, inversion."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bri import (
    Block,
    DimensionMismatchError,
    GaugeUnderflowError,
    OpCounters,
    SingularBlockError,
    Workspace,
    invert_dense,
    multiply,
    subtract,
)
from conftest import rng

_SRC = Path(__file__).resolve().parents[1] / "src"


class TestBlock:
    def test_rejects_non_square(self, ws):
        with pytest.raises(DimensionMismatchError):
            ws.from_array(np.zeros((2, 3)))

    def test_double_release_raises(self, ws):
        blk = ws.from_array(np.zeros((2, 2)))
        blk.release()
        with pytest.raises(GaugeUnderflowError):
            blk.release()
        assert ws.gauge.live_blocks == 0

    def test_release_drops_the_buffer(self, ws):
        blk = ws.from_array(np.eye(2))
        buf = weakref.ref(blk.data)
        blk.release()
        assert blk.data is None
        assert buf() is None  # freed, not just deregistered

    def test_gauge_counts_live_buffers(self, ws):
        # the peak is the high-water mark: three live, two released, one more
        a, b, c = (ws.from_array(np.eye(2)) for _ in range(3))
        a.release()
        b.release()
        d = ws.from_array(np.zeros((2, 2)))
        assert ws.gauge.live_blocks == 2
        assert ws.gauge.peak_blocks == 3
        c.release()
        d.release()
        assert ws.gauge.live_blocks == 0
        assert ws.gauge.peak_blocks == 3

    def test_from_array_copies_by_default(self, ws):
        src = np.eye(2)
        blk = ws.from_array(src)
        blk.data[0, 0] = 5.0
        assert src[0, 0] == 1.0
        blk.release()

    def test_rejects_buffer_it_does_not_own(self, ws):
        # A block writes through its buffer and frees it on release, so it
        # takes no view, read-only, F-ordered or float32 array (and copies none).
        readonly = np.eye(2)
        readonly.setflags(write=False)
        for buf in (readonly, np.eye(3)[:2, :2], np.asfortranarray(np.eye(2)),
                    np.eye(2, dtype=np.float32)):
            with pytest.raises(ValueError, match="of its own"):
                Block(buf, ws)
        assert ws.gauge.peak_blocks == 0
        owned = np.eye(2)
        blk = Block(owned, ws)
        assert blk.data is owned
        blk.release()


class TestOpCounters:
    def test_starts_at_zero(self):
        c = OpCounters()
        assert (c.block_inversions, c.block_multiplications, c.block_subtractions, c.schur_nodes) == (0, 0, 0, 0)


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

    @pytest.mark.parametrize("order", [1, 3, 101, 193])
    def test_orders_match_reference(self, ws, order):
        a = rng(13).standard_normal((order, order))
        b = rng(14).standard_normal((order, order))
        out = multiply(ws.from_array(a), ws.from_array(b))
        np.testing.assert_allclose(out.data, a @ b, rtol=0, atol=1e-12)

    def test_aliased_operands(self, ws):
        # the product would overwrite its own right factor
        a = rng(15).standard_normal((5, 5))
        x = ws.from_array(a)
        with pytest.raises(ValueError):
            multiply(x, x)
        np.testing.assert_array_equal(x.data, a)
        assert ws.counters.block_multiplications == 0

    def test_result_is_owned_writable_c_buffer(self, ws):
        x = ws.from_array(rng(16).standard_normal((4, 4)))
        b = rng(17).standard_normal((4, 4))
        y = ws.from_array(b)
        out = multiply(x, y)
        assert out is x
        flags = out.data.flags
        assert flags["C_CONTIGUOUS"] and flags.writeable and flags.owndata
        assert out.data.dtype == np.float64
        assert not np.shares_memory(out.data, y.data)
        np.testing.assert_array_equal(y.data, b)

    def test_allocates_no_block(self, ws):
        x = ws.from_array(np.eye(3))
        y = ws.from_array(np.eye(3))
        before = ws.gauge.live_blocks
        out = multiply(x, y)
        assert ws.gauge.live_blocks == before
        assert ws.gauge.peak_blocks == before
        out.release()
        y.release()


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
        out = subtract(x, ws.from_array(np.eye(2)))
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

    def test_nan_raises(self, ws):
        a = np.eye(4)
        a[2, 1] = np.nan
        with pytest.raises(SingularBlockError):
            invert_dense(ws.from_array(a))

    def test_counts_one_inversion(self, ws):
        out = invert_dense(ws.from_array(np.eye(4)))
        assert ws.counters.block_inversions == 1
        out.release()

    def test_inverts_in_place(self, ws):
        a = rng(3).standard_normal((8, 8)) + 8 * np.eye(8)
        x = ws.from_array(a)
        out = invert_dense(x)
        assert out is x
        np.testing.assert_allclose(a @ out.data, np.eye(8), rtol=0, atol=1e-12)
        out.release()
        assert ws.gauge.peak_blocks == 1
        assert ws.counters.block_inversions == 1

    @pytest.mark.parametrize("order", [128, 129, 200])
    def test_both_getri_panel_widths_match_reference(self, ws, order):
        # 3-column panels up to order 128, LAPACK's 64-column ones above.
        a = rng(order).standard_normal((order, order)) + order * np.eye(order)
        out = invert_dense(ws.from_array(a))
        np.testing.assert_allclose(out.data, np.linalg.inv(a), rtol=0, atol=1e-13)
        out.release()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), order=st.integers(1, 12))
    def test_product_with_inverse_is_identity(self, seed, order):
        ws = Workspace()
        a = rng(seed).standard_normal((order, order)) + order * np.eye(order)
        inv = invert_dense(ws.from_array(a))
        np.testing.assert_allclose(a @ inv.data, np.eye(order), rtol=0, atol=1e-10)
        inv.release()


def _fresh_python(code: str) -> dict:
    """Run ``code`` in a new interpreter with bri on its path; its printed JSON."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


_SAME_WRAPPERS = """
import scipy.linalg
import bri.core
print(json.dumps({
    "dgemm": scipy.linalg.blas.dgemm is bri.core.blas.dgemm,
    "dgetrf": scipy.linalg.lapack.dgetrf is bri.core.lapack.dgetrf,
    "dgetri": scipy.linalg.lapack.dgetri is bri.core.lapack.dgetri,
}))
"""


class TestBlasLapackLoader:
    def test_import_leaves_scipy_linalg_out(self):
        out = _fresh_python("import json, sys, bri, bri.cli; print(json.dumps(sorted(sys.modules)))")
        assert "scipy.linalg" not in out
        assert {"scipy.linalg._fblas", "scipy.linalg._flapack"} <= set(out)

    def test_import_leaves_the_cli_out(self):
        # The command line's argument parsing is not part of `import bri`.
        out = _fresh_python("import json, sys, bri; print(json.dumps(sorted(sys.modules)))")
        assert "bri.cli" not in out and "argparse" not in out

    @pytest.mark.parametrize("first", ["import bri, bri.cli", "import scipy.linalg"])
    def test_one_set_of_wrappers_either_import_order(self, first):
        # bri's wrappers are the very objects scipy.linalg serves, so one
        # OpenBLAS runs every call whichever package is imported first.
        out = _fresh_python("import json\n" + first + _SAME_WRAPPERS)
        assert out == {"dgemm": True, "dgetrf": True, "dgetri": True}
