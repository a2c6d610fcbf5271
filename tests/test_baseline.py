"""Dense LU baseline."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import hilbert

from bri import DimensionMismatchError, SingularBlockError, lu_invert_full
from conftest import shifted

# exact rational inverse of the 4x4 Hilbert matrix (all entries integer)
HILBERT4_INVERSE = np.array(
    [
        [16.0, -120.0, 240.0, -140.0],
        [-120.0, 1200.0, -2700.0, 1680.0],
        [240.0, -2700.0, 6480.0, -4200.0],
        [-140.0, 1680.0, -4200.0, 2800.0],
    ]
)


class TestLuInvertFull:
    def test_identity(self):
        np.testing.assert_array_equal(lu_invert_full(np.eye(5)), np.eye(5))

    def test_adjugate_example(self):
        out = lu_invert_full(np.array([[4.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(out, [[0.3, -0.2], [-0.1, 0.4]], atol=1e-15)

    def test_exact_rational_3x3(self):
        # inverse of [[2,0,1],[1,1,0],[0,3,1]] is [[1,3,-1],[-1,2,1],[3,-6,2]]/5
        a = np.array([[2.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 3.0, 1.0]])
        want = np.array([[1.0, 3.0, -1.0], [-1.0, 2.0, 1.0], [3.0, -6.0, 2.0]]) / 5.0
        np.testing.assert_allclose(lu_invert_full(a), want, atol=1e-15)

    def test_hilbert_4(self):
        out = lu_invert_full(hilbert(4))
        assert out[0, 0] == pytest.approx(16.0, abs=1e-9)
        np.testing.assert_allclose(out, HILBERT4_INVERSE, rtol=1e-9)

    def test_singular_raises(self):
        with pytest.raises(SingularBlockError, match=r"pivot 2 .*\(order 2\)"):
            lu_invert_full(np.array([[1.0, 2.0], [2.0, 4.0]]))


    def test_order_zero_is_refused(self):
        with pytest.raises(DimensionMismatchError, match="order >= 1"):
            lu_invert_full(np.empty((0, 0)))

    def test_non_square_is_refused(self):
        with pytest.raises(DimensionMismatchError, match="square"):
            lu_invert_full(np.ones((2, 3)))

    def test_nan_raises(self):
        a = np.eye(3)
        a[1, 2] = np.nan
        with pytest.raises(SingularBlockError):
            lu_invert_full(a)

    def test_peak_is_one_working_copy(self):
        # The working copy, getri's 64-column workspace (m/4 of a copy at
        # m=256) and the pivots; a temporary |A| would add a second copy.
        a = shifted(256, 0)
        tracemalloc.start()
        try:
            lu_invert_full(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * a.nbytes
