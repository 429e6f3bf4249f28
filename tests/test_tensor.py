"""Correlation, reconstruction, and pooling against loop references,
plus the adjoint relations the decoder and backward pass rely on."""

import numpy as np
import pytest

from ebssc import ShapeError
from ebssc import tensor

import reference


class TestCrossCorrelate:
    """Bank correlation against the quadruple-loop reference."""

    @staticmethod
    def _check_loops(pad, kernel):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 7, 8))
        bank = rng.standard_normal((4, 3) + kernel)
        got = tensor.cross_correlate(x, bank, pad)
        np.testing.assert_allclose(got,
                                   reference.correlate_loops(x, bank, pad),
                                   atol=1e-12)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_matches_loops(self, pad):
        """GEMM path equals loops for several paddings."""
        self._check_loops(pad, (3, 3))

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_non_square_kernel_matches_loops(self, pad):
        """A 3x2 kernel also equals the loops."""
        self._check_loops(pad, (3, 2))

    def test_batched_leading_axes(self):
        """Leading batch axes map each sample independently."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 5, 3, 6, 6))
        bank = rng.standard_normal((2, 3, 3, 3))
        got = tensor.cross_correlate(x, bank, 1)
        for i in range(2):
            for j in range(5):
                np.testing.assert_allclose(
                    got[i, j],
                    reference.correlate_loops(x[i, j], bank, 1), atol=1e-12)

    def test_one_by_one_kernel(self):
        """1x1 correlation is a per-pixel channel mix."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 4, 4))
        bank = rng.standard_normal((2, 3, 1, 1))
        got = tensor.cross_correlate(x, bank, 0)
        want = np.einsum("kc,chw->khw", bank[:, :, 0, 0], x)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rank_errors(self):
        """Maps need >= 3 dims and banks exactly 4."""
        with pytest.raises(ShapeError):
            tensor.cross_correlate(np.zeros((5, 5)), np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            tensor.cross_correlate(np.zeros((1, 5, 5)), np.zeros((1, 3, 3)))


class TestReconstruct:
    """Transposed correlation against the scatter reference."""

    @staticmethod
    def _check_loops(pad, kernel):
        rng = np.random.default_rng(42)
        z = rng.standard_normal((4, 6, 5))
        bank = rng.standard_normal((4, 2) + kernel)
        got = tensor.reconstruct(z, bank, pad)
        np.testing.assert_allclose(
            got, reference.reconstruct_loops(z, bank, pad), atol=1e-12)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_matches_loops(self, pad):
        """Scatter of filters equals the loop reference."""
        self._check_loops(pad, (3, 3))

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_non_square_kernel_matches_loops(self, pad):
        """A 3x2 kernel also equals the loop reference."""
        self._check_loops(pad, (3, 2))

    def test_adjoint_of_correlation(self):
        """<correlate(x), z> == <x, reconstruct(z)> to float64 precision."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 8, 8))
        bank = rng.standard_normal((3, 2, 3, 3))
        z = rng.standard_normal((3, 8, 8))
        lhs = tensor.inner(tensor.cross_correlate(x, bank, 1), z)
        rhs = tensor.inner(x, tensor.reconstruct(z, bank, 1))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_matches_dense_matrix(self):
        """reconstruct applies the transpose of the correlation matrix."""
        rng = np.random.default_rng(42)
        in_shape = (2, 5, 5)
        bank = rng.standard_normal((3, 2, 3, 3))
        m = reference.correlation_matrix(bank, in_shape, 1)
        z = rng.standard_normal((3, 5, 5))
        got = tensor.reconstruct(z, bank, 1).ravel()
        np.testing.assert_allclose(got, m.T @ z.ravel(), atol=1e-10)


class TestCorrelateBankGrad:
    """Gradient of correlation with respect to the filter bank."""

    @staticmethod
    def _check_finite_differences(kernel):
        kh, kw = kernel
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 6, 6))
        bank = rng.standard_normal((3, 2) + kernel)
        up = rng.standard_normal((3, 8 - kh + 1, 8 - kw + 1))

        got = tensor.correlate_bank_grad(x, up, kernel, pad=1)
        eps = 1e-6
        want = np.zeros_like(bank)
        it = np.nditer(bank, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            b2 = bank.copy()
            b2[idx] += eps
            hi = tensor.inner(tensor.cross_correlate(x, b2, 1), up)
            b2[idx] -= 2 * eps
            lo = tensor.inner(tensor.cross_correlate(x, b2, 1), up)
            want[idx] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_matches_finite_differences(self):
        """d<correlate(x; B), U>/dB via the dedicated kernel."""
        self._check_finite_differences((3, 3))

    def test_non_square_kernel(self):
        """The same holds for a 3x2 kernel."""
        self._check_finite_differences((3, 2))


class TestMaxPool:
    """Max pooling, its switches, and the un-pool scatter."""

    @pytest.mark.parametrize("window,stride,pad", [(2, 2, 0), (3, 2, 1)])
    def test_matches_loops(self, window, stride, pad):
        """Pooled values and switches equal the loop reference, also on a
        zero-heavy input where most windows tie."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 8, 8))
        for inp in (x, np.maximum(np.round(x), 0)):
            got, got_sw = tensor.max_pool(inp, window, stride, pad,
                                          return_switches=True)
            want, want_sw = reference.max_pool_loops(inp, window, stride, pad)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got_sw, want_sw)

    def test_switches_locate_the_maxima(self):
        """Gathering at the recorded switches reproduces the pool output."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((4, 9, 9))
        out, sw = tensor.max_pool(x, 3, 2, 1, return_switches=True)
        regathered = tensor.switch_gather(x, sw, 3, 2, 1)
        np.testing.assert_array_equal(regathered, out)

    def test_unpool_scatters_to_argmax_positions(self):
        """unpool(pool(x)) is x at each window's winner and 0 elsewhere."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 8, 8))
        out, sw = tensor.max_pool(x, 2, 2, 0, return_switches=True)
        up = tensor.max_unpool(out, sw, 2, 2, 0, (8, 8))
        assert up.shape == x.shape
        nz = up != 0
        np.testing.assert_array_equal(up[nz], x[nz])
        assert nz.sum() == out.size

    def test_unpool_gather_adjointness(self):
        """<unpool(z), u> == <z, gather(u)> for frozen switches."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 9, 9))
        _, sw = tensor.max_pool(x, 3, 2, 1, return_switches=True)
        z = rng.standard_normal(sw.shape)
        u = rng.standard_normal(x.shape)
        lhs = tensor.inner(tensor.max_unpool(z, sw, 3, 2, 1, (9, 9)), u)
        rhs = tensor.inner(z, tensor.switch_gather(u, sw, 3, 2, 1))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_broadcast_over_class_axis(self):
        """Per-class values reuse one set of batchwise switches, which
        hold a singleton class axis."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 4, 8, 8))
        out, sw = tensor.max_pool(x, 2, 2, 0, return_switches=True)
        vals = rng.standard_normal((2, 5, 4, 4, 4))
        up = tensor.max_unpool(vals, sw[:, None], 2, 2, 0, (8, 8))
        assert up.shape == (2, 5, 4, 8, 8)
        for c in range(5):
            np.testing.assert_array_equal(
                up[:, c], tensor.max_unpool(vals[:, c], sw, 2, 2, 0, (8, 8)))

    @staticmethod
    def _class_axis_case():
        """float32 maps with a class axis, pooled at (3, 2, 1) by
        batchwise switches that hold it as a singleton."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        _, sw = tensor.max_pool(x, 3, 2, 1, return_switches=True)
        return rng, sw[:, None]

    def test_unpool_matches_loops(self):
        """Overlapping windows accumulate their routes as in the loops."""
        rng, sw = self._class_axis_case()
        vals = rng.standard_normal((2, 4, 3, 5, 5)).astype(np.float32)
        got = tensor.max_unpool(vals, sw, 3, 2, 1, (9, 9))
        want = reference.max_unpool_loops(vals, sw, 3, 2, 1, (9, 9))
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_gather_matches_loops(self):
        """Each switch reads the cell the loops read."""
        rng, sw = self._class_axis_case()
        u = rng.standard_normal((2, 4, 3, 9, 9)).astype(np.float32)
        got = tensor.switch_gather(u, sw, 3, 2, 1)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(
            got, reference.switch_gather_loops(u, sw, 3, 2, 1))

    @pytest.mark.parametrize("inverse", ["max_unpool", "switch_gather"])
    def test_inverse_rejects_map_of_wrong_size(self, inverse):
        """A 6x6 map does not pool to 4x4 switches at (2, 2, 0)."""
        sw = np.zeros((1, 4, 4), dtype=np.int32)
        with pytest.raises(ShapeError):
            if inverse == "max_unpool":
                tensor.max_unpool(np.ones((1, 4, 4)), sw, 2, 2, 0, (6, 6))
            else:
                tensor.switch_gather(np.ones((1, 6, 6)), sw, 2, 2, 0)

    def test_gather_rejects_rank_mismatch(self):
        """Maps and switches of different rank are refused, not aligned
        by guessing where an axis is missing."""
        rng, sw = self._class_axis_case()
        u = rng.standard_normal((2, 3, 9, 9))
        with pytest.raises(ShapeError, match="rank"):
            tensor.switch_gather(u, sw, 3, 2, 1)

    def test_tie_takes_first_index(self):
        """Equal values in one window resolve to the earliest cell."""
        x = np.ones((1, 2, 2))
        _, sw = tensor.max_pool(x, 2, 2, 0, return_switches=True)
        assert sw[0, 0, 0] == 0

    def test_pool_output_size(self):
        """Output size follows floor((n + 2p - w)/s) + 1."""
        assert tensor.pool_output_size(28, 3, 2, 1) == 14
        assert tensor.pool_output_size(8, 2, 2, 0) == 4

    def test_bad_pool_args(self):
        """Non-positive window or stride is rejected."""
        with pytest.raises(ValueError):
            tensor.max_pool(np.zeros((1, 4, 4)), 0, 1, 0)
        with pytest.raises(ValueError):
            tensor.max_pool(np.zeros((1, 4, 4)), 2, 0, 0)


class TestNorms:
    """Inner products and norms used throughout the energy code."""

    def test_inner_over_all_axes(self):
        """inner sums elementwise products over every axis."""
        a = np.arange(6.0).reshape(2, 3)
        b = np.ones((2, 3))
        assert tensor.inner(a, b) == 15.0

    def test_l1_l2(self):
        """Norms agree with numpy on a known vector."""
        v = np.asarray([3.0, -4.0])
        assert tensor.l1_norm(v) == 7.0
        assert tensor.l2_norm(v) == 5.0
