import numpy as np
import pytest
import scipy.fft
from oracle import dct_block_forward, idct_block, svd

from asymsplit import numerics
from asymsplit.model import Model, default_spec
from asymsplit.numerics import (
    as_tensor3,
    col2im,
    conv2d_backward_batch,
    conv2d_forward_batch,
    conv_out_size,
    dct_matrix,
    im2col,
)


def conv2d_forward(x, weights, stride=1, padding=0):
    """One (c, h, w) sample through the batched convolution."""
    return conv2d_forward_batch(np.asarray(x)[None], weights, stride, padding)[0]


def conv2d_backward(grad_out, x, weights, stride=1, padding=0):
    """One sample's (grad_input, grad_weights) from the batched backward."""
    gx, gw = conv2d_backward_batch(
        np.asarray(grad_out)[None], np.asarray(x)[None], weights, stride, padding
    )
    return gx[0], gw


def naive_conv2d(x, w, stride=1, pad=0):
    """Independent sliding-window oracle (no lowering)."""
    n, c, k, _ = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    _, h, ww = x.shape
    out_h = (h - k) // stride + 1
    out_w = (ww - k) // stride + 1
    out = np.zeros((n, out_h, out_w))
    for f in range(n):
        for i in range(out_h):
            for j in range(out_w):
                patch = x[:, i * stride : i * stride + k, j * stride : j * stride + k]
                out[f, i, j] = np.sum(patch * w[f])
    return out


def central_diff(f, x, step=1e-5):
    """Central finite differences of a scalar function over an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return g


class TestTensorIO:
    def test_rejects_nonfinite(self):
        x = np.ones((1, 2, 2))
        x[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            as_tensor3(x)


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(2))
        np.testing.assert_allclose(f.singular_values, [1.0, 1.0], atol=1e-12)

    def test_rank_one_outer_product(self):
        # |a| = 2, |b| = 3 -> singular values (6, 0)
        a = np.array([2.0, 0.0])
        b = np.array([0.0, 3.0])
        f = svd(np.outer(a, b))
        np.testing.assert_allclose(f.singular_values, [6.0, 0.0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 50))
        f = svd(m)
        err = np.linalg.norm(f.reconstruct() - m) / np.linalg.norm(m)
        assert err <= 1e-9

    def test_factor_invariants(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            rows = rng.integers(2, 9)
            cols = rng.integers(2, 40)
            m = rng.normal(size=(rows, cols))
            f = svd(m)
            s = f.singular_values
            assert np.all(s >= 0)
            assert np.all(np.diff(s) <= 1e-12)
            mm = min(rows, cols)
            np.testing.assert_allclose(
                f.left_vectors.T @ f.left_vectors, np.eye(mm), atol=1e-9
            )
            np.testing.assert_allclose(
                f.right_vectors @ f.right_vectors.T, np.eye(mm), atol=1e-9
            )
            rel = np.linalg.norm(f.reconstruct() - m) / np.linalg.norm(m)
            assert rel <= 1e-9

    def test_rejects_nonfinite(self):
        m = np.ones((2, 2))
        m[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            svd(m)


class TestDctMatrix:
    def test_size_one(self):
        np.testing.assert_array_equal(dct_matrix(1), [[1.0]])

    def test_cached_and_read_only(self):
        mat = dct_matrix(8)
        assert dct_matrix(8) is mat
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 0.0

    @pytest.mark.parametrize("t", list(range(1, 33)))
    def test_orthonormal(self, t):
        mat = dct_matrix(t)
        err = np.max(np.abs(mat @ mat.T - np.eye(t)))
        assert err <= 1e-12

    @pytest.mark.parametrize("t", [2, 4, 8, 16])
    def test_matches_scipy_ortho_dct(self, t):
        # Independent route: column m of T is the DCT-II of the canonical
        # basis vector e_m, so transforming the identity recovers T itself.
        mat = dct_matrix(t)
        ref = scipy.fft.dct(np.eye(t), axis=0, norm="ortho")
        np.testing.assert_allclose(mat, ref, atol=1e-12)


class TestBlockDct:
    def test_constant_channel_dc_only(self):
        v = 1.75
        x = np.full((8, 8), v)
        coeffs = dct_block_forward(x, 4)
        for bi in range(2):
            for bj in range(2):
                block = coeffs[4 * bi : 4 * bi + 4, 4 * bj : 4 * bj + 4]
                assert abs(block[0, 0] - v * 4) <= 1e-12
                rest = block.copy()
                rest[0, 0] = 0.0
                assert np.max(np.abs(rest)) <= 1e-12

    def test_zero_channel(self):
        assert np.all(dct_block_forward(np.zeros((8, 8)), 4) == 0)

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(16, 16))
        back = idct_block(dct_block_forward(x, 8), 8, 8)
        assert np.max(np.abs(back - x)) <= 1e-10

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            dct_block_forward(np.zeros((9, 8)), 4)


class TestIdctBlock:
    def test_full_keep_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 12))
        coeffs = dct_block_forward(x, 6)
        assert np.max(np.abs(idct_block(coeffs, 6, 6) - x)) <= 1e-10

    @pytest.mark.parametrize("t_keep", [1, 2, 3, 4])
    def test_constant_channel_fully_kept(self, t_keep):
        # DC captures a constant block, so the zero-padded inverse at full
        # block size must reproduce the input for any t_keep >= 1.
        v = -0.6
        t = 4
        x = np.full((8, 8), v)
        coeffs = dct_block_forward(x, t)
        reduced = idct_block(coeffs, t, t_keep)
        assert np.max(np.abs(reduced - reduced[0, 0])) <= 1e-12

        kept = np.zeros_like(coeffs)
        for bi in range(2):
            for bj in range(2):
                kept[t * bi : t * bi + t_keep, t * bj : t * bj + t_keep] = dct_block_forward(
                    x, t
                )[t * bi : t * bi + t_keep, t * bj : t * bj + t_keep]
        # zero-padded low-frequency coefficients inverted at t reproduce x
        padded_back = idct_block(kept, t, t)
        assert np.max(np.abs(padded_back - x)) <= 1e-10

    def test_discarded_high_frequency(self):
        t = 8
        coeffs = np.zeros((8, 8))
        coeffs[t - 1, t - 1] = 3.0
        out = idct_block(coeffs, t, 4)
        assert np.all(out == 0)

    def test_keep_larger_than_source_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            idct_block(np.zeros((8, 8)), 4, 5)


class TestConv2d:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 5, 5))
        w = np.zeros((2, 2, 3, 3))
        for ch in range(2):
            w[ch, ch, 1, 1] = 1.0
        out = conv2d_forward(x, w, stride=1, padding="same")
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_ones_kernel(self):
        x = np.ones((1, 4, 4))
        w = np.ones((1, 1, 3, 3))
        out = conv2d_forward(x, w, stride=1, padding=0)
        assert out.shape == (1, 2, 2)
        np.testing.assert_allclose(out, 9.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            c = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            h = int(rng.integers(k, 9))
            w_dim = int(rng.integers(k, 9))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            if (h + 2 * pad - k) < 0 or (w_dim + 2 * pad - k) < 0:
                continue
            x = rng.normal(size=(c, h, w_dim))
            w = rng.normal(size=(n, c, k, k))
            got = conv2d_forward(x, w, stride=stride, padding=pad)
            want = naive_conv2d(x, w, stride=stride, pad=pad)
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d_forward(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(4, 3, 6, 6))
        w = rng.normal(size=(2, 3, 3, 3))
        batched = conv2d_forward_batch(xs, w, stride=2, padding=1)
        for i in range(4):
            single = conv2d_forward(xs[i], w, stride=2, padding=1)
            np.testing.assert_array_equal(batched[i], single)


class TestConv2dBackward:
    def test_zero_grad(self):
        x = np.ones((2, 4, 4))
        w = np.ones((3, 2, 3, 3))
        out = conv2d_forward(x, w, padding=1)
        gx, gw = conv2d_backward(np.zeros_like(out), x, w, padding=1)
        assert np.all(gx == 0) and np.all(gw == 0)

    def test_scalar_case_finite_difference(self):
        x = np.array([[[2.0]]])
        w = np.array([[[[1.5]]]])
        # loss = conv output itself
        gx, gw = conv2d_backward(np.ones((1, 1, 1)), x, w)

        def loss_w(wv):
            return conv2d_forward(x, wv)[0, 0, 0]

        fd = central_diff(loss_w, w.copy(), step=1e-5)
        assert abs(gw[0, 0, 0, 0] - fd[0, 0, 0, 0]) <= 1e-7

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
    def test_random_case_finite_differences(self, stride, pad):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d_forward(x, w, stride=stride, padding=pad)
        proj = rng.normal(size=out.shape)  # scalar loss = <proj, conv(x, w)>
        gx, gw = conv2d_backward(proj, x, w, stride=stride, padding=pad)

        fd_x = central_diff(
            lambda xv: np.sum(proj * conv2d_forward(xv, w, stride=stride, padding=pad)),
            x.copy(),
        )
        fd_w = central_diff(
            lambda wv: np.sum(proj * conv2d_forward(x, wv, stride=stride, padding=pad)),
            w.copy(),
        )
        assert np.linalg.norm(gx - fd_x) / max(np.linalg.norm(fd_x), 1e-12) <= 1e-5
        assert np.linalg.norm(gw - fd_w) / max(np.linalg.norm(fd_w), 1e-12) <= 1e-5

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (2, 0)])
    def test_batch_matches_oracles(self, stride, pad):
        # grad_w sums over the batch, and each sample's grad_x is that
        # sample's own: finite differences of the naive conv on every sample
        rng = np.random.default_rng(34)
        xs = rng.normal(size=(3, 2, 5, 6))
        w = rng.normal(size=(3, 2, 3, 3))

        def loss(xv, wv):
            return sum(np.sum(proj[i] * naive_conv2d(xv[i], wv, stride, pad))
                       for i in range(len(xv)))

        proj = rng.normal(size=conv2d_forward_batch(xs, w, stride, pad).shape)
        gx, gw = conv2d_backward_batch(proj, xs, w, stride, pad)
        fd_x = central_diff(lambda xv: loss(xv, w), xs.copy())
        fd_w = central_diff(lambda wv: loss(xs, wv), w.copy())
        assert np.linalg.norm(gx - fd_x) / np.linalg.norm(fd_x) <= 1e-5
        assert np.linalg.norm(gw - fd_w) / np.linalg.norm(fd_w) <= 1e-5

    def test_skipping_input_grad_keeps_weight_grad(self):
        rng = np.random.default_rng(35)
        xs = rng.normal(size=(4, 3, 8, 8))
        w = rng.normal(size=(5, 3, 3, 3))
        proj = rng.normal(size=(4, 5, 4, 4))
        _, gw_full = conv2d_backward_batch(proj, xs, w, stride=2, padding=1)
        gx, gw_leaf = conv2d_backward_batch(proj, xs, w, stride=2, padding=1,
                                            input_grad=False)
        assert gx is None
        assert gw_leaf.shape == w.shape and gw_leaf.flags.c_contiguous
        assert gw_leaf.tobytes() == gw_full.tobytes()

    @staticmethod
    def col2im_input_grad(grad_out, x_shape, w, stride, pad):
        """The scatter-add formulation: grad_out times the kernel matrix,
        each column added back where im2col read it."""
        n, _, k, _ = w.shape
        pad = k // 2 if pad == "same" else pad
        g_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, n)
        return col2im(g_flat @ w.transpose(0, 2, 3, 1).reshape(n, -1), x_shape, k, stride, pad)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1, "same"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_stride1_input_grad_is_correlation(self, monkeypatch, k, pad, batch):
        # stride 1 forms grad_x as a correlation, never through col2im
        rng = np.random.default_rng(36)
        xs = rng.normal(size=(batch, 3, 7, 5))
        w = rng.normal(size=(4, 3, k, k))
        proj = rng.normal(size=conv2d_forward_batch(xs, w, 1, pad).shape)
        expected = self.col2im_input_grad(proj, xs.shape, w, 1, pad)

        def no_col2im(*args):
            raise AssertionError("col2im called for a stride-1 input gradient")

        monkeypatch.setattr(numerics, "col2im", no_col2im)
        gx, _ = conv2d_backward_batch(proj, xs, w, 1, pad)
        assert gx.shape == xs.shape
        np.testing.assert_allclose(gx, expected, rtol=0, atol=1e-12)

    def test_strided_input_grad_goes_through_col2im(self, monkeypatch):
        rng = np.random.default_rng(37)
        xs = rng.normal(size=(3, 3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        proj = rng.normal(size=conv2d_forward_batch(xs, w, 2, 1).shape)
        calls = []

        def spy(*args):
            calls.append(args[1])
            return col2im(*args)

        monkeypatch.setattr(numerics, "col2im", spy)
        gx, _ = conv2d_backward_batch(proj, xs, w, 2, 1)
        assert calls == [xs.shape]
        assert gx.tobytes() == self.col2im_input_grad(proj, xs.shape, w, 2, 1).tobytes()

    def test_grad_shape_mismatch_rejected(self):
        x = np.zeros((1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="grad_out"):
            conv2d_backward(np.zeros((1, 9, 9)), x, w)


class TestConvDtype:
    """Convolutions compute in float32 for float32 input, else in float64."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_float32_input_stays_float32(self, k, stride, pad):
        rng = np.random.default_rng(50 + 4 * k + 2 * stride + pad)
        xs = rng.normal(size=(3, 4, 7, 6))
        w = rng.normal(size=(5, 4, k, k))
        out64 = conv2d_forward_batch(xs, w, stride, pad)
        proj = rng.normal(size=out64.shape)
        gx64, gw64 = conv2d_backward_batch(proj, xs, w, stride, pad)

        x32 = xs.astype(np.float32)
        out32 = conv2d_forward_batch(x32, w, stride, pad)
        gx32, gw32 = conv2d_backward_batch(proj, x32, w, stride, pad)
        for got, want in ((out32, out64), (gx32, gx64), (gw32, gw64)):
            assert got.dtype == np.float32
            assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-5

    def test_other_dtypes_compute_in_float64(self):
        # integer and half-precision input give exactly the float64 results
        rng = np.random.default_rng(51)
        xs = rng.integers(-3, 4, size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        proj = rng.normal(size=(2, 4, 3, 3))
        want_out = conv2d_forward_batch(xs.astype(np.float64), w, 2, 1)
        want_gx, want_gw = conv2d_backward_batch(proj, xs.astype(np.float64), w, 2, 1)
        for x in (xs, xs.astype(np.float16)):
            out = conv2d_forward_batch(x, w, 2, 1)
            gx, gw = conv2d_backward_batch(proj, x, w, 2, 1)
            for got, want in ((out, want_out), (gx, want_gx), (gw, want_gw)):
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestLowering:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_im2col_col2im_adjoint(self, k, stride, pad):
        # <im2col(x), C> == <x, col2im(C)>: col2im is the exact adjoint
        rng = np.random.default_rng(40 + 4 * k + 2 * stride + pad)
        shape = (3, 4, 7, 6)
        x = rng.normal(size=shape)
        cols = im2col(x, k, stride, pad)
        out_h = conv_out_size(7, k, stride, pad)
        out_w = conv_out_size(6, k, stride, pad)
        assert cols.shape == (3 * out_h * out_w, k * k * 4)
        c = rng.normal(size=cols.shape)
        back = col2im(c, shape, k, stride, pad)
        assert back.shape == shape
        lhs = float(np.sum(cols * c))
        rhs = float(np.sum(x * back))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_columns_are_kkc_ordered(self, k, stride, pad, batch):
        # column (i, j, ch) of output position (y, x) reads the padded input
        # at channel ch, row y * stride + i, column x * stride + j; on the
        # odd, non-square input stride 2 leaves trailing rows or columns unread
        rng = np.random.default_rng(41)
        x = rng.normal(size=(batch, 3, 7, 6))
        out_h = conv_out_size(7, k, stride, pad)
        out_w = conv_out_size(6, k, stride, pad)
        cols = im2col(x, k, stride, pad)
        assert cols.shape == (batch * out_h * out_w, k * k * 3)
        cols = cols.reshape(batch, out_h, out_w, k, k, 3)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        for b, y, xx, i, j, ch in np.ndindex(cols.shape):
            assert cols[b, y, xx, i, j, ch] == xp[b, ch, y * stride + i, xx * stride + j]


# the batch-128 convolutions of a training step: res/b0 conv2, res/b0 conv1,
# res/b1 conv1 (float32) and the float64 backbone, as (x shape, n, k,
# stride, pad, dtype)
BENCH_CONVS = [
    ((128, 24, 8, 8), 24, 3, 1, 1, np.float32),
    ((128, 8, 16, 16), 24, 3, 2, 1, np.float32),
    ((128, 24, 8, 8), 48, 3, 2, 1, np.float32),
    ((128, 3, 16, 16), 8, 3, 1, 1, np.float64),
]


def slice_samples(x_shape, k, stride, pad, dtype):
    """Samples per im2col slice at COLUMN_BYTES."""
    _, c, h, w = x_shape
    out_hw = conv_out_size(h, k, stride, pad) * conv_out_size(w, k, stride, pad)
    return max(1, numerics.COLUMN_BYTES // (out_hw * k * k * c * np.dtype(dtype).itemsize))


def one_shot(x, matrix, k, stride, pad, bias=None):
    """The whole batch lowered at once and multiplied by one GEMM."""
    b, _, h, w = x.shape
    out = im2col(x, k, stride, pad) @ matrix.T
    if bias is not None:
        out += bias
    out_h, out_w = conv_out_size(h, k, stride, pad), conv_out_size(w, k, stride, pad)
    return out.reshape(b, out_h, out_w, -1).transpose(0, 3, 1, 2)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


class TestSlicedLowering:
    """Convolutions lower COLUMN_BYTES of columns at a time."""

    @pytest.mark.parametrize("batch", [128, 1])
    @pytest.mark.parametrize("x_shape, n, k, stride, pad, dtype", BENCH_CONVS)
    def test_forward_bitwise_equals_one_shot(self, x_shape, n, k, stride, pad, dtype, batch):
        step = slice_samples(x_shape, k, stride, pad, dtype)
        # every bench shape is sliced, and its last slice is ragged
        assert 1 < step < 128 and 128 % step
        rng = np.random.default_rng(90)
        x = rng.normal(size=(batch, *x_shape[1:])).astype(dtype)
        w = rng.normal(size=(n, x_shape[1], k, k)).astype(dtype)
        bias = rng.normal(size=n).astype(dtype)
        matrix = numerics.kernel_matrix(w)
        y = numerics.lowered_product(x, matrix, k, stride, pad)
        assert same_bits(y, one_shot(x, matrix, k, stride, pad))
        assert same_bits(conv2d_forward_batch(x, w, stride, pad), y)
        y = numerics.lowered_product(x, matrix, k, stride, pad, bias=bias)
        assert same_bits(y, one_shot(x, matrix, k, stride, pad, bias))

    @pytest.mark.parametrize("x_shape, n, k, stride, pad, dtype", BENCH_CONVS)
    def test_backward_against_one_shot(self, x_shape, n, k, stride, pad, dtype):
        rng = np.random.default_rng(91)
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=(n, x_shape[1], k, k)).astype(dtype)
        g = rng.normal(size=conv2d_forward_batch(x, w, stride, pad).shape).astype(dtype)
        gx, gw = conv2d_backward_batch(g, x, w, stride, pad)
        g_flat = g.transpose(0, 2, 3, 1).reshape(-1, n)
        want_w = (g_flat.T @ im2col(x, k, stride, pad)).reshape(n, k, k, -1).transpose(0, 3, 1, 2)
        # the slices' partial sums reassociate grad_w's sum over the batch
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert gw.dtype == dtype
        assert np.max(np.abs(gw - want_w)) <= tol * np.max(np.abs(want_w))
        if stride == 1:
            # a stride-1 input gradient is a forward product: bitwise
            flipped = w[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(x_shape[1], -1)
            assert same_bits(gx, one_shot(g, flipped, k, 1, k - 1 - pad))

    def test_training_steps_stay_under_the_column_budget(self, monkeypatch):
        # no column buffer of a batch-128 res or backbone step exceeds
        # COLUMN_BYTES, unless one sample's columns alone do
        buffers_seen = []

        def spy(x, k, stride, pad):
            cols = im2col(x, k, stride, pad)
            buffers_seen.append((len(x), cols.nbytes))
            return cols

        model = Model(default_spec())
        params, buffers = model.init(0)
        rng = np.random.default_rng(93)
        bits = (rng.random((128, 8, 16, 16)) < 0.5).astype(np.uint8)
        images = rng.normal(size=(128, 3, 16, 16))
        monkeypatch.setattr(numerics, "im2col", spy)
        z, cache = model.forward_res(params, buffers, bits, True)
        model.backward_res(params, cache, np.ones_like(z), {})
        feats, cache = model.forward_backbone(params, buffers, images, True)
        model.backward_backbone(params, cache, np.ones_like(feats), {})
        assert buffers_seen and min(size for size, _ in buffers_seen) < 128
        for size, nbytes in buffers_seen:
            assert nbytes <= numerics.COLUMN_BYTES or size == 1, (size, nbytes)
