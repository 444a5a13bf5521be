import numpy as np
import pytest
import scipy.fft

from asymsplit.numerics import (
    SvdFactors,
    as_tensor3,
    col2im,
    conv2d_backward,
    conv2d_backward_batch,
    conv2d_forward,
    conv2d_forward_batch,
    conv_out_size,
    dct_block_forward,
    dct_matrix,
    idct_block,
    im2col,
    read_tensor,
    svd,
    write_tensor,
)


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
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 5))
        path = tmp_path / "t.dlt"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.shape == (3, 4, 5)
        np.testing.assert_array_equal(back, x)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dlt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.dlt"
        write_tensor(path, np.ones((1, 2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError, match="offset 16"):
            read_tensor(path)

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

    def test_grad_shape_mismatch_rejected(self):
        x = np.zeros((1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="grad_out"):
            conv2d_backward(np.zeros((1, 9, 9)), x, w)


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

    def test_columns_are_kkc_ordered(self):
        # column (i, j, ch) of output position (y, x) reads the padded input
        # at channel ch, row y * stride + i, column x * stride + j
        rng = np.random.default_rng(41)
        x = rng.normal(size=(2, 3, 5, 5))
        k, stride, pad = 3, 2, 1
        cols = im2col(x, k, stride, pad).reshape(2, 3, 3, k, k, 3)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        for b, y, xx, i, j, ch in np.ndindex(cols.shape):
            assert cols[b, y, xx, i, j, ch] == xp[b, ch, y * stride + i, xx * stride + j]
