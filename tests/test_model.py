import numpy as np
import pytest

from asymsplit.decompose import DecompositionConfig
from asymsplit.model import (
    BlockSpec,
    ChannelNorm,
    Conv2d,
    LowRankConv2d,
    Model,
    ModelSpec,
    ResBlock,
    Sequential,
    _build_branch,
    count_macs,
    default_spec,
    factorize_reference,
    forward_full,
    he_normal,
    load_checkpoint,
    lowrank_forward,
    orth_reg,
    save_checkpoint,
    softmax,
)
from asymsplit.numerics import conv2d_forward


def central_diff(f, x, step=1e-5):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return g


def rel_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


class TestLowRankConv:
    def test_degenerate_factorization_matches_dense(self):
        # q = n with an identity 1x1 mix reproduces the dense conv exactly
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 8, 8))
        w = rng.normal(size=(5, 3, 3, 3))
        w2 = np.eye(5).reshape(5, 5, 1, 1)
        got = lowrank_forward(w, w2, x, stride=1, padding=1)
        want = conv2d_forward(x, w, stride=1, padding=1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_input(self):
        w1 = np.ones((2, 3, 3, 3))
        w2 = np.ones((4, 2, 1, 1))
        out = lowrank_forward(w1, w2, np.zeros((3, 6, 6)), padding=1)
        assert np.all(out == 0)

    def test_output_rank_bounded_by_q(self):
        rng = np.random.default_rng(1)
        q = 3
        w1 = rng.normal(size=(q, 4, 3, 3))
        w2 = rng.normal(size=(8, q, 1, 1))
        out = lowrank_forward(w1, w2, rng.normal(size=(4, 12, 12)), padding=1)
        s = np.linalg.svd(out.reshape(8, -1), compute_uv=False)
        assert np.all(s[q:] <= 1e-8 * s[0])

    def test_rank_exceeding_width_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            LowRankConv2d("x", 4, 3, 3, q=5)


class TestFactorizeReference:
    def lowered_rank_q_input(self, rng, c, k, q, patches_side):
        """A tensor whose k-stride lowered rows span exactly q directions."""
        basis = np.linalg.qr(rng.normal(size=(c * k * k, q)))[0]
        coeffs = rng.normal(size=(patches_side**2, q))
        rows = coeffs @ basis.T
        h = w = patches_side * k
        x = np.zeros((c, h, w))
        idx = 0
        for i in range(0, h, k):
            for j in range(0, w, k):
                x[:, i : i + k, j : j + k] = rows[idx].reshape(c, k, k)
                idx += 1
        return x, basis

    def test_zero_gap_on_admissible_inputs(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            c = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            q = int(rng.integers(1, 4))
            k = 3
            x, basis = self.lowered_rank_q_input(rng, c, k, q, patches_side=2)
            w = rng.normal(size=(n, c, k, k))
            w1, w2 = factorize_reference(w, basis)
            y = conv2d_forward(x, w, stride=k, padding=0)
            y2 = lowrank_forward(w1, w2, x, stride=k, padding=0)
            assert rel_gap(y2, y) <= 1e-6

    def test_zero_kernel(self):
        basis = np.linalg.qr(np.random.default_rng(3).normal(size=(36, 2)))[0]
        w1, w2 = factorize_reference(np.zeros((5, 4, 3, 3)), basis)
        assert np.all(w1 == 0) and np.all(w2 == 0)

    def test_full_basis_is_exact_everywhere(self):
        rng = np.random.default_rng(4)
        c, n, k = 2, 4, 3
        basis = np.linalg.qr(rng.normal(size=(c * k * k, c * k * k)))[0]
        w = rng.normal(size=(n, c, k, k))
        w1, w2 = factorize_reference(w, basis)
        x = rng.normal(size=(c, 9, 9))
        y = conv2d_forward(x, w, stride=1, padding=1)
        y2 = lowrank_forward(w1, w2, x, stride=1, padding=1)
        assert rel_gap(y2, y) <= 1e-9

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            factorize_reference(np.ones((2, 1, 3, 3)), np.ones((9, 2)))

    def test_rejects_wrong_basis_rows(self):
        with pytest.raises(ValueError, match="basis rows"):
            factorize_reference(np.ones((2, 2, 3, 3)), np.eye(9)[:, :2])

    def test_shapes(self):
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.normal(size=(4 * 9, 3)))[0]
        w1, w2 = factorize_reference(rng.normal(size=(6, 4, 3, 3)), basis)
        assert w1.shape == (3, 4, 3, 3)
        assert w2.shape == (6, 3, 1, 1)


class TestOrthReg:
    def test_orthonormal_rows_zero_loss(self):
        w1 = np.linalg.qr(np.random.default_rng(6).normal(size=(9, 3)))[0].T
        loss, grad = orth_reg(w1.reshape(3, 1, 3, 3))
        assert loss <= 1e-12
        assert np.max(np.abs(grad)) <= 1e-6

    def test_hand_case(self):
        g = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, grad = orth_reg(g)
        # G G^T = [[1,1],[1,1]]; off-diagonal ones contribute 1 + 1
        assert loss == 2.0
        np.testing.assert_allclose(grad, 4.0 * np.array([[0, 1], [1, 0]]) @ g)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(3, 2, 3, 3))
        _, grad = orth_reg(w1)
        fd = central_diff(lambda: orth_reg(w1)[0], w1)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-5


class TestLayerGradients:
    def project_loss(self, layer, params, x, proj, train=True):
        def run():
            y, _ = layer.forward(params, {}, x, train)
            return float(np.sum(proj * y))
        return run

    def test_conv_layer(self):
        rng = np.random.default_rng(8)
        layer = Conv2d("c", 2, 3, 3, stride=2, padding=1)
        params = {}
        layer.init(rng, params)
        x = rng.normal(size=(2, 2, 6, 6))
        y, cache = layer.forward(params, {}, x, True)
        proj = rng.normal(size=y.shape)
        grads = {}
        gx = layer.backward(params, cache, proj, grads)

        run = self.project_loss(layer, params, x, proj)
        fd_w = central_diff(lambda: run(), params["c/w"])
        fd_x = central_diff(lambda: run(), x)
        assert np.linalg.norm(grads["c/w"] - fd_w) / np.linalg.norm(fd_w) <= 1e-5
        assert np.linalg.norm(gx - fd_x) / np.linalg.norm(fd_x) <= 1e-5

    def test_lowrank_layer(self):
        rng = np.random.default_rng(9)
        layer = LowRankConv2d("l", 3, 4, 3, q=2, stride=1, padding=1)
        params = {}
        layer.init(rng, params)
        x = rng.normal(size=(2, 3, 5, 5))
        y, cache = layer.forward(params, {}, x, True)
        proj = rng.normal(size=y.shape)
        grads = {}
        gx = layer.backward(params, cache, proj, grads)

        run = self.project_loss(layer, params, x, proj)
        for key in ("l/w1", "l/w2"):
            fd = central_diff(lambda: run(), params[key])
            assert np.linalg.norm(grads[key] - fd) / np.linalg.norm(fd) <= 1e-5
        fd_x = central_diff(lambda: run(), x)
        assert np.linalg.norm(gx - fd_x) / np.linalg.norm(fd_x) <= 1e-5

    def test_channel_norm_train_mode(self):
        rng = np.random.default_rng(10)
        layer = ChannelNorm("n", 3)
        params = {}
        layer.init(rng, params)
        params["n/scale"] = rng.normal(size=3) + 1.0
        params["n/shift"] = rng.normal(size=3)
        x = rng.normal(size=(4, 3, 5, 5))

        def fresh_buffers():
            b = {}
            layer.init_buffers(b)
            return b

        y, cache = layer.forward(params, fresh_buffers(), x, True)
        proj = rng.normal(size=y.shape)
        grads = {}
        gx = layer.backward(params, cache, proj, grads)

        def loss():
            out, _ = layer.forward(params, fresh_buffers(), x, True)
            return float(np.sum(proj * out))

        fd_x = central_diff(lambda: loss(), x)
        assert np.linalg.norm(gx - fd_x) / np.linalg.norm(fd_x) <= 1e-5
        for key in ("n/scale", "n/shift"):
            fd = central_diff(lambda: loss(), params[key])
            assert np.linalg.norm(grads[key] - fd) / np.linalg.norm(fd) <= 1e-5

    def test_channel_norm_normalizes(self):
        rng = np.random.default_rng(11)
        layer = ChannelNorm("n", 4)
        params, buffers = {}, {}
        layer.init(rng, params)
        layer.init_buffers(buffers)
        x = 3.0 + 2.0 * rng.normal(size=(8, 4, 6, 6))
        y, _ = layer.forward(params, buffers, x, True)
        means = y.mean(axis=(0, 2, 3))
        stds = y.std(axis=(0, 2, 3))
        assert np.max(np.abs(means)) <= 1e-10
        np.testing.assert_allclose(stds, 1.0, atol=1e-3)
        # running stats moved toward the batch statistics
        assert np.all(buffers["n/running_mean"] > 0)

    def test_resblock_gradients(self):
        rng = np.random.default_rng(12)
        block = ResBlock("rb", 2, 3, 3, stride=2, q=2, normalize=False)
        params = {}
        block.init(rng, params)
        x = rng.normal(size=(2, 2, 6, 6))
        y, cache = block.forward(params, {}, x, True)
        proj = rng.normal(size=y.shape)
        grads = {}
        gx = block.backward(params, cache, proj, grads)

        def loss():
            out, _ = block.forward(params, {}, x, True)
            return float(np.sum(proj * out))

        fd_x = central_diff(lambda: loss(), x)
        assert np.linalg.norm(gx - fd_x) / max(np.linalg.norm(fd_x), 1e-12) <= 1e-5
        for key, g in grads.items():
            fd = central_diff(lambda: loss(), params[key])
            assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-5, key


class TestLeafInputGradients:
    def test_leaf_skip_keeps_every_weight_gradient(self):
        # the backbone conv and res/b0 (conv1, proj) skip their input
        # gradient; re-enabling it must not move a single weight-gradient bit
        rng = np.random.default_rng(13)
        spec = default_spec(r=2)
        leaf, full = Model(spec), Model(spec)
        full.backbone = Sequential([
            Conv2d("bb/conv", spec.in_channels, spec.bb_channels, spec.bb_k, 1, "same")
        ])
        full.res = _build_branch(
            "res", spec.res_blocks, spec.bb_channels, spec.num_classes,
            spec.normalize, lowrank=False, input_grad=True,
        )
        params, buffers = leaf.init(seed=5)
        x = rng.normal(size=(4, spec.in_channels, 16, 16))
        bits = rng.choice([-1.0, 1.0], size=(4, spec.bb_channels, 16, 16))
        g_feats = rng.normal(size=(4, spec.bb_channels, 16, 16))
        g_z = rng.normal(size=(4, spec.num_classes))

        def backward(model):
            grads = {}
            _, bb_cache = model.forward_backbone(params, dict(buffers), x, True)
            g_bb = model.backward_backbone(params, bb_cache, g_feats, grads)
            _, res_cache = model.forward_res(params, dict(buffers), bits, True)
            g_res = model.backward_res(params, res_cache, g_z, grads)
            return grads, g_bb, g_res

        grads_leaf, g_bb_leaf, g_res_leaf = backward(leaf)
        grads_full, g_bb_full, g_res_full = backward(full)
        assert g_bb_leaf is None and g_res_leaf is None
        assert g_bb_full.shape == x.shape and g_res_full.shape == bits.shape
        assert grads_leaf.keys() == grads_full.keys()
        for key in grads_full:
            assert grads_leaf[key].tobytes() == grads_full[key].tobytes(), key


class TestModelSpec:
    def test_main_blocks_require_q(self):
        with pytest.raises(ValueError, match="rank q"):
            ModelSpec(main_blocks=(BlockSpec(8, 3, 2),))

    def test_q_capped_by_width(self):
        with pytest.raises(ValueError, match="exceeds"):
            ModelSpec(main_blocks=(BlockSpec(8, 3, 2, q=16),))

    def test_default_spec_rank_discipline(self):
        spec = default_spec(r=4)
        assert [b.q for b in spec.main_blocks] == [8, 16]
        assert spec.main_blocks[1].n == 2 * spec.main_blocks[0].n

    def test_hash_changes_with_spec(self):
        assert default_spec(r=4).spec_hash() != default_spec(r=3).spec_hash()


class TestMacCounting:
    def test_dense_layer_hand_count(self):
        layer = Conv2d("c", 3, 16, 3, stride=1, padding="same")
        macs, out_shape = layer.macs((3, 32, 32))
        assert macs == 16 * 3 * 9 * 32 * 32
        assert out_shape == (16, 32, 32)

    def test_lowrank_layer_hand_count(self):
        layer = LowRankConv2d("l", 16, 32, 3, q=8, stride=2, padding=1)
        macs, out_shape = layer.macs((16, 16, 16))
        assert out_shape == (32, 8, 8)
        assert macs == (8 * 16 * 9 + 32 * 8) * 8 * 8

    def test_complexity_ratio_formula(self):
        # factorized/dense per-position ratio is (q c k^2 + n q)/(n c k^2)
        c, n, k, q = 16, 32, 3, 8
        dense = Conv2d("d", c, n, k, 1, 1).macs((c, 8, 8))[0]
        low = LowRankConv2d("l", c, n, k, q, 1, 1).macs((c, 8, 8))[0]
        assert low / dense == pytest.approx((q * c * k**2 + n * q) / (n * c * k**2))

    @pytest.mark.parametrize("side", [16, 32])
    def test_shipped_spec_ratio(self, side):
        spec = default_spec(r=4)
        dcfg = DecompositionConfig(r=4, t=8, t_prime=4)
        macs = count_macs(spec, (side, side), dcfg)
        assert macs["private"] == macs["backbone"] + macs["main"]
        assert macs["ratio"] <= 0.15


class TestForwardFull:
    def make_model(self, alpha):
        spec = default_spec(r=2, num_classes=3, alpha=alpha)
        model = Model(spec)
        params, buffers = model.init(seed=0)
        return model, params, buffers

    def test_alpha_zero_ignores_residual(self):
        model, params, buffers = self.make_model(alpha=0.0)
        x = np.random.default_rng(1).normal(size=(3, 32, 32))
        dcfg = DecompositionConfig(r=2, t=8, t_prime=4)
        z_main, z_res, pred = forward_full(model, params, buffers, x, dcfg, sigma=1.0, seed=3)
        assert pred == int(np.argmax(z_main))

    def test_merge_is_elementwise_sum(self):
        model, params, buffers = self.make_model(alpha=1.0)
        x = np.random.default_rng(2).normal(size=(3, 32, 32))
        dcfg = DecompositionConfig(r=2, t=8, t_prime=4)
        z_main, z_res, pred = forward_full(model, params, buffers, x, dcfg)
        assert pred == int(np.argmax(z_main + z_res))

    def test_replayed_bits_reproduce(self):
        model, params, buffers = self.make_model(alpha=1.0)
        x = np.random.default_rng(3).normal(size=(3, 32, 32))
        dcfg = DecompositionConfig(r=2, t=8, t_prime=4)
        bits = np.ones((model.spec.bb_channels, 32, 32), dtype=np.uint8)
        a = forward_full(model, params, buffers, x, dcfg, residual_bits=bits)
        b = forward_full(model, params, buffers, x, dcfg, residual_bits=bits)
        assert a[2] == b[2]
        np.testing.assert_array_equal(a[0], b[0])

    def test_softmax_rows(self):
        z = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        s = softmax(z)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(s[1], [1 / 3] * 3, atol=1e-12)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        spec = default_spec(r=2, num_classes=3)
        model = Model(spec)
        params, buffers = model.init(seed=5)
        meta = {"spec_hash": spec.spec_hash().hex(), "note": "unit"}
        path = tmp_path / "m.dltp"
        save_checkpoint(path, params, buffers, meta)
        params2, buffers2, meta2 = load_checkpoint(path)
        assert meta2 == meta
        assert set(params2) == set(params)
        for key in params:
            np.testing.assert_array_equal(params2[key], params[key])
        for key in buffers:
            np.testing.assert_array_equal(buffers2[key], buffers[key])

    def test_meta_detects_spec_mismatch(self, tmp_path):
        spec_a = default_spec(r=2, num_classes=3)
        spec_b = default_spec(r=3, num_classes=3)
        params, buffers = Model(spec_a).init(seed=0)
        path = tmp_path / "a.dltp"
        save_checkpoint(path, params, buffers, {"spec_hash": spec_a.spec_hash().hex()})
        _, _, meta = load_checkpoint(path)
        assert meta["spec_hash"] == spec_a.spec_hash().hex()
        assert meta["spec_hash"] != spec_b.spec_hash().hex()

    def test_truncation_detected(self, tmp_path):
        model = Model(default_spec(r=2, num_classes=3))
        params, buffers = model.init(seed=0)
        path = tmp_path / "t.dltp"
        save_checkpoint(path, params, buffers, {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dltp"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestInit:
    def test_deterministic(self):
        model = Model(default_spec())
        p1, b1 = model.init(seed=9)
        p2, b2 = model.init(seed=9)
        for key in p1:
            np.testing.assert_array_equal(p1[key], p2[key])

    def test_he_scaling(self):
        rng = np.random.default_rng(0)
        w = he_normal(rng, (256, 64, 3, 3), 64 * 9)
        assert abs(w.std() - np.sqrt(2.0 / (64 * 9))) / np.sqrt(2.0 / (64 * 9)) <= 0.05

    def test_all_declared_params_present(self):
        model = Model(default_spec())
        params, buffers = model.init(seed=0)
        assert set(params) == set(model.param_keys())
        assert set(buffers) == set(model.buffer_keys())
        for key, shape in model.param_keys().items():
            assert params[key].shape == tuple(shape)
