import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from asymsplit import model as model_mod
from asymsplit.datasets import synthetic_dataset
from asymsplit.decompose import DecompositionConfig
from asymsplit.model import (
    DENSE_MAX_INPUT,
    BlockSpec,
    ChannelNorm,
    Conv2d,
    GlobalAvgPool,
    Layer,
    Linear,
    LowRankConv2d,
    Model,
    ModelSpec,
    ResBlock,
    Sequential,
    count_macs,
    default_spec,
    factorize_reference,
    forward_full,
    ReLU,
    load_checkpoint,
    orth_reg,
    save_checkpoint,
    softmax,
)
from asymsplit.numerics import conv2d_forward_batch
from asymsplit.training import SgdState, TrainConfig, sgd_step


def conv2d_forward(x, w, stride=1, padding=0):
    """One (c, h, w) sample through the batched convolution."""
    return conv2d_forward_batch(x[None], w, stride, padding)[0]


def lowrank_forward(w1, w2, x, stride=1, padding=0):
    """One sample through a factorized conv given its two kernels."""
    return conv2d_forward(conv2d_forward(x, w1, stride, padding), w2)


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
        layer.init(rng, params, {})
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
        layer.init(rng, params, {})
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
        layer.init(rng, params, {})
        params["n/scale"] = rng.normal(size=3) + 1.0
        params["n/shift"] = rng.normal(size=3)
        # the NCHW view of an NHWC array, as convolutions return it;
        # finite differences perturb the NHWC array under it
        nhwc = rng.normal(size=(4, 5, 6, 3))
        x = nhwc.transpose(0, 3, 1, 2)

        def fresh_buffers():
            b = {}
            layer.init(rng, {}, b)
            return b

        y, cache = layer.forward(params, fresh_buffers(), x, True)
        proj = rng.normal(size=y.shape)
        grads = {}
        gx = layer.backward(params, cache, proj, grads)

        def loss():
            out, _ = layer.forward(params, fresh_buffers(), x, True)
            return float(np.sum(proj * out))

        fd_x = central_diff(lambda: loss(), nhwc).transpose(0, 3, 1, 2)
        assert np.linalg.norm(gx - fd_x) / np.linalg.norm(fd_x) <= 1e-5
        for key in ("n/scale", "n/shift"):
            fd = central_diff(lambda: loss(), params[key])
            assert np.linalg.norm(grads[key] - fd) / np.linalg.norm(fd) <= 1e-5

    def test_channel_norm_eval_mode(self):
        rng = np.random.default_rng(12)
        layer = ChannelNorm("n", 3)
        params = {"n/scale": rng.normal(size=3) + 1.0, "n/shift": rng.normal(size=3)}
        buffers = {"n/running_mean": rng.normal(size=3),
                   "n/running_var": rng.uniform(0.5, 2.0, size=3)}
        nhwc = rng.normal(size=(4, 5, 6, 3))
        x = nhwc.transpose(0, 3, 1, 2)
        y, cache = layer.forward(params, buffers, x, False)
        inv = 1.0 / np.sqrt(buffers["n/running_var"] + 1e-5)
        xhat = (x - buffers["n/running_mean"][:, None, None]) * inv[:, None, None]
        np.testing.assert_allclose(
            y, params["n/scale"][:, None, None] * xhat + params["n/shift"][:, None, None],
            rtol=0, atol=1e-12,
        )
        proj = rng.normal(size=y.shape)
        grads = {}
        gx = layer.backward(params, cache, proj, grads)

        def loss():
            out, _ = layer.forward(params, buffers, x, False)
            return float(np.sum(proj * out))

        for arr, got in ((nhwc, gx.transpose(0, 2, 3, 1)), (params["n/scale"], grads["n/scale"]),
                         (params["n/shift"], grads["n/shift"])):
            fd = central_diff(lambda: loss(), arr)
            assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-5

    def test_channel_norm_running_statistics(self):
        rng = np.random.default_rng(13)
        layer = ChannelNorm("n", 4)
        params, buffers = {}, {}
        layer.init(rng, params, {})
        buffers = {"n/running_mean": rng.normal(size=4),
                   "n/running_var": rng.uniform(0.5, 2.0, size=4)}
        before = {k: v.copy() for k, v in buffers.items()}
        x = 3.0 + 2.0 * rng.normal(size=(8, 6, 5, 4)).transpose(0, 3, 1, 2)
        layer.forward(params, buffers, x, True)
        # the exponential moving average of the batch's mean and biased variance
        np.testing.assert_allclose(
            buffers["n/running_mean"],
            0.9 * before["n/running_mean"] + 0.1 * x.mean(axis=(0, 2, 3)), rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            buffers["n/running_var"],
            0.9 * before["n/running_var"] + 0.1 * x.var(axis=(0, 2, 3)), rtol=0, atol=1e-12,
        )

    def test_channel_norm_normalizes(self):
        rng = np.random.default_rng(11)
        layer = ChannelNorm("n", 4)
        params, buffers = {}, {}
        layer.init(rng, params, buffers)
        x = 3.0 + 2.0 * rng.normal(size=(8, 4, 6, 6))
        y, _ = layer.forward(params, buffers, x, True)
        means = y.mean(axis=(0, 2, 3))
        stds = y.std(axis=(0, 2, 3))
        assert np.max(np.abs(means)) <= 1e-10
        np.testing.assert_allclose(stds, 1.0, atol=1e-3)
        # running stats moved toward the batch statistics
        assert np.all(buffers["n/running_mean"] > 0)

    def test_resblock_gradients(self):
        # a factorized block with a projection skip, then a dense block with
        # an identity skip (in_ch == n, stride 1) with and without the input
        # gradient; without it backward returns None and every weight still
        # gets its gradient
        rng = np.random.default_rng(12)
        cases = (
            (ResBlock("rb", 2, 3, 3, stride=2, q=2, normalize=False), (2, 2, 6, 6), True),
            (ResBlock("id", 3, 3, 3, stride=1), (2, 3, 5, 5), True),
            (ResBlock("id", 3, 3, 3, stride=1), (2, 3, 5, 5), False),
        )
        for block, x_shape, input_grad in cases:
            params, buffers = {}, {}
            block.init(rng, params, buffers)
            x = rng.normal(size=x_shape)
            y, cache = block.forward(params, buffers, x, True)
            proj = rng.normal(size=y.shape)
            grads = {}
            gx = block.backward(params, cache, proj, grads, input_grad)

            def loss():
                out, _ = block.forward(params, buffers, x, True)
                return float(np.sum(proj * out))

            if input_grad:
                fd_x = central_diff(loss, x)
                assert np.linalg.norm(gx - fd_x) / max(np.linalg.norm(fd_x), 1e-12) <= 1e-5
            else:
                assert gx is None
            assert grads.keys() == params.keys(), block.prefix
            for key, g in grads.items():
                fd = central_diff(loss, params[key])
                assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-5, key


class TestResidualBranch:
    """The public branch: float64 layer code checked by finite differences,
    and the float32 pass that forward_res runs checked against it."""

    SPEC = ModelSpec(
        in_channels=2, bb_channels=3,
        main_blocks=(BlockSpec(4, 3, 2, q=2),),
        res_blocks=(BlockSpec(4, 3, 2), BlockSpec(6, 3, 2)),
        num_classes=3,
    )

    def branch_inputs(self, seed):
        model = Model(self.SPEC)
        params, buffers = model.init(seed)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(3, 3, 8, 8)).astype(np.uint8)
        proj = rng.normal(size=(3, self.SPEC.num_classes))
        return model, params, buffers, bits, proj

    def test_float64_branch_matches_finite_differences(self):
        model, params, buffers, bits, proj = self.branch_inputs(21)
        x = bits.astype(np.float64)

        def loss():
            z, _ = model.res.forward(params, dict(buffers), x, True)
            return float(np.sum(proj * z))

        z, cache = model.res.forward(params, dict(buffers), x, True)
        assert z.dtype == np.float64
        grads = {}
        assert model.res.backward(params, cache, proj, grads, input_grad=False) is None
        assert set(grads) == {k for k in params if k.startswith("res/")}
        for key, g in grads.items():
            assert g.dtype == np.float64, key
            fd = central_diff(loss, params[key])
            assert rel_gap(g, fd) <= 1e-5, key

    def test_float32_pass_tracks_float64(self):
        model, params, buffers, bits, proj = self.branch_inputs(22)
        buf32, buf64 = dict(buffers), dict(buffers)
        z32, cache32 = model.forward_res(params, buf32, bits, True)
        z64, cache64 = model.res.forward(params, buf64, bits.astype(np.float64), True)
        assert rel_gap(z32, z64) <= 1e-5
        g32, g64 = {}, {}
        model.backward_res(params, cache32, proj, g32)
        model.res.backward(params, cache64, proj, g64)
        assert g32.keys() == g64.keys()
        for key in g64:
            assert g32[key].dtype == (np.float64 if key.startswith("res/fc/") else np.float32)
            assert rel_gap(g32[key], g64[key]) <= 1e-4, key
        # running statistics keep their float64 buffers
        for key in buf32:
            assert buf32[key].dtype == np.float64
            assert rel_gap(buf32[key], buf64[key]) <= 1e-5, key


class TestTrainingStepMemory:
    """Batch-128 training steps lower their convolutions in bounded
    slices: tracemalloc's peak over a step stays a few MiB."""

    @staticmethod
    def traced_peak_mib(fn):
        fn()  # fills the shape caches outside the trace
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def setup_method(self):
        self.model = Model(default_spec())
        self.params, self.buffers = self.model.init(0)
        self.rng = np.random.default_rng(5)

    def test_residual_branch_step(self):
        bits = (self.rng.random((128, 8, 16, 16)) < 0.5).astype(np.uint8)

        def step():
            z, cache = self.model.forward_res(self.params, self.buffers, bits, True)
            self.model.backward_res(self.params, cache, np.ones_like(z) / 128, {})

        assert self.traced_peak_mib(step) <= 13

    def test_backbone_step(self):
        images = self.rng.normal(size=(128, 3, 16, 16))

        def step():
            feats, cache = self.model.forward_backbone(self.params, self.buffers, images, True)
            self.model.backward_backbone(self.params, cache, np.ones_like(feats), {})

        assert self.traced_peak_mib(step) <= 6


class TestLeafInputGradients:
    def test_leaf_skip_keeps_every_weight_gradient(self):
        # the backbone conv and res/b0 (conv1, proj) skip their input
        # gradient; re-enabling it must not move a single weight-gradient bit
        rng = np.random.default_rng(13)
        spec = default_spec(r=2)
        model = Model(spec)
        params, buffers = model.init(seed=5)
        x = rng.normal(size=(4, spec.in_channels, 16, 16))
        bits = rng.choice([-1.0, 1.0], size=(4, spec.bb_channels, 16, 16))
        g_feats = rng.normal(size=(4, spec.bb_channels, 16, 16))
        g_z = rng.normal(size=(4, spec.num_classes))

        def backward(backward_backbone, backward_res):
            grads = {}
            _, bb_cache = model.forward_backbone(params, dict(buffers), x, True)
            g_bb = backward_backbone(params, bb_cache, g_feats, grads)
            _, res_cache = model.forward_res(params, dict(buffers), bits, True)
            g_res = backward_res(params, res_cache, g_z, grads)
            return grads, g_bb, g_res

        grads_leaf, g_bb_leaf, g_res_leaf = backward(model.backward_backbone, model.backward_res)
        grads_full, g_bb_full, g_res_full = backward(model.backbone.backward, model.res.backward)
        assert g_bb_leaf is None and g_res_leaf is None
        assert g_bb_full.shape == x.shape and g_res_full.shape == bits.shape
        assert grads_leaf.keys() == grads_full.keys()
        for key in grads_full:
            assert grads_leaf[key].tobytes() == grads_full[key].tobytes(), key

    def test_sequential_hands_the_flag_to_its_first_layer_only(self, monkeypatch):
        # a block's body and skip hand input_grad=False on to the conv that
        # reads the block's input (conv1, proj) and to no other; an identity
        # skip, an empty Sequential, passes g through or returns None
        calls = []
        for cls in (Conv2d, LowRankConv2d):
            def spy(self, *args, _real=cls.backward, **kwargs):
                calls.append((self.prefix, args[4:], kwargs))
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "backward", spy)
        rng = np.random.default_rng(14)
        for block, x_shape, reads_input in (
            (ResBlock("id", 3, 3, 3, stride=1), (2, 3, 5, 5), ["id/conv1"]),
            (ResBlock("pj", 2, 3, 3, stride=2, q=2), (2, 2, 6, 6), ["pj/conv1", "pj/proj"]),
        ):
            params, buffers = {}, {}
            block.init(rng, params, buffers)
            y, (body_cache, skip_cache, _) = block.forward(
                params, buffers, rng.normal(size=x_shape), True)
            g = rng.normal(size=y.shape)
            for input_grad in (True, False):
                calls.clear()
                gx = block.body.backward(params, body_cache, g, {}, input_grad)
                gs = block.skip.backward(params, skip_cache, g, {}, input_grad)
                # conv2 is called with no flag, each conv reading x with it
                assert calls == [(f"{block.prefix}/conv2", (), {})] + [
                    (prefix, (input_grad,), {}) for prefix in reads_input]
                if not input_grad:
                    assert gx is None and gs is None
                elif block.skip.layers:
                    assert gx.shape == gs.shape == x_shape
                else:
                    assert gx.shape == x_shape and gs is g


def randomize_norms(rng, params, buffers):
    """Non-trivial affines and running statistics for every norm."""
    for key in params:
        if key.endswith(("/scale", "/shift")):
            params[key] = rng.normal(size=params[key].shape) + key.endswith("/scale")
    for key in buffers:
        buffers[key] = (rng.uniform(0.2, 3.0, size=buffers[key].shape)
                        if key.endswith("/running_var") else rng.normal(size=buffers[key].shape))


def unfolded_block(block, params, buffers, x):
    """A block's eval pass by its definition: relu(body(x) + skip(x)) through
    the Sequentials, each norm its own eval-mode ChannelNorm."""
    y, _ = block.body.forward(params, buffers, x, False)
    s, _ = block.skip.forward(params, buffers, x, False)
    return np.maximum(y + s, 0.0)


def unfolded_branch(branch, params, buffers, x):
    for layer in branch.layers:
        if isinstance(layer, ResBlock):
            x = unfolded_block(layer, params, buffers, x)
        else:
            x, _ = layer.forward(params, buffers, x, False)
    return x


class TestEvalFold:
    """An eval-mode ResBlock runs its norms folded into pre-lowered kernels."""

    CASES = (
        (dict(prefix="f", in_ch=3, n=6, k=3, stride=2, q=2), (2, 3, 8, 8)),  # projection skip
        (dict(prefix="d", in_ch=4, n=4, k=3, stride=1), (2, 4, 6, 6)),  # identity skip
    )

    def blocks(self, seed, normalize=True):
        rng = np.random.default_rng(seed)
        for kwargs, x_shape in self.CASES:
            block = ResBlock(**kwargs, normalize=normalize)
            params, buffers = {}, {}
            block.init(rng, params, buffers)
            randomize_norms(rng, params, buffers)
            yield block, params, buffers, rng.normal(size=x_shape)

    def test_fold_matches_definition(self):
        for block, params, buffers, x in self.blocks(31):
            y, cache = block.forward(params, buffers, x, False)
            want = unfolded_block(block, params, buffers, x)
            assert cache is None and y.dtype == np.float64
            assert np.max(np.abs(y - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), block.prefix

    def test_float32_residual_branch_matches_definition(self):
        model = Model(default_spec(r=2))
        params, buffers = model.init(4)
        rng = np.random.default_rng(4)
        randomize_norms(rng, params, buffers)
        bits = rng.integers(0, 2, size=(3, 8, 16, 16)).astype(np.uint8)
        z, _ = model.forward_res(params, buffers, bits, False)
        z32 = unfolded_branch(model.res, params, buffers, bits.astype(np.float32))
        z64 = unfolded_branch(model.res, params, buffers, bits.astype(np.float64))
        # the fold rounds to float32 once where the unfolded pass rounds per layer
        assert rel_gap(z, z64) <= 1e-5 and rel_gap(z32, z64) <= 1e-5

    def test_unnormalized_blocks_unchanged_bitwise(self):
        for block, params, buffers, x in self.blocks(32, normalize=False):
            for dtype in (np.float64, np.float32):
                xd = x.astype(dtype)
                y, _ = block.forward(params, buffers, xd, False)
                want = unfolded_block(block, params, buffers, xd)
                assert y.dtype == want.dtype == dtype
                assert y.tobytes() == want.tobytes(), (block.prefix, dtype)

    def test_train_mode_untouched(self, monkeypatch):
        monkeypatch.setattr(ResBlock, "_fold", lambda *a: pytest.fail("train mode folded"))
        for block, params, buffers, x in self.blocks(33):
            bufs_a, bufs_b = dict(buffers), dict(buffers)
            y, cache = block.forward(params, bufs_a, x, True)
            body, _ = block.body.forward(params, bufs_b, x, True)
            skip, _ = block.skip.forward(params, bufs_b, x, True)
            assert y.tobytes() == np.maximum(body + skip, 0.0).tobytes()
            assert len(cache) == 3
            for key in buffers:
                assert bufs_a[key].tobytes() == bufs_b[key].tobytes(), key


class TestFoldMemo:
    """The folded form is rebuilt whenever an array it read is rebound."""

    def make(self, seed=41):
        model = Model(default_spec(r=2))
        params, buffers = model.init(seed)
        rng = np.random.default_rng(seed)
        randomize_norms(rng, params, buffers)
        x = rng.normal(size=(2, 8, 4, 4))
        return model, params, buffers, x, rng

    def assert_current(self, model, params, buffers, x):
        z, _ = model.forward_main(params, buffers, x, False)
        want = unfolded_branch(model.main, params, buffers, x)
        np.testing.assert_allclose(z, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        return z

    @pytest.mark.parametrize("key", ["main/b0/conv1/w1", "main/b1/conv2/w2", "main/b0/proj/w",
                                     "main/b1/norm1/scale", "main/b0/proj_norm/shift",
                                     "main/b0/norm2/running_var", "main/b1/norm2/running_mean"])
    def test_rebinding_refolds(self, key):
        model, params, buffers, x, rng = self.make()
        before = self.assert_current(model, params, buffers, x)
        if key in params:
            step = {key: rng.normal(size=params[key].shape)}
            sgd_step(params, step, TrainConfig(), SgdState(), lr=0.5)
        else:
            buffers[key] = buffers[key] * 1.5 + 0.25  # rebound like a train-mode norm
        after = self.assert_current(model, params, buffers, x)
        assert np.max(np.abs(after - before)) > 1e-6

    def test_train_mode_statistics_reach_the_next_eval(self):
        model, params, buffers, x, _ = self.make()
        self.assert_current(model, params, buffers, x)
        old = {key: value for key, value in buffers.items() if key.startswith("main/")}
        model.forward_main(params, buffers, 3.0 * x + 1.0, True)
        assert old and all(buffers[key] is not old[key] for key in old)
        self.assert_current(model, params, buffers, x)

    def test_alternating_parameter_sets(self):
        model, params_a, buffers_a, x, _ = self.make(41)
        _, params_b, buffers_b, _, _ = self.make(42)
        bits = np.random.default_rng(5).integers(0, 2, size=(2, 8, 16, 16))
        fresh = {}
        for name, p, b in (("a", params_a, buffers_a), ("b", params_b, buffers_b)):
            other = Model(model.spec)
            fresh[name] = (other.forward_main(p, b, x, False)[0],
                           other.forward_res(p, b, bits, False)[0])
        for name, p, b in [("a", params_a, buffers_a), ("b", params_b, buffers_b)] * 2:
            z_main = self.assert_current(model, p, b, x)
            z_res, _ = model.forward_res(p, b, bits, False)
            assert z_main.tobytes() == fresh[name][0].tobytes(), name
            assert z_res.tobytes() == fresh[name][1].tobytes(), name

    def test_repeat_call_builds_nothing(self, monkeypatch):
        model, params, buffers, x, _ = self.make()
        counts = {"fold": 0, "norm": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ResBlock, "_fold", counted("fold", ResBlock._fold))
        monkeypatch.setattr(ChannelNorm, "forward", counted("norm", ChannelNorm.forward))
        first, _ = model.forward_main(params, buffers, x, False)
        assert counts == {"fold": 2, "norm": 0}
        again, _ = model.forward_main(dict(params), dict(buffers), x.copy(), False)
        assert counts == {"fold": 2, "norm": 0}
        assert again.tobytes() == first.tobytes()


def spy_dense(monkeypatch):
    """The (block prefix, probed input size) of every dense segment built."""
    probes, folding = [], []
    fold, dense = ResBlock._fold, model_mod._dense

    def spied_fold(self, *args):
        folding.append(self.prefix)
        try:
            return fold(self, *args)
        finally:
            folding.pop()

    def spied_dense(steps, shape):
        probes.append((folding[-1], math.prod(shape)))
        return dense(steps, shape)

    monkeypatch.setattr(ResBlock, "_fold", spied_fold)
    monkeypatch.setattr(model_mod, "_dense", spied_dense)
    return probes


def assert_close(y, want):
    assert y.shape == want.shape
    assert np.max(np.abs(y - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestDenseFold:
    """A normalized eval-mode block on a small map runs as dense matrices
    probed from its lowered fold; a large map or an unnormalized block
    stays lowered."""

    def test_main_branch_matches_definition(self, monkeypatch):
        model = Model(default_spec(r=4))
        params, buffers = model.init(51)
        rng = np.random.default_rng(51)
        randomize_norms(rng, params, buffers)
        probes = spy_dense(monkeypatch)
        for b in (1, 128):
            x = rng.normal(size=(b, 8, 4, 4))
            z, _ = model.forward_main(params, buffers, x, False)
            assert_close(z, unfolded_branch(model.main, params, buffers, x))
        # conv1, conv2 and the projection of each block, built once for both batches
        assert probes == [("main/b0", 128), ("main/b0", 48), ("main/b0", 128),
                          ("main/b1", 48), ("main/b1", 24), ("main/b1", 48)]

    def test_shape_change_refolds(self, monkeypatch):
        rng = np.random.default_rng(52)
        block = ResBlock("s", 8, 12, 3, 2, q=4)
        params, buffers = {}, {}
        block.init(rng, params, buffers)
        randomize_norms(rng, params, buffers)
        probes = spy_dense(monkeypatch)
        folds = []
        fold = ResBlock._fold
        monkeypatch.setattr(ResBlock, "_fold", lambda *a: folds.append(1) or fold(*a))
        for n, shape in enumerate([(8, 4, 4), (8, 8, 8), (8, 4, 4), (8, 16, 16)], 1):
            x = rng.normal(size=(2, *shape))
            y, _ = block.forward(params, buffers, x, False)
            assert_close(y, unfolded_block(block, params, buffers, x))
            again, _ = block.forward(params, buffers, x.copy(), False)
            assert again.tobytes() == y.tobytes() and len(folds) == n, shape
        # the (8, 16, 16) map reads 2048 values and stays lowered
        assert [size for _, size in probes] == [128, 48, 128, 512, 192, 512, 128, 48, 128]

    def test_bench_shapes_keep_residual_branch_lowered(self, monkeypatch):
        model = Model(default_spec(r=4))
        params, buffers = model.init(53)
        probes = spy_dense(monkeypatch)
        x = synthetic_dataset(n=64, seed=53).val_x[0]
        forward_full(model, params, buffers, x, DecompositionConfig(r=4, t=8, t_prime=2, C=1.0),
                     sigma=1.0, seed=53)
        assert {prefix for prefix, _ in probes} == {"main/b0", "main/b1"}
        assert max(size for _, size in probes) <= DENSE_MAX_INPUT


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
        params = {}
        Conv2d("c", 64, 256, 3).init(np.random.default_rng(0), params, {})
        w = params["c/w"]
        assert abs(w.std() - np.sqrt(2.0 / (64 * 9))) / np.sqrt(2.0 / (64 * 9)) <= 0.05

    def test_init_digest_pinned(self):
        # parameters and buffers, drawn in part order, keep their exact bytes
        params, buffers = Model(default_spec(r=4)).init(0)
        digest = hashlib.sha256()
        for arrays in (params, buffers):
            for key in sorted(arrays):
                digest.update(key.encode())
                digest.update(arrays[key].tobytes())
        assert digest.hexdigest() == (
            "5ebee1d5298a0d8720169d75f615ac0c7273a6ab3f7fb7a0bc3172e80731b36f"
        )

    def test_layer_defaults(self):
        layer = Layer()
        params, buffers = {}, {}
        layer.init(np.random.default_rng(0), params, buffers)
        assert layer.tensors() == () and layer.tensor_shapes() == ({}, {})
        assert params == {} and buffers == {}
        assert layer.macs((3, 4, 5)) == (0, (3, 4, 5))

    def test_every_layer_defines_its_own_passes(self):
        # per-class tracing reads forward/backward from the class body
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        found = set(subclasses(Layer))
        assert {Conv2d, LowRankConv2d, ChannelNorm, ReLU, GlobalAvgPool,
                Linear, Sequential, ResBlock} <= found
        for cls in found:
            assert "forward" in cls.__dict__ and "backward" in cls.__dict__, cls

    def test_all_declared_params_present(self):
        model = Model(default_spec())
        params, buffers = model.init(seed=0)
        param_shapes, buffer_shapes = model.tensor_shapes()
        assert set(params) == set(param_shapes)
        assert set(buffers) == set(buffer_shapes)
        for arrays, shapes in ((params, param_shapes), (buffers, buffer_shapes)):
            for key, shape in shapes.items():
                assert arrays[key].shape == shape
