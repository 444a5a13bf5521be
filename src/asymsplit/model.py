"""Model zoo for the split pipeline: backbone, main branch, residual branch.

Everything is plain numpy with hand-written backward passes.  Parameters
live in flat dicts keyed by slash-joined layer paths ("main/b0/conv1/w1"),
so optimizers, checkpoints and freeze checks can traverse them in sorted
order without knowing the layer graph.  Normalization layers keep running
statistics in a separate buffer dict; a spec switch turns them off
entirely for deterministic gradient tests.

The main branch uses factorized convolutions: a q-channel k x k projection
followed by an n-channel 1 x 1 mix, costing q*c*k^2 + n*q multiplies per
output position instead of the dense n*c*k^2.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .decompose import decompose_batch
from .numerics import (
    conv2d_backward_batch,
    conv2d_forward_batch,
    conv_out_size,
)
from .privacy import perturb, quantize

CHECKPOINT_MAGIC = b"DLTP"
_NORM_EPS = 1e-5
_NORM_MOMENTUM = 0.1


def he_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


# ---------------------------------------------------------------------------
# Layers.  Shared protocol:
#   shapes()/buffer_shapes() declare parameter and buffer arrays;
#   init(rng, params) / init_buffers(buffers) fill them;
#   forward(params, buffers, x, train) -> (y, cache);
#   backward(params, cache, gy, grads) -> gx, accumulating into grads
#     (gx is None for a Conv2d or ResBlock built with input_grad=False,
#     whose input is a leaf of the graph);
#   macs(in_shape) -> (multiply-accumulate count, out_shape).
# Every layer defines forward and backward in its own class body, where
# per-class tracing looks them up.
# ---------------------------------------------------------------------------

class Layer:
    """Defaults for the parts of the protocol a layer may not need: no
    parameters, no buffers, no multiply-accumulates, shape unchanged."""

    def shapes(self):
        return {}

    def buffer_shapes(self):
        return {}

    def init(self, rng, params):
        pass

    def init_buffers(self, buffers):
        pass

    def macs(self, in_shape):
        return 0, in_shape


class Composite(Layer):
    """A layer made of sublayers; parameters, buffers and rng draws follow
    the order of ``parts()``."""

    def parts(self):
        raise NotImplementedError

    def shapes(self):
        out = {}
        for part in self.parts():
            out.update(part.shapes())
        return out

    def buffer_shapes(self):
        out = {}
        for part in self.parts():
            out.update(part.buffer_shapes())
        return out

    def init(self, rng, params):
        for part in self.parts():
            part.init(rng, params)

    def init_buffers(self, buffers):
        for part in self.parts():
            part.init_buffers(buffers)


class Conv2d(Layer):
    def __init__(self, prefix, in_ch, out_ch, k, stride=1, padding=0, input_grad=True):
        self.prefix = prefix
        self.in_ch, self.out_ch, self.k = in_ch, out_ch, k
        self.stride, self.padding = stride, padding
        self.input_grad = input_grad
        self.key = f"{prefix}/w"

    def shapes(self):
        return {self.key: (self.out_ch, self.in_ch, self.k, self.k)}

    def init(self, rng, params):
        params[self.key] = he_normal(
            rng, (self.out_ch, self.in_ch, self.k, self.k), self.in_ch * self.k**2
        )

    def forward(self, params, buffers, x, train):
        y = conv2d_forward_batch(x, params[self.key], self.stride, self.padding)
        return y, x

    def backward(self, params, cache, gy, grads):
        gx, gw = conv2d_backward_batch(
            gy, cache, params[self.key], self.stride, self.padding, self.input_grad
        )
        grads[self.key] = grads.get(self.key, 0) + gw
        return gx

    def macs(self, in_shape):
        c, h, w = in_shape
        pad = self.k // 2 if self.padding == "same" else self.padding
        oh = conv_out_size(h, self.k, self.stride, pad)
        ow = conv_out_size(w, self.k, self.stride, pad)
        return self.out_ch * c * self.k**2 * oh * ow, (self.out_ch, oh, ow)


class LowRankConv2d(Layer):
    """Factorized conv: k x k into q channels, then 1 x 1 up to n."""

    def __init__(self, prefix, in_ch, out_ch, k, q, stride=1, padding=0):
        if q > out_ch:
            raise ValueError(f"rank q={q} exceeds output channels n={out_ch}")
        self.prefix = prefix
        self.in_ch, self.out_ch, self.k, self.q = in_ch, out_ch, k, q
        self.stride, self.padding = stride, padding
        self.key1, self.key2 = f"{prefix}/w1", f"{prefix}/w2"

    def shapes(self):
        return {
            self.key1: (self.q, self.in_ch, self.k, self.k),
            self.key2: (self.out_ch, self.q, 1, 1),
        }

    def init(self, rng, params):
        params[self.key1] = he_normal(
            rng, (self.q, self.in_ch, self.k, self.k), self.in_ch * self.k**2
        )
        params[self.key2] = he_normal(rng, (self.out_ch, self.q, 1, 1), self.q)

    def forward(self, params, buffers, x, train):
        mid = conv2d_forward_batch(x, params[self.key1], self.stride, self.padding)
        y = conv2d_forward_batch(mid, params[self.key2], 1, 0)
        return y, (x, mid)

    def backward(self, params, cache, gy, grads):
        x, mid = cache
        gmid, gw2 = conv2d_backward_batch(gy, mid, params[self.key2], 1, 0)
        gx, gw1 = conv2d_backward_batch(gmid, x, params[self.key1], self.stride, self.padding)
        grads[self.key1] = grads.get(self.key1, 0) + gw1
        grads[self.key2] = grads.get(self.key2, 0) + gw2
        return gx

    def macs(self, in_shape):
        c, h, w = in_shape
        pad = self.k // 2 if self.padding == "same" else self.padding
        oh = conv_out_size(h, self.k, self.stride, pad)
        ow = conv_out_size(w, self.k, self.stride, pad)
        per_pos = self.q * c * self.k**2 + self.out_ch * self.q
        return per_pos * oh * ow, (self.out_ch, oh, ow)


class ChannelNorm(Layer):
    """Per-channel normalization with running statistics."""

    def __init__(self, prefix, ch):
        self.prefix, self.ch = prefix, ch
        self.kw, self.kb = f"{prefix}/scale", f"{prefix}/shift"
        self.km, self.kv = f"{prefix}/running_mean", f"{prefix}/running_var"

    def shapes(self):
        return {self.kw: (self.ch,), self.kb: (self.ch,)}

    def buffer_shapes(self):
        return {self.km: (self.ch,), self.kv: (self.ch,)}

    def init(self, rng, params):
        params[self.kw] = np.ones(self.ch)
        params[self.kb] = np.zeros(self.ch)

    def init_buffers(self, buffers):
        buffers[self.km] = np.zeros(self.ch)
        buffers[self.kv] = np.ones(self.ch)

    def forward(self, params, buffers, x, train):
        """Normalize, scale and shift x with the affine folded into one
        per-channel multiply-add.  The cache holds x centred in train mode
        (mean None) and x itself with its mean in eval mode."""
        if train:
            # einsum reduces the NHWC-strided views convs return faster
            # than ndarray.sum over axes (0, 2, 3)
            m = x.size // self.ch
            mean = np.einsum("bchw->c", x) / m
            x = x - mean[:, None, None]
            var = np.einsum("bchw,bchw->c", x, x) / m
            buffers[self.km] = (1 - _NORM_MOMENTUM) * buffers[self.km] + _NORM_MOMENTUM * mean
            buffers[self.kv] = (1 - _NORM_MOMENTUM) * buffers[self.kv] + _NORM_MOMENTUM * var
            inv = 1.0 / np.sqrt(var + _NORM_EPS)
            a = params[self.kw] * inv
            shift = params[self.kb]
            cache = (x, None, inv)
        else:
            mean = buffers[self.km]
            inv = 1.0 / np.sqrt(buffers[self.kv] + _NORM_EPS)
            a = params[self.kw] * inv
            shift = params[self.kb] - mean * a
            cache = (x, mean, inv)
        y = x * a[:, None, None]
        y += shift[:, None, None]
        return y, cache

    def backward(self, params, cache, gy, grads):
        x, mean, inv = cache
        d = x if mean is None else x - mean[:, None, None]
        sum_gy = np.einsum("bchw->c", gy)
        sum_gyd = np.einsum("bchw,bchw->c", gy, d)
        grads[self.kw] = grads.get(self.kw, 0) + inv * sum_gyd
        grads[self.kb] = grads.get(self.kb, 0) + sum_gy
        a = params[self.kw] * inv
        gx = gy * a[:, None, None]
        if mean is not None:
            return gx
        # train mode: the batch mean and variance depend on x too
        m = gy.size // self.ch
        gx -= d * (a * inv * inv * sum_gyd / m)[:, None, None]
        gx -= (a * sum_gy / m)[:, None, None]
        return gx


class ReLU(Layer):
    def forward(self, params, buffers, x, train):
        # the mask is kept only for a train-mode pass, the one backward follows
        return np.maximum(x, 0.0), (x > 0 if train else None)

    def backward(self, params, cache, gy, grads):
        return gy * cache


class GlobalAvgPool(Layer):
    def forward(self, params, buffers, x, train):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, params, cache, gy, grads):
        b, c, h, w = cache
        return np.broadcast_to(gy[:, :, None, None], cache) / (h * w)

    def macs(self, in_shape):
        return 0, (in_shape[0],)


class Linear(Layer):
    def __init__(self, prefix, in_dim, out_dim):
        self.prefix = prefix
        self.in_dim, self.out_dim = in_dim, out_dim
        self.kw, self.kb = f"{prefix}/w", f"{prefix}/b"

    def shapes(self):
        return {self.kw: (self.out_dim, self.in_dim), self.kb: (self.out_dim,)}

    def init(self, rng, params):
        params[self.kw] = rng.normal(0.0, np.sqrt(1.0 / self.in_dim), (self.out_dim, self.in_dim))
        params[self.kb] = np.zeros(self.out_dim)

    def forward(self, params, buffers, x, train):
        return x @ params[self.kw].T + params[self.kb], x

    def backward(self, params, cache, gy, grads):
        grads[self.kw] = grads.get(self.kw, 0) + gy.T @ cache
        grads[self.kb] = grads.get(self.kb, 0) + gy.sum(axis=0)
        return gy @ params[self.kw]

    def macs(self, in_shape):
        return self.out_dim * self.in_dim, (self.out_dim,)


class Sequential(Composite):
    def __init__(self, layers):
        self.layers = list(layers)

    def parts(self):
        return self.layers

    def forward(self, params, buffers, x, train):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(params, buffers, x, train)
            caches.append(cache)
        return x, caches

    def backward(self, params, caches, gy, grads):
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            gy = layer.backward(params, cache, gy, grads)
        return gy

    def macs(self, in_shape):
        total = 0
        for layer in self.layers:
            n, in_shape = layer.macs(in_shape)
            total += n
        return total, in_shape


class ResBlock(Composite):
    """Two k x k convs with a skip; convs are dense or factorized (q set).

    With ``input_grad=False`` backward returns None; dense convs that read
    the block's input (conv1 and proj) then skip their input gradient.
    """

    def __init__(self, prefix, in_ch, n, k, stride, q=None, normalize=True, input_grad=True):
        self.prefix = prefix
        self.input_grad = input_grad
        pad = k // 2

        def conv(name, cin, cout, kk, s, p, ig=True):
            if q is None or kk == 1:
                return Conv2d(name, cin, cout, kk, s, p, ig)
            return LowRankConv2d(name, cin, cout, kk, q, s, p)

        self.conv1 = conv(f"{prefix}/conv1", in_ch, n, k, stride, pad, input_grad)
        self.norm1 = ChannelNorm(f"{prefix}/norm1", n) if normalize else None
        self.relu1 = ReLU()
        self.conv2 = conv(f"{prefix}/conv2", n, n, k, 1, pad)
        self.norm2 = ChannelNorm(f"{prefix}/norm2", n) if normalize else None
        self.relu2 = ReLU()
        if in_ch != n or stride != 1:
            self.proj = Conv2d(f"{prefix}/proj", in_ch, n, 1, stride, 0, input_grad)
            self.proj_norm = ChannelNorm(f"{prefix}/proj_norm", n) if normalize else None
        else:
            self.proj = None
            self.proj_norm = None

    def parts(self):
        parts = [self.conv1, self.norm1, self.relu1, self.conv2, self.norm2,
                 self.relu2, self.proj, self.proj_norm]
        return [p for p in parts if p is not None]

    def forward(self, params, buffers, x, train):
        y, c1 = self.conv1.forward(params, buffers, x, train)
        n1 = None
        if self.norm1 is not None:
            y, n1 = self.norm1.forward(params, buffers, y, train)
        y, r1 = self.relu1.forward(params, buffers, y, train)
        y, c2 = self.conv2.forward(params, buffers, y, train)
        n2 = None
        if self.norm2 is not None:
            y, n2 = self.norm2.forward(params, buffers, y, train)
        if self.proj is not None:
            skip, cp = self.proj.forward(params, buffers, x, train)
            np_cache = None
            if self.proj_norm is not None:
                skip, np_cache = self.proj_norm.forward(params, buffers, skip, train)
        else:
            skip, cp, np_cache = x, None, None
        out, r2 = self.relu2.forward(params, buffers, y + skip, train)
        return out, (c1, n1, r1, c2, n2, cp, np_cache, r2)

    def backward(self, params, cache, gy, grads):
        c1, n1, r1, c2, n2, cp, np_cache, r2 = cache
        g = self.relu2.backward(params, r2, gy, grads)
        gskip = g
        if self.norm2 is not None:
            g = self.norm2.backward(params, n2, g, grads)
        g = self.conv2.backward(params, c2, g, grads)
        g = self.relu1.backward(params, r1, g, grads)
        if self.norm1 is not None:
            g = self.norm1.backward(params, n1, g, grads)
        gx = self.conv1.backward(params, c1, g, grads)
        if self.proj is not None:
            if self.proj_norm is not None:
                gskip = self.proj_norm.backward(params, np_cache, gskip, grads)
            gskip = self.proj.backward(params, cp, gskip, grads)
        if not self.input_grad:
            return None
        return gx + gskip

    def macs(self, in_shape):
        total, shape = self.conv1.macs(in_shape)
        n2, shape = self.conv2.macs(shape)
        total += n2
        if self.proj is not None:
            total += self.proj.macs(in_shape)[0]
        return total, shape


# ---------------------------------------------------------------------------
# Model specification and bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    n: int
    k: int
    stride: int = 1
    q: int | None = None  # None = dense convs


@dataclass(frozen=True)
class ModelSpec:
    in_channels: int = 3
    bb_channels: int = 8
    bb_k: int = 3
    main_blocks: tuple = (BlockSpec(12, 3, 2, q=8), BlockSpec(24, 3, 2, q=16))
    res_blocks: tuple = (BlockSpec(24, 3, 2), BlockSpec(48, 3, 2))
    num_classes: int = 4
    alpha: float = 1.0
    normalize: bool = True

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.num_classes}")
        for blk in self.main_blocks:
            if blk.q is None:
                raise ValueError(f"main block {blk} must set a rank q")
            if blk.q > blk.n:
                raise ValueError(f"main block {blk}: q exceeds n")

    def spec_hash(self) -> bytes:
        return hashlib.sha256(repr(self).encode()).digest()


def default_spec(r: int = 4, num_classes: int = 4, alpha: float = 1.0,
                 in_channels: int = 3, normalize: bool = True) -> ModelSpec:
    """The shipped toy architecture, with main-branch ranks tied to r.

    The first main block uses q = 2r and each later block doubles both its
    width and its rank, so the factorized branch keeps pace with the rank
    of its input without giving up the complexity advantage.
    """
    return ModelSpec(
        in_channels=in_channels,
        main_blocks=(BlockSpec(12, 3, 2, q=2 * r), BlockSpec(24, 3, 2, q=4 * r)),
        num_classes=num_classes,
        alpha=alpha,
        normalize=normalize,
    )


def _build_branch(prefix, blocks, in_ch, num_classes, normalize, lowrank, input_grad):
    """A branch of ResBlocks, pooling and a linear head; ``input_grad`` says
    whether backward forms the gradient of the branch input."""
    layers = []
    ch = in_ch
    for i, blk in enumerate(blocks):
        layers.append(
            ResBlock(
                f"{prefix}/b{i}", ch, blk.n, blk.k, blk.stride,
                q=blk.q if lowrank else None, normalize=normalize,
                input_grad=input_grad or i > 0,
            )
        )
        ch = blk.n
    layers.append(GlobalAvgPool())
    layers.append(Linear(f"{prefix}/fc", ch, num_classes))
    return Sequential(layers)


class Model:
    """The three networks plus forward/backward entry points per branch."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        # the backbone is the first convolution layer and nothing else;
        # the branches carry their own normalization and nonlinearity.
        # The backbone reads the image and the residual branch the released
        # bits: nothing reads either input gradient, so neither is formed
        # (backward_backbone and backward_res return None).  Stage 1 passes
        # the main branch's input gradient on to the backbone.
        self.backbone = Sequential([
            Conv2d("bb/conv", spec.in_channels, spec.bb_channels, spec.bb_k, 1, "same",
                   input_grad=False)
        ])
        self.main = _build_branch(
            "main", spec.main_blocks, spec.bb_channels, spec.num_classes,
            spec.normalize, lowrank=True, input_grad=True,
        )
        self.res = _build_branch(
            "res", spec.res_blocks, spec.bb_channels, spec.num_classes,
            spec.normalize, lowrank=False, input_grad=False,
        )

    def init(self, seed: int):
        rng = np.random.default_rng(seed)
        params, buffers = {}, {}
        for part in (self.backbone, self.main, self.res):
            part.init(rng, params)
            part.init_buffers(buffers)
        return params, buffers

    # thin wrappers so training code reads naturally
    def forward_backbone(self, params, buffers, x, train):
        return self.backbone.forward(params, buffers, x, train)

    def backward_backbone(self, params, cache, gy, grads):
        return self.backbone.backward(params, cache, gy, grads)

    def forward_main(self, params, buffers, ir_main, train):
        return self.main.forward(params, buffers, ir_main, train)

    def backward_main(self, params, cache, gz, grads):
        return self.main.backward(params, cache, gz, grads)

    def forward_res(self, params, buffers, bits, train):
        return self.res.forward(params, buffers, np.asarray(bits, dtype=np.float64), train)

    def backward_res(self, params, cache, gz, grads):
        return self.res.backward(params, cache, gz, grads)

    def param_keys(self):
        keys = {}
        for part in (self.backbone, self.main, self.res):
            keys.update(part.shapes())
        return keys

    def buffer_keys(self):
        keys = {}
        for part in (self.backbone, self.main, self.res):
            keys.update(part.buffer_shapes())
        return keys


def count_macs(spec: ModelSpec, image_hw, dcfg) -> dict:
    """Multiply-accumulate totals per branch and the private/public ratio.

    The private side runs the backbone on the image and the main branch on
    the spatially reduced ir_main; the public side runs the residual branch
    on the full-resolution bit tensor.
    """
    model = Model(spec)
    h, w = image_hw
    bb, feat_shape = model.backbone.macs((spec.in_channels, h, w))
    c, fh, fw = feat_shape
    main_in = (c, fh // dcfg.t * dcfg.t_prime, fw // dcfg.t * dcfg.t_prime)
    main, _ = model.main.macs(main_in)
    res, _ = model.res.macs(feat_shape)
    return {
        "backbone": bb,
        "main": main,
        "res": res,
        "private": bb + main,
        "public": res,
        "ratio": (bb + main) / res,
    }


# ---------------------------------------------------------------------------
# Factorization oracle and orthogonality regularizer
# ---------------------------------------------------------------------------

def factorize_reference(w: np.ndarray, basis: np.ndarray, rank_tol: float = 1e-9):
    """Factor a dense kernel against an orthonormal lowered-input basis.

    Given W (n, c, k, k) and U (ck^2, q) with orthonormal columns, the
    restriction W_U = W U U* has rank at most q, so an SVD yields
    W1 (q, c, k, k) and W2 (n, q, 1, 1) whose composition matches the dense
    conv exactly on any input whose lowered columns lie in span(U).
    """
    w = np.asarray(w, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    n, c, k, _ = w.shape
    dim, q = basis.shape
    if dim != c * k * k:
        raise ValueError(f"basis rows {dim} != c*k*k = {c * k * k}")
    gram = basis.T @ basis
    if np.max(np.abs(gram - np.eye(q))) > 1e-8:
        raise ValueError("basis columns are not orthonormal")

    w_flat = w.reshape(n, c * k * k)
    w_u = (w_flat @ basis) @ basis.T
    left, s, right = np.linalg.svd(w_u, full_matrices=False)
    if s.size > q and s[0] > 0 and np.any(s[q:] > rank_tol * s[0]):
        raise ValueError(f"restricted kernel has rank above q={q}")
    # keep exactly q factors; zero-pad when the restriction has lower rank
    # (directions with zero singular value carry nothing)
    take = min(q, s.size)
    w1 = np.zeros((q, c * k * k))
    w1[:take] = right[:take] * (s[:take] > 0)[:, None]
    w2 = np.zeros((n, q))
    w2[:, :take] = left[:, :take] * s[:take]
    return w1.reshape(q, c, k, k), w2.reshape(n, q, 1, 1)


def orth_reg(w1: np.ndarray):
    """Frobenius orthogonality penalty |G G* - I|_F^2 on the flattened kernel.

    Returns (loss, gradient) with the gradient in the kernel's own shape;
    d/dG |G G^T - I|_F^2 = 4 (G G^T - I) G.
    """
    w1 = np.asarray(w1, dtype=np.float64)
    g = w1.reshape(w1.shape[0], -1)
    m = g @ g.T - np.eye(g.shape[0])
    return float(np.sum(m * m)), (4.0 * m @ g).reshape(w1.shape)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (also accepts a single vector)."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def private_forward(model: Model, params, buffers, xb, dcfg):
    """The private side's one eval-mode pass over a (b, c, h, w) batch.

    Backbone, then the decomposition, then the main head.  Returns
    (z_main, ir_res): the main logits stay private, and the clipped
    residuals are what perturbation and quantization turn into bits.
    """
    feats, _ = model.forward_backbone(params, buffers, xb, train=False)
    ir_main, ir_res = decompose_batch(feats, dcfg)
    z_main, _ = model.forward_main(params, buffers, ir_main, train=False)
    return z_main, ir_res


def forward_full(model: Model, params, buffers, x, dcfg, sigma: float = 0.0,
                 seed: int = 0, stream: int = 0, residual_bits=None):
    """Monolithic single-sample forward over the whole pipeline.

    Runs the private pass, (optional) perturbation and quantization, the
    residual branch, and the private-side merge.  ``residual_bits``
    overrides the locally produced bits so a caller can replay cached
    ones.  Returns (z_main, z_res, prediction).
    """
    x = np.asarray(x, dtype=np.float64)
    z_main, ir_res = private_forward(model, params, buffers, x[None], dcfg)
    if residual_bits is None:
        residual_bits = quantize(perturb(ir_res[0], sigma, seed, stream))
    z_res, _ = model.forward_res(params, buffers, residual_bits[None], train=False)
    merged = z_main[0] + model.spec.alpha * z_res[0]
    return z_main[0], z_res[0], int(np.argmax(merged))


# ---------------------------------------------------------------------------
# Checkpoints: a keyed container so a file can hold either endpoint's slice
# ---------------------------------------------------------------------------
#
# "DLTP" + version u8 + entry count u32, then per entry: section u8
# (0 params / 1 buffers / 2 metadata), key (u16 length + utf-8), ndim u8,
# dims u32 each, payload (little-endian f8 for tensors, raw utf-8 JSON
# for metadata).  Keys are written sorted, so saves are byte-identical.

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: dict, buffers: dict, meta: dict) -> None:
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    chunks = [CHECKPOINT_MAGIC, bytes([CHECKPOINT_VERSION])]
    entries = (
        [(0, key, params[key]) for key in sorted(params)]
        + [(1, key, buffers[key]) for key in sorted(buffers)]
        + [(2, "meta", meta_blob)]
    )
    chunks.append(struct.pack("<I", len(entries)))
    for section, key, value in entries:
        encoded_key = key.encode()
        chunks.append(bytes([section]))
        chunks.append(struct.pack("<H", len(encoded_key)))
        chunks.append(encoded_key)
        if section == 2:
            chunks.append(struct.pack("<BI", 1, len(value)))
            chunks.append(value)
        else:
            arr = np.asarray(value, dtype=np.float64)
            chunks.append(bytes([arr.ndim]))
            chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            chunks.append(arr.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {raw[:4]!r} at offset 0")
    if len(raw) < 9:
        raise ValueError(f"checkpoint header truncated at offset {len(raw)}")
    if raw[4] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {raw[4]} at offset 4")
    (count,) = struct.unpack_from("<I", raw, 5)
    offset = 9
    params, buffers, meta = {}, {}, None
    try:
        for _ in range(count):
            section = raw[offset]
            if section > 2:
                raise ValueError(f"unknown checkpoint section {section} at offset {offset}")
            (key_len,) = struct.unpack_from("<H", raw, offset + 1)
            if offset + 3 + key_len > len(raw):
                raise IndexError
            key = raw[offset + 3 : offset + 3 + key_len].decode()
            offset += 3 + key_len
            ndim = raw[offset]
            dims = struct.unpack_from(f"<{ndim}I", raw, offset + 1)
            offset += 1 + 4 * ndim
            size = dims[0] if section == 2 else 8 * int(np.prod(dims, dtype=np.int64))
            if offset + size > len(raw):
                raise IndexError
            if section == 2:
                try:
                    meta = json.loads(raw[offset : offset + size].decode())
                except RecursionError:
                    raise ValueError(
                        f"checkpoint metadata nested too deeply at offset {offset}"
                    ) from None
            else:
                arr = np.frombuffer(raw, dtype="<f8", count=size // 8, offset=offset)
                (params if section == 0 else buffers)[key] = arr.reshape(dims).copy()
            offset += size
    except (IndexError, struct.error):
        raise ValueError(f"checkpoint truncated at offset {offset}") from None
    if offset != len(raw):
        raise ValueError(f"checkpoint has {len(raw) - offset} trailing bytes at offset {offset}")
    if meta is None:
        raise ValueError("checkpoint is missing its metadata entry")
    return params, buffers, meta
