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

Eval mode treats weight arrays as immutable.  An eval-mode ResBlock folds its
norms into cast, pre-lowered kernels once per set of arrays and input shape,
so a caller changes a weight by rebinding its key (as sgd_step, train-mode
norms and load_checkpoint do), never by writing into the array.  A
normalized block on a small map (DENSE_MAX_INPUT) folds on into dense
matrices; an unnormalized one stays lowered, bitwise its unfolded pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator as op
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .decompose import decompose_batch
from .numerics import (
    conv2d_backward_batch,
    conv2d_forward_batch,
    conv_out_size,
    float_dtype,
    kernel_matrix,
    lowered_product,
    resolve_padding,
)
from .privacy import perturb, quantize

CHECKPOINT_MAGIC = b"DLTP"
_NORM_EPS = 1e-5
_NORM_MOMENTUM = 0.1
# most values per sample an eval-mode block's linear segment may read to run
# dense; the identity batch probing its matrix holds this many squared
DENSE_MAX_INPUT = 512


# ---------------------------------------------------------------------------
# Layers.  Shared protocol:
#   tensors() declares each parameter and buffer once, as a Tensor: its
#     key, its shape and how it starts.  init(rng, params, buffers) fills
#     them in declaration order, and tensor_shapes() reads their shapes
#     without allocating;
#   forward(params, buffers, x, train) -> (y, cache);
#   backward(params, cache, gy, grads) -> gx, accumulating into grads.
#     A layer that can read a network's input (Conv2d, LowRankConv2d,
#     ResBlock, Sequential) also takes input_grad: with False its input is
#     a leaf of the graph, and gx is None and never formed;
#   macs(in_shape) -> (multiply-accumulate count, out_shape).
# Every layer defines forward and backward in its own class body, where
# per-class tracing looks them up.
# ---------------------------------------------------------------------------

class Tensor(NamedTuple):
    """A declared parameter (or buffer): an N(0, std^2) draw when ``std``
    is set, else the constant ``fill``."""

    key: str
    shape: tuple
    std: float | None = None
    fill: float = 0.0
    buffer: bool = False


class Layer:
    """Defaults for the parts of the protocol a layer may not need: no
    tensors, no multiply-accumulates, shape unchanged."""

    def tensors(self):
        return ()

    def init(self, rng, params, buffers):
        for t in self.tensors():
            value = np.full(t.shape, t.fill) if t.std is None else rng.normal(0.0, t.std, t.shape)
            (buffers if t.buffer else params)[t.key] = value

    def tensor_shapes(self):
        """(parameter shapes, buffer shapes) by key."""
        params, buffers = {}, {}
        for t in self.tensors():
            (buffers if t.buffer else params)[t.key] = t.shape
        return params, buffers

    def macs(self, in_shape):
        return 0, in_shape


def _he_std(fan_in: int) -> float:
    return np.sqrt(2.0 / fan_in)


def _conv_macs(conv, in_shape, per_position):
    """(MACs, out_shape) of a k x k conv doing ``per_position`` multiplies
    at each output position of a (c, h, w) input."""
    pad = resolve_padding(conv.padding, conv.k)
    oh, ow = (conv_out_size(size, conv.k, conv.stride, pad) for size in in_shape[1:])
    return per_position * oh * ow, (conv.out_ch, oh, ow)


class Conv2d(Layer):
    def __init__(self, prefix, in_ch, out_ch, k, stride=1, padding=0):
        self.prefix = prefix
        self.in_ch, self.out_ch, self.k = in_ch, out_ch, k
        self.stride, self.padding = stride, padding
        self.key = f"{prefix}/w"

    def tensors(self):
        shape = (self.out_ch, self.in_ch, self.k, self.k)
        return (Tensor(self.key, shape, _he_std(self.in_ch * self.k**2)),)

    def forward(self, params, buffers, x, train):
        y = conv2d_forward_batch(x, params[self.key], self.stride, self.padding)
        return y, x

    def backward(self, params, cache, gy, grads, input_grad=True):
        gx, gw = conv2d_backward_batch(
            gy, cache, params[self.key], self.stride, self.padding, input_grad
        )
        grads[self.key] = grads.get(self.key, 0) + gw
        return gx

    def macs(self, in_shape):
        return _conv_macs(self, in_shape, self.out_ch * in_shape[0] * self.k**2)


class LowRankConv2d(Layer):
    """Factorized conv: k x k into q channels, then 1 x 1 up to n."""

    def __init__(self, prefix, in_ch, out_ch, k, q, stride=1, padding=0):
        if q > out_ch:
            raise ValueError(f"rank q={q} exceeds output channels n={out_ch}")
        self.prefix = prefix
        self.in_ch, self.out_ch, self.k, self.q = in_ch, out_ch, k, q
        self.stride, self.padding = stride, padding
        self.key1, self.key2 = f"{prefix}/w1", f"{prefix}/w2"

    def tensors(self):
        return (
            Tensor(self.key1, (self.q, self.in_ch, self.k, self.k),
                   _he_std(self.in_ch * self.k**2)),
            Tensor(self.key2, (self.out_ch, self.q, 1, 1), _he_std(self.q)),
        )

    def forward(self, params, buffers, x, train):
        mid = conv2d_forward_batch(x, params[self.key1], self.stride, self.padding)
        y = conv2d_forward_batch(mid, params[self.key2], 1, 0)
        return y, (x, mid)

    def backward(self, params, cache, gy, grads, input_grad=True):
        x, mid = cache
        gmid, gw2 = conv2d_backward_batch(gy, mid, params[self.key2], 1, 0)
        gx, gw1 = conv2d_backward_batch(
            gmid, x, params[self.key1], self.stride, self.padding, input_grad
        )
        grads[self.key1] = grads.get(self.key1, 0) + gw1
        grads[self.key2] = grads.get(self.key2, 0) + gw2
        return gx

    def macs(self, in_shape):
        per_position = self.q * in_shape[0] * self.k**2 + self.out_ch * self.q
        return _conv_macs(self, in_shape, per_position)


class ChannelNorm(Layer):
    """Per-channel normalization with running statistics."""

    def __init__(self, prefix, ch):
        self.prefix, self.ch = prefix, ch
        self.kw, self.kb = f"{prefix}/scale", f"{prefix}/shift"
        self.km, self.kv = f"{prefix}/running_mean", f"{prefix}/running_var"

    def tensors(self):
        ch = (self.ch,)
        return (Tensor(self.kw, ch, fill=1.0), Tensor(self.kb, ch),
                Tensor(self.km, ch, buffer=True), Tensor(self.kv, ch, fill=1.0, buffer=True))

    def forward(self, params, buffers, x, train):
        """Normalize, scale and shift x with the affine folded into one
        per-channel multiply-add in x's dtype.  The cache holds x centred in
        train mode (mean None) and x itself with its mean in eval mode.  The
        running statistics stay float64 whatever x's dtype."""
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
        y = x * a.astype(x.dtype, copy=False)[:, None, None]
        y += shift.astype(x.dtype, copy=False)[:, None, None]
        return y, cache

    def backward(self, params, cache, gy, grads):
        x, mean, inv = cache
        gy = gy.astype(x.dtype, copy=False)
        d = x if mean is None else x - mean.astype(x.dtype, copy=False)[:, None, None]
        sum_gy = np.einsum("bchw->c", gy)
        sum_gyd = np.einsum("bchw,bchw->c", gy, d)
        grads[self.kw] = grads.get(self.kw, 0) + inv * sum_gyd
        grads[self.kb] = grads.get(self.kb, 0) + sum_gy
        a = (params[self.kw] * inv).astype(x.dtype, copy=False)
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

    def tensors(self):
        return (Tensor(self.kw, (self.out_dim, self.in_dim), np.sqrt(1.0 / self.in_dim)),
                Tensor(self.kb, (self.out_dim,)))

    def forward(self, params, buffers, x, train):
        return x @ params[self.kw].T + params[self.kb], x

    def backward(self, params, cache, gy, grads):
        grads[self.kw] = grads.get(self.kw, 0) + gy.T @ cache
        grads[self.kb] = grads.get(self.kb, 0) + gy.sum(axis=0)
        return gy @ params[self.kw]

    def macs(self, in_shape):
        return self.out_dim * self.in_dim, (self.out_dim,)


class Sequential(Layer):
    """Layers applied in order; their tensors and rng draws follow it.
    Backward hands ``input_grad`` to the first layer only, the one that
    reads the input; with no layers (the identity) gx is gy, or None."""

    def __init__(self, layers):
        self.layers = list(layers)

    def tensors(self):
        return tuple(t for layer in self.layers for t in layer.tensors())

    def forward(self, params, buffers, x, train):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(params, buffers, x, train)
            caches.append(cache)
        return x, caches

    def backward(self, params, caches, gy, grads, input_grad=True):
        if not self.layers:
            return gy if input_grad else None
        for layer, cache in zip(reversed(self.layers[1:]), reversed(caches[1:])):
            gy = layer.backward(params, cache, gy, grads)
        return self.layers[0].backward(params, caches[0], gy, grads, input_grad)

    def macs(self, in_shape):
        total = 0
        for layer in self.layers:
            n, in_shape = layer.macs(in_shape)
            total += n
        return total, in_shape


class ResBlock(Layer):
    """relu(body(x) + skip(x)): two k x k convs, dense or factorized (q
    set), with a 1 x 1 projection on the skip when the shape changes.

    ``body`` is conv1, norm1, ReLU, conv2, norm2 and ``skip`` is proj,
    proj_norm (empty for an identity skip); ``normalize=False`` leaves the
    norms out.  Backward with ``input_grad=False`` returns None; the convs
    that read the block's input (conv1, dense or factorized, and proj) then
    skip their input gradient.

    An eval-mode pass keeps no cache and runs a memoized fold: each norm's
    affine a = scale / sqrt(running_var + eps) scales the rows of the kernel
    before it (a factorized conv's 1 x 1 mix), shift - running_mean * a is
    that kernel's bias, and each kernel is cast and lowered to its im2col
    matrix once.  The memo is keyed by the dtype, the (c, h, w) input shape
    and the identity of every array the fold read, and holds those arrays.

    When each linear segment (conv1, conv2, the projection) reads at most
    DENSE_MAX_INPUT values, each becomes one dense matrix on the flattened
    map, probed through its lowered steps: relu(relu(x A1 + a1) A2 + a2 +
    x P + p), or + x for an identity skip.  Unless normalize=False: that
    fold is bitwise the unfolded pass, and a matrix would reassociate sums.
    """

    def __init__(self, prefix, in_ch, n, k, stride, q=None, normalize=True):
        self.prefix, self.normalize = prefix, normalize

        def conv(name, cin, s):
            if q is None or k == 1:
                return Conv2d(f"{prefix}/{name}", cin, n, k, s, k // 2)
            return LowRankConv2d(f"{prefix}/{name}", cin, n, k, q, s, k // 2)

        def norm(name):
            return [ChannelNorm(f"{prefix}/{name}", n)] if normalize else []

        self.body = Sequential([conv("conv1", in_ch, stride), *norm("norm1"),
                                ReLU(), conv("conv2", n, 1), *norm("norm2")])
        self.skip = Sequential(
            [Conv2d(f"{prefix}/proj", in_ch, n, 1, stride, 0), *norm("proj_norm")]
            if in_ch != n or stride != 1 else []
        )
        self.relu = ReLU()
        self._reads = [(t.buffer, t.key) for t in self.tensors()]
        self._memo = (None, [], None)  # ((dtype, shape), arrays read, folded body and skip)

    def tensors(self):
        return self.body.tensors() + self.skip.tensors()

    def forward(self, params, buffers, x, train):
        if not train:
            form = (float_dtype(x), x.shape[1:])
            arrays = [(buffers if buffer else params)[key] for buffer, key in self._reads]
            if self._memo[0] != form or any(map(op.is_not, arrays, self._memo[1])):
                self._memo = (form, arrays, self._fold(params, buffers, *form))
            body, skip = self._memo[2]
            y = _run_folded(body, x) + _run_folded(skip, x)
            return np.maximum(y, 0.0, out=y), None
        y, body_cache = self.body.forward(params, buffers, x, train)
        s, skip_cache = self.skip.forward(params, buffers, x, train)
        out, relu_cache = self.relu.forward(params, buffers, y + s, train)
        return out, (body_cache, skip_cache, relu_cache)

    def _fold(self, params, buffers, dtype, shape):
        """(body, skip) as lists of steps on (c, h, w) inputs, None for a
        ReLU: lowered_product arguments, or one dense (matrix, bias, output
        shape) per linear segment of a small normalized block."""
        paths = []
        for path in (self.body, self.skip):
            steps = []  # [kernel, stride, padding, bias] or None
            for layer in path.layers:
                if isinstance(layer, ReLU):
                    steps.append(None)
                elif isinstance(layer, ChannelNorm):
                    a = params[layer.kw] / np.sqrt(buffers[layer.kv] + _NORM_EPS)
                    steps[-1][0] = steps[-1][0] * a[:, None, None, None]
                    steps[-1][3] = params[layer.kb] - buffers[layer.km] * a
                elif isinstance(layer, LowRankConv2d):
                    steps += [[params[layer.key1], layer.stride, layer.padding, None],
                              [params[layer.key2], 1, 0, None]]
                else:
                    steps.append([params[layer.key], layer.stride, layer.padding, None])
            paths.append([None if s is None else (
                kernel_matrix(s[0].astype(dtype)), s[0].shape[2], s[1], s[2],
                None if s[3] is None else s[3].astype(dtype)) for s in steps])
        mid = self.body.layers[0].macs(shape)[1]
        if not self.normalize or max(math.prod(shape), math.prod(mid)) > DENSE_MAX_INPUT:
            return paths
        body, skip = paths
        cut = body.index(None)
        return ([_dense(body[:cut], shape), None, _dense(body[cut + 1:], mid)],
                [_dense(skip, shape)] if skip else [])

    def backward(self, params, cache, gy, grads, input_grad=True):
        body_cache, skip_cache, relu_cache = cache
        g = self.relu.backward(params, relu_cache, gy, grads)
        gx = self.body.backward(params, body_cache, g, grads, input_grad)
        gs = self.skip.backward(params, skip_cache, g, grads, input_grad)
        return gx + gs if input_grad else None

    def macs(self, in_shape):
        total, shape = self.body.macs(in_shape)
        return total + self.skip.macs(in_shape)[0], shape


def _dense(steps, shape):
    """A linear segment of lowered_product steps as (matrix, bias, output
    shape) on flattened (c, h, w) inputs: an identity batch through the
    steps without their biases gives the matrix, a zero input with them the
    bias."""
    m = math.prod(shape)
    dtype = steps[0][0].dtype
    probe, zero = np.eye(m, dtype=dtype).reshape(m, *shape), np.zeros((1, *shape), dtype)
    for matrix, k, stride, pad, bias in steps:
        probe = lowered_product(probe, matrix, k, stride, pad)
        zero = lowered_product(zero, matrix, k, stride, pad, bias)
    return probe.reshape(m, -1), zero.reshape(-1), probe.shape[1:]


def _run_folded(steps, x):
    for step in steps:
        if step is None:
            x = np.maximum(x, 0.0)
        elif len(step) == 3:  # dense (matrix, bias, output shape)
            x = (x.reshape(len(x), -1) @ step[0] + step[1]).reshape(len(x), *step[2])
        else:
            x = lowered_product(x, *step)
    return x


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


def _build_branch(prefix, blocks, in_ch, num_classes, normalize, lowrank):
    """A branch of ResBlocks, pooling and a linear head."""
    layers = []
    ch = in_ch
    for i, blk in enumerate(blocks):
        layers.append(
            ResBlock(
                f"{prefix}/b{i}", ch, blk.n, blk.k, blk.stride,
                q=blk.q if lowrank else None, normalize=normalize,
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
            Conv2d("bb/conv", spec.in_channels, spec.bb_channels, spec.bb_k, 1, "same")
        ])
        self.main = _build_branch(
            "main", spec.main_blocks, spec.bb_channels, spec.num_classes,
            spec.normalize, lowrank=True,
        )
        self.res = _build_branch(
            "res", spec.res_blocks, spec.bb_channels, spec.num_classes,
            spec.normalize, lowrank=False,
        )

    def _networks(self):
        return Sequential([self.backbone, self.main, self.res])

    def init(self, seed: int):
        params, buffers = {}, {}
        self._networks().init(np.random.default_rng(seed), params, buffers)
        return params, buffers

    def tensor_shapes(self):
        """(parameter shapes, buffer shapes) of all three networks, by key."""
        return self._networks().tensor_shapes()

    # thin wrappers so training code reads naturally
    def forward_backbone(self, params, buffers, x, train):
        return self.backbone.forward(params, buffers, x, train)

    def backward_backbone(self, params, cache, gy, grads):
        return self.backbone.backward(params, cache, gy, grads, False)

    def forward_main(self, params, buffers, ir_main, train):
        return self.main.forward(params, buffers, ir_main, train)

    def backward_main(self, params, cache, gz, grads, input_grad=True):
        """The main branch's weight gradients, and with ``input_grad`` the
        gradient of ir_main (else None, never formed: stage 2 reads ir_main
        rows that the frozen backbone formed once)."""
        return self.main.backward(params, cache, gz, grads, input_grad)

    def forward_res(self, params, buffers, bits, train):
        # the public branch computes in float32, which holds its 0/1 bits
        # exactly; the weights stay float64 masters, cast down per train call
        # or per eval fold, and sgd_step adds float32 gradients to them
        return self.res.forward(params, buffers, np.asarray(bits, dtype=np.float32), train)

    def backward_res(self, params, cache, gz, grads):
        return self.res.backward(params, cache, gz, grads, False)


def count_macs(spec: ModelSpec, image_hw, dcfg) -> dict:
    """Multiply-accumulate totals per branch and the private/public ratio.

    The private side runs the backbone on the image and the main branch on
    the spatially reduced ir_main; the public side runs the residual branch
    on the full-resolution bit tensor.
    """
    model = Model(spec)
    h, w = image_hw
    bb, feat_shape = model.backbone.macs((spec.in_channels, h, w))
    main, _ = model.main.macs(dcfg.main_shape(feat_shape))
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
