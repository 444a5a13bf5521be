"""Dense tensor core: file I/O, thin SVD, orthonormal block DCT, and 2-D
convolution by matrix lowering.

All arrays are 64-bit floats. A feature tensor is an ndarray of shape
(channels, height, width); batches stack a leading axis.  Convolutions take
and return that NCHW layout, but lower channels-last internally: im2col
gathers columns in (k, k, c) order from an NHWC copy of the input, and the
kernel is flattened in the same order, so each copied run is a contiguous
channel vector.  Kernels and their gradients keep the (n, c, k, k) layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

TENSOR_MAGIC = b"DLT0"


def as_tensor3(x) -> np.ndarray:
    """Coerce ``x`` to a float64 (c, h, w) array, rejecting bad input."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-axis tensor, got shape {arr.shape}")
    if any(d < 1 for d in arr.shape):
        raise ValueError(f"all dims must be positive, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite entries")
    return arr


def write_tensor(path, x) -> None:
    """Write a (c, h, w) tensor: magic 'DLT0', three u32-LE dims, f64-LE data."""
    arr = as_tensor3(x)
    c, h, w = arr.shape
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<III", c, h, w))
        f.write(arr.astype("<f8").tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != TENSOR_MAGIC:
        raise ValueError(f"bad tensor magic {raw[:4]!r} at offset 0")
    if len(raw) < 16:
        raise ValueError(f"truncated tensor header: {len(raw)} bytes")
    c, h, w = struct.unpack("<III", raw[4:16])
    expect = 16 + 8 * c * h * w
    if len(raw) != expect:
        raise ValueError(
            f"tensor payload length {len(raw) - 16} != {8 * c * h * w} at offset 16"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=16).astype(np.float64)
    return data.reshape(c, h, w)


# ---------------------------------------------------------------------------
# SVD of the flattened tensor
# ---------------------------------------------------------------------------

@dataclass
class SvdFactors:
    """Thin SVD of a (rows, cols) matrix: M = sum_i s_i * u_i * v_i^T.

    singular_values: (m,) non-increasing, m = min(rows, cols)
    left_vectors:    (rows, m), orthonormal columns
    right_vectors:   (m, cols), orthonormal rows
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self, rank: int | None = None) -> np.ndarray:
        r = len(self.singular_values) if rank is None else rank
        u = self.left_vectors[:, :r]
        s = self.singular_values[:r]
        vt = self.right_vectors[:r]
        return (u * s) @ vt


def svd(m) -> SvdFactors:
    """Thin SVD of a 2-D matrix. Deterministic for a fixed input."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or min(m.shape) < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return SvdFactors(singular_values=s, left_vectors=u, right_vectors=vt)


# ---------------------------------------------------------------------------
# Orthonormal block DCT
# ---------------------------------------------------------------------------

def dct_matrix(t: int) -> np.ndarray:
    """Orthonormal DCT-II matrix T of size t x t (T @ T.T = I).

    Row j, column m: a_j * cos(pi * (2m + 1) * j / (2t)) with a_0 = sqrt(1/t)
    and a_j = sqrt(2/t) otherwise.
    """
    if t < 1:
        raise ValueError(f"block size must be >= 1, got {t}")
    j = np.arange(t)[:, None]
    m = np.arange(t)[None, :]
    mat = np.cos(np.pi * (2 * m + 1) * j / (2 * t)) * np.sqrt(2.0 / t)
    mat[0, :] = np.sqrt(1.0 / t)
    return mat


def _split_blocks(x: np.ndarray, t: int) -> np.ndarray:
    """(..., h, w) -> (..., h//t, w//t, t, t) without copying rows."""
    *lead, h, w = x.shape
    if h % t or w % t:
        raise ValueError(f"spatial dims ({h}, {w}) not divisible by block size {t}")
    x = x.reshape(*lead, h // t, t, w // t, t)
    return np.moveaxis(x, -3, -2)


def _join_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of _split_blocks."""
    *lead, nb_h, nb_w, t1, t2 = blocks.shape
    x = np.moveaxis(blocks, -2, -3)
    return x.reshape(*lead, nb_h * t1, nb_w * t2)


def dct_block_forward(channel, t: int) -> np.ndarray:
    """Blockwise 2-D DCT of an (h, w) channel: per block C = T @ B @ T.T.

    Also accepts a leading batch/channel axis.
    """
    x = np.asarray(channel, dtype=np.float64)
    mat = dct_matrix(t)
    blocks = _split_blocks(x, t)
    coeffs = np.einsum("ab,...bc,dc->...ad", mat, blocks, mat, optimize=True)
    return _join_blocks(coeffs)


def idct_block(coeffs, t_src: int, t_keep: int | None = None) -> np.ndarray:
    """Blockwise inverse DCT keeping the top-left t_keep x t_keep coefficients.

    Each t_src block of ``coeffs`` is truncated to its low-frequency corner and
    inverted with the t_keep-point DCT matrix, so the output spatial size
    shrinks by t_keep / t_src. t_keep = t_src is the exact inverse.
    """
    if t_keep is None:
        t_keep = t_src
    if t_keep > t_src:
        raise ValueError(f"t_keep {t_keep} exceeds source block size {t_src}")
    if t_keep < 1:
        raise ValueError(f"t_keep must be >= 1, got {t_keep}")
    c = np.asarray(coeffs, dtype=np.float64)
    blocks = _split_blocks(c, t_src)[..., :t_keep, :t_keep]
    mat = dct_matrix(t_keep)
    out = np.einsum("ba,...bc,cd->...ad", mat, blocks, mat, optimize=True)
    return _join_blocks(out)


# ---------------------------------------------------------------------------
# Convolution by matrix lowering (Y = W . X on the lowered input)
# ---------------------------------------------------------------------------

def _resolve_padding(padding, k: int) -> int:
    if padding == "same":
        return k // 2
    pad = int(padding)
    if pad < 0:
        raise ValueError(f"padding must be >= 0, got {pad}")
    return pad


def conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ValueError(
            f"kernel {k} with stride {stride}, pad {pad} does not fit size {size}"
        )
    return out


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Lower a (b, c, h, w) batch to columns of shape (b * H * W, k * k * c).

    Columns are ordered (k, k, c): the input is moved to channels-last once,
    so every run the gather copies is one contiguous channel vector.  A
    kernel multiplies these columns as ``w.transpose(0, 2, 3, 1).reshape(n, -1)``.
    """
    b, c, h, w = x.shape
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c))
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    # (b, H, W, c, k, k) -> (b, H, W, k, k, c) -> (b*H*W, k*k*c)
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * c)


def col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of im2col: scatter-add (k, k, c) columns back to a (b, c, h, w)
    batch, accumulating channels-last."""
    b, c, h, w = x_shape
    out_h = conv_out_size(h, k, stride, pad)
    out_w = conv_out_size(w, k, stride, pad)
    patches = cols.reshape(b, out_h, out_w, k, k, c)
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c))
    for i in range(k):
        for j in range(k):
            xp[:, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += patches[
                :, :, :, i, j
            ]
    return xp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)


def _kernel_matrix(weights: np.ndarray) -> np.ndarray:
    """(n, c, k, k) kernel as the (n, k*k*c) matrix matching im2col's columns."""
    return weights.transpose(0, 2, 3, 1).reshape(weights.shape[0], -1)


def _check_conv_shapes(x: np.ndarray, weights: np.ndarray) -> None:
    if weights.ndim != 4 or weights.shape[2] != weights.shape[3]:
        raise ValueError(f"expected (n, c, k, k) kernel, got shape {weights.shape}")
    if x.shape[1] != weights.shape[1]:
        raise ValueError(
            f"input channels {x.shape[1]} != kernel channels {weights.shape[1]}"
        )


def conv2d_forward_batch(x, weights, stride: int = 1, padding=0) -> np.ndarray:
    """Convolve a (b, c, h, w) batch with an (n, c, k, k) kernel via im2col."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    _check_conv_shapes(x, weights)
    n, c, k, _ = weights.shape
    pad = _resolve_padding(padding, k)
    b, _, h, w = x.shape
    out_h = conv_out_size(h, k, stride, pad)
    out_w = conv_out_size(w, k, stride, pad)
    cols = im2col(x, k, stride, pad)
    out = cols @ _kernel_matrix(weights).T
    return out.reshape(b, out_h, out_w, n).transpose(0, 3, 1, 2)


def conv2d_backward_batch(grad_out, x, weights, stride: int = 1, padding=0,
                          input_grad: bool = True):
    """Gradients of sum(grad_out * conv(x, w)) wrt x and w.

    Returns (grad_x, grad_w) with grad_w in the kernel's (n, c, k, k) layout.
    With ``input_grad=False`` grad_x is None and is never formed, for a conv
    whose input is a leaf of the graph.
    """
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    _check_conv_shapes(x, weights)
    n, c, k, _ = weights.shape
    pad = _resolve_padding(padding, k)
    b, _, h, w = x.shape
    out_h = conv_out_size(h, k, stride, pad)
    out_w = conv_out_size(w, k, stride, pad)
    if grad_out.shape != (b, n, out_h, out_w):
        raise ValueError(
            f"grad_out shape {grad_out.shape} != expected {(b, n, out_h, out_w)}"
        )
    g_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, n)
    cols = im2col(x, k, stride, pad)
    grad_w = (g_flat.T @ cols).reshape(n, k, k, c).transpose(0, 3, 1, 2)
    grad_w = np.ascontiguousarray(grad_w)
    if not input_grad:
        return None, grad_w
    grad_cols = g_flat @ _kernel_matrix(weights)
    grad_x = col2im(grad_cols, x.shape, k, stride, pad)
    return grad_x, grad_w


def conv2d_forward(x, weights, stride: int = 1, padding=0) -> np.ndarray:
    """Single-sample convolution: (c, h, w) -> (n, H, W)."""
    x3 = as_tensor3(x)
    return conv2d_forward_batch(x3[None], weights, stride, padding)[0]


def conv2d_backward(grad_out, x, weights, stride: int = 1, padding=0):
    """Single-sample convolution gradients: returns (grad_input, grad_weights)."""
    x3 = as_tensor3(x)
    g = np.asarray(grad_out, dtype=np.float64)
    grad_x, grad_w = conv2d_backward_batch(g[None], x3[None], weights, stride, padding)
    return grad_x[0], grad_w
