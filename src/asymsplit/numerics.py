"""Dense tensor core: input checks, the orthonormal DCT matrix, and 2-D
convolution by matrix lowering.

Arrays are 64-bit floats, except that convolutions follow their input's
dtype: a float32 input is lowered, multiplied and returned in float32, its
kernel and grad_out cast down to match, and any other input is computed in
float64.  A feature tensor is an ndarray of shape (channels, height,
width); batches stack a leading axis.  Convolutions take and return that
NCHW layout, but lower channels-last internally: im2col
gathers columns in (k, k, c) order from an NHWC copy of the input, and the
kernel is flattened in the same order, so each copied run is a contiguous
channel vector.  Kernels and their gradients keep the (n, c, k, k) layout.

The per-call set-up is kept small, because batch-1 requests call these
functions many times over tiny arrays.  DCT matrices are built once per
block size, cached, and handed out read-only.  im2col takes its
(b, H, W, k, k, c) window view straight from the padded NHWC buffer's
strides and copies it once.  ``lowered_product`` (im2col, one GEMM against
a kernel matrix, an optional bias) is the one lowering:
``conv2d_forward_batch`` is its checks around it, and a caller that keeps a
kernel matrix, such as an eval-mode ``model.ResBlock``, calls it directly.

Memory is bounded by lowering in batch slices (after MEC, Cho & Brand,
ICML 2017): a batch is lowered ``COLUMN_BYTES`` of columns at a time, in
slices of whole samples, one sample at least, instead of as one
multi-megabyte column buffer per conv.  The forward product writes each
slice's rows into one preallocated output, so it is bitwise the one-shot
product; the weight gradient adds the slices' partial products in slice
order, which reassociates its sums over the batch, so it is equal to the
one-shot GEMM only to rounding.

A stride-1 input gradient is itself a correlation: grad_out, padded by
k-1-pad, against the flipped kernel with its channel axes swapped.  It goes
through ``lowered_product`` (so it is sliced too), and no scatter-add runs.
col2im serves strided convs only, in one pass over the whole batch.
"""

from __future__ import annotations

import functools

import numpy as np

# bytes of im2col columns lowered at a time: a slice is as many whole
# samples as fit, one sample at least
COLUMN_BYTES = 1 << 20


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


# ---------------------------------------------------------------------------
# Orthonormal DCT
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def dct_matrix(t: int) -> np.ndarray:
    """Orthonormal DCT-II matrix T of size t x t (T @ T.T = I).

    Row j, column m: a_j * cos(pi * (2m + 1) * j / (2t)) with a_0 = sqrt(1/t)
    and a_j = sqrt(2/t) otherwise.  Built once per t and shared by every
    caller, so the returned array is read-only.
    """
    if t < 1:
        raise ValueError(f"block size must be >= 1, got {t}")
    j = np.arange(t)[:, None]
    m = np.arange(t)[None, :]
    mat = np.cos(np.pi * (2 * m + 1) * j / (2 * t)) * np.sqrt(2.0 / t)
    mat[0, :] = np.sqrt(1.0 / t)
    mat.flags.writeable = False
    return mat


# ---------------------------------------------------------------------------
# Convolution by matrix lowering (Y = W . X on the lowered input)
# ---------------------------------------------------------------------------

def resolve_padding(padding, k: int) -> int:
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


def float_dtype(x):
    """The dtype a convolution computes in: float32 for a float32 array,
    float64 for anything else."""
    return np.float32 if getattr(x, "dtype", None) == np.float32 else np.float64


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Lower a (b, c, h, w) batch to columns of shape (b * H * W, k * k * c).

    Columns are ordered (k, k, c): the input is moved to channels-last once,
    so every run the gather copies is one contiguous channel vector.  A
    kernel multiplies these columns as ``w.transpose(0, 2, 3, 1).reshape(n, -1)``.
    """
    b, c, h, w = x.shape
    out_h = conv_out_size(h, k, stride, pad)
    out_w = conv_out_size(w, k, stride, pad)
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=float_dtype(x))
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    # output (y, x) reads the k x k window at padded row y * stride, column x * stride
    sb, sh, sw, sc = xp.strides
    windows = np.ndarray(
        (b, out_h, out_w, k, k, c), dtype=xp.dtype, buffer=xp,
        strides=(sb, sh * stride, sw * stride, sh, sw, sc),
    )
    return windows.reshape(-1, k * k * c)


def col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of im2col: scatter-add (k, k, c) columns back to a (b, c, h, w)
    batch, accumulating channels-last."""
    b, c, h, w = x_shape
    out_h = conv_out_size(h, k, stride, pad)
    out_w = conv_out_size(w, k, stride, pad)
    patches = cols.reshape(b, out_h, out_w, k, k, c)
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=float_dtype(cols))
    for i in range(k):
        for j in range(k):
            xp[:, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += patches[
                :, :, :, i, j
            ]
    return xp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)


def kernel_matrix(weights: np.ndarray) -> np.ndarray:
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
    x = np.asarray(x, dtype=float_dtype(x))
    weights = np.asarray(weights, dtype=x.dtype)
    _check_conv_shapes(x, weights)
    k = weights.shape[2]
    return lowered_product(x, kernel_matrix(weights), k, stride, resolve_padding(padding, k))


def lowered_product(x, matrix, k: int, stride: int, pad: int, bias=None) -> np.ndarray:
    """A (b, c, h, w) batch convolved with a kernel given as its
    ``kernel_matrix``, plus ``bias`` per output channel when set.  Nothing
    is checked: the matrix (and bias) should be in x's ``float_dtype``.

    The batch is lowered in slices of whole samples, each of at most
    ``COLUMN_BYTES`` of columns (one sample at least), and each slice's GEMM
    writes its rows of one preallocated channels-last output; a batch that
    fits one slice is multiplied as it is, with no output to fill.  A row
    of the output is one column times the kernel matrix whatever the slice,
    so the result equals the one-shot product bit for bit.
    """
    b, _, h, w = x.shape
    out_h, out_w = conv_out_size(h, k, stride, pad), conv_out_size(w, k, stride, pad)
    n, depth = matrix.shape
    step = max(1, COLUMN_BYTES // (out_h * out_w * depth * matrix.itemsize))
    if b <= step:
        # one slice, as for every batch-1 request
        out = im2col(x, k, stride, pad) @ matrix.T
    else:
        out = np.empty((b * out_h * out_w, n), matrix.dtype)
        for lo in range(0, b, step):
            rows = out[lo * out_h * out_w : (lo + step) * out_h * out_w]
            np.matmul(im2col(x[lo : lo + step], k, stride, pad), matrix.T, out=rows)
    if bias is not None:
        out += bias
    return out.reshape(b, out_h, out_w, n).transpose(0, 3, 1, 2)


def conv2d_backward_batch(grad_out, x, weights, stride: int = 1, padding=0,
                          input_grad: bool = True):
    """Gradients of sum(grad_out * conv(x, w)) wrt x and w.

    Returns (grad_x, grad_w) with grad_w in the kernel's (n, c, k, k) layout.
    With ``input_grad=False`` grad_x is None and is never formed, for a conv
    whose input is a leaf of the graph.

    x is lowered in the forward pass's slices of at most ``COLUMN_BYTES``,
    and grad_w adds each slice's ``g_slice.T @ im2col(x_slice)`` in slice
    order, so no column buffer of the whole batch is formed.  The sum runs
    over every output position of the batch, so splitting it reassociates
    it: grad_w matches the one-shot GEMM to rounding, not bit for bit.  The
    stride-1 input gradient is a ``lowered_product`` and is sliced the same
    way.  A strided one stays one ``col2im`` of the whole batch: a sliced
    scatter-add would write a fresh NCHW buffer per slice, and it was not
    faster.
    """
    x = np.asarray(x, dtype=float_dtype(x))
    weights = np.asarray(weights, dtype=x.dtype)
    grad_out = np.asarray(grad_out, dtype=x.dtype)
    _check_conv_shapes(x, weights)
    n, c, k, _ = weights.shape
    pad = resolve_padding(padding, k)
    b, _, h, w = x.shape
    out_h = conv_out_size(h, k, stride, pad)
    out_w = conv_out_size(w, k, stride, pad)
    if grad_out.shape != (b, n, out_h, out_w):
        raise ValueError(
            f"grad_out shape {grad_out.shape} != expected {(b, n, out_h, out_w)}"
        )
    g_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, n)
    step = max(1, COLUMN_BYTES // (out_h * out_w * k * k * c * x.itemsize))
    grad_w = np.zeros((n, k * k * c), x.dtype)
    for lo in range(0, b, step):
        g_slice = g_flat[lo * out_h * out_w : (lo + step) * out_h * out_w]
        grad_w += g_slice.T @ im2col(x[lo : lo + step], k, stride, pad)
    grad_w = np.ascontiguousarray(grad_w.reshape(n, k, k, c).transpose(0, 3, 1, 2))
    if not input_grad:
        return None, grad_w
    if stride != 1:
        grad_x = col2im(g_flat @ kernel_matrix(weights), x.shape, k, stride, pad)
        return grad_x, grad_w
    # stride 1: grad_x is the full correlation of grad_out with the flipped,
    # channel-transposed kernel, at pad k-1-pad; a pad beyond k-1 only
    # crops grad_out
    full = k - 1 - pad
    if full < 0:
        grad_out = grad_out[:, :, -full : out_h + full, -full : out_w + full]
        full = 0
    flipped = weights[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c, -1)
    return lowered_product(grad_out, flipped, k, 1, full), grad_w
