"""Asymmetric decomposition of feature tensors.

Splits a ``c x h x w`` activation into a low-dimensional main part -- the
top-r principal channels restricted to low spatial frequencies -- and a
full-resolution residual carrying everything the main part discards.  The
residual is l2-clipped so that downstream noise calibration can treat its
norm as a fixed sensitivity bound.

The splits see the spatial low pass -- keep the t' x t' DCT corner of
every t-block, invert it at t' -- as one cached (h'w', hw) operator K.
With U the top-r channel basis of a sample X flattened to (c, hw),
ir_main = U U^T X K^T, the unclipped residual is X - ir_main K, and the
adjoint for a gradient G on ir_main is U U^T G K: a few per-sample
matmuls each.  :func:`spectrum` reads the error of each axis alone from
two energy spectra of X, its singular values and the energy at each
frequency of its t-blocks, and builds no K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numerics import as_tensor3, dct_matrix


@dataclass(frozen=True)
class DecompositionConfig:
    """Decomposition knobs: channel rank, DCT block sizes, clipping scale.

    r       -- number of principal channels kept in the main part (>= 1)
    t       -- DCT source block size (must divide h and w)
    t_prime -- kept low-frequency block size, 1 <= t_prime <= t
    C       -- l2 clipping scale for the residual, > 0
    """

    r: int
    t: int
    t_prime: int
    C: float = 1.0

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if not 1 <= self.t_prime <= self.t:
            raise ValueError(
                f"t_prime must satisfy 1 <= t_prime <= t, got t_prime={self.t_prime} t={self.t}"
            )
        if not (np.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be positive and finite, got {self.C}")

    def check_shape(self, shape) -> None:
        c, h, w = shape
        if self.r > c:
            raise ValueError(f"r={self.r} exceeds channel count c={c}")
        if h % self.t or w % self.t:
            raise ValueError(
                f"block size t={self.t} must divide spatial dims ({h}, {w})"
            )

    def main_shape(self, shape) -> tuple[int, int, int]:
        """Shape of ir_main for an input of the given shape."""
        c, h, w = shape
        return (c, (h // self.t) * self.t_prime, (w // self.t) * self.t_prime)


def _channel_basis_batch(flat: np.ndarray, r: int) -> np.ndarray:
    """Top-r left singular subspace of each (c, hw) matrix in the stack.

    Works on the c x c Gram matrix instead of the wide matrix itself --
    same leading subspace at a fraction of the cost, since c is tiny
    compared to hw on every path that batches.
    """
    gram = flat @ np.swapaxes(flat, 1, 2)
    _, vecs = np.linalg.eigh(gram)  # ascending eigenvalues
    return vecs[:, :, ::-1][:, :, :r]


@functools.lru_cache(maxsize=None)
def lowpass_operator(h: int, w: int, t: int, t_prime: int) -> np.ndarray:
    """The block-DCT low pass of one (h, w) channel as an (h'w', hw) matrix K.

    Per axis and t-block the low pass is L = T_t'^T T_t[:t'], of shape
    (t', t), and K is the Kronecker product of the row and column
    block-diagonals of L.  On row-major flattened channels ``x @ K.T``
    takes each t-block B to T_t'^T (T_t B T_t^T)[:t', :t'] T_t', its DCT
    corner inverted at t', and ``(x @ K.T) @ K`` is that low pass
    zero-padded back to full resolution.  Built once per shape and shared
    by every caller, so the returned array is read-only.
    """
    if not 1 <= t_prime <= t or h % t or w % t:
        raise ValueError(f"no t'={t_prime} low pass of t={t} blocks on ({h}, {w}) channels")
    lp = dct_matrix(t_prime).T @ dct_matrix(t)[:t_prime]
    k = np.kron(np.kron(np.eye(h // t), lp), np.kron(np.eye(w // t), lp))
    k.flags.writeable = False
    return k


def _main_stage(xs, cfg: DecompositionConfig):
    """The stage both batched splits share: (xs, basis, k, ir_main).

    xs as a C-ordered float64 batch, each sample's top-r channel basis U,
    the low-pass operator K and ir_main = U (U^T X) K^T.  Every product is
    stacked per sample, never folded into one (b*c, hw) GEMM, so a
    sample's rows do not depend on the batch it came in: the stage-2
    private step reads ir_main rows kept from the cache-build batches.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 4:
        raise ValueError(f"expected a (b, c, h, w) batch, got shape {xs.shape}")
    cfg.check_shape(xs.shape[1:])
    b, c, h, w = xs.shape

    flat = xs.reshape(b, c, h * w)
    basis = _channel_basis_batch(flat, min(cfg.r, c))
    k = lowpass_operator(h, w, cfg.t, cfg.t_prime)
    ir_main = basis @ ((np.swapaxes(basis, 1, 2) @ flat) @ k.T)
    return xs, basis, k, ir_main.reshape(b, *cfg.main_shape((c, h, w)))


def decompose_batch(xs, cfg: DecompositionConfig):
    """The split of a (b, c, h, w) batch: (ir_main, ir_res) sample by sample.

    The unclipped residual X - ir_main K is the channel residual
    X - U U^T X plus the spatial one U U^T X (I - K^T K); each sample's
    residual is then scaled into the l2 ball of radius C.
    """
    xs, _, k, ir_main = _main_stage(xs, cfg)
    b, c = xs.shape[:2]
    # in place on the product's buffer: a fresh (b, c, hw) array per step
    # costs more in first-touch page faults than the arithmetic
    res = ir_main.reshape(b, c, -1) @ k
    np.subtract(xs.reshape(b, c, -1), res, out=res)

    # one reduction, with no squared (b, c*h*w) temporary
    flat = res.reshape(b, -1)
    norms = np.sqrt(np.einsum("bi,bi->b", flat, flat))
    res /= np.maximum(1.0, norms / cfg.C)[:, None, None]
    return ir_main, res.reshape(xs.shape)


def decompose_main_batch(xs, cfg: DecompositionConfig):
    """IR_main for a batch plus the frozen channel bases for the adjoint.

    Returns (ir_main, basis) where basis[b] holds an orthonormal basis of
    sample b's top-r left singular subspace.
    """
    _, basis, _, ir_main = _main_stage(xs, cfg)
    return ir_main, basis


def decompose_main_adjoint(grad_ir_main, basis, cfg: DecompositionConfig) -> np.ndarray:
    """Pull a gradient G on ir_main back to the input, factors held frozen.

    With the sample's channel basis U and the low pass K held constant,
    ir_main = U U^T X K^T, so the adjoint is gX = U U^T G K.  ``basis``
    must have shape (b, c, r) for G's b and c, with 1 <= r <= c.
    """
    g = np.asarray(grad_ir_main, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    b, c, hr, wr = g.shape
    t, tp = cfg.t, cfg.t_prime
    if hr % tp or wr % tp:
        raise ValueError(
            f"gradient spatial dims ({hr}, {wr}) not divisible by t_prime={tp}"
        )
    if basis.ndim != 3 or basis.shape[:2] != (b, c) or not 1 <= basis.shape[2] <= c:
        raise ValueError(
            f"basis shape {basis.shape} does not match gradient shape {g.shape}: "
            f"expected ({b}, {c}, r) with 1 <= r <= {c}"
        )
    h, w = hr // tp * t, wr // tp * t
    k = lowpass_operator(h, w, t, tp)
    proj = np.swapaxes(basis, 1, 2) @ g.reshape(b, c, -1)
    return (basis @ (proj @ k)).reshape(b, c, h, w)


def _tail_energy(energy: np.ndarray) -> np.ndarray:
    """tail[k] = sum(energy[k:]) for k = 0..len(energy), the last one 0.

    Summed from the far end, so for non-negative energies tail never rises
    with k, to the last bit.
    """
    return np.append(np.cumsum(energy[::-1])[::-1], 0.0)


def spectrum(x, t: int, r_values, tprime_values):
    """Relative reconstruction error along each axis of the decomposition.

    For each r: |X - X_lr| / |X| with X_lr the rank-r channel reconstruction.
    For each t': |X - X_lf| / |X| with X_lf the blockwise DCT truncation of
    all channels, zero-padded and inverted at full resolution.
    Returns rows (kind, param, rel_error) with kind in {"svd", "dct"}.

    Neither reconstruction is formed.  By Eckart-Young |X - X_lr|^2 is the
    sum of s_i^2 over i >= r, s the singular values of X flattened to
    (c, hw).  The block DCT is orthonormal, so |X - X_lf|^2 is the energy
    of the coefficients outside the t' x t' corner: with E[i, j] the sum of
    (T B T^T)[i, j]^2 over every channel and t-block B, the sum of E where
    max(i, j) >= t'.
    """
    x = as_tensor3(x)
    c, h, w = x.shape
    if h % t or w % t:
        raise ValueError(f"block size t={t} must divide spatial dims ({h}, {w})")
    norm = float(np.linalg.norm(x))
    s = np.linalg.svd(x.reshape(c, h * w), compute_uv=False)
    rank_tail = _tail_energy(s * s)
    mat = dct_matrix(t)
    coeffs = mat @ x.reshape(c, h // t, t, w // t, t).swapaxes(2, 3) @ mat.T
    energy = np.einsum("cabij,cabij->ij", coeffs, coeffs)
    # shell k: the frequencies the (k+1) x (k+1) corner adds to the k x k one
    shell = np.maximum.outer(np.arange(t), np.arange(t))
    freq_tail = _tail_energy(np.bincount(shell.ravel(), energy.ravel(), minlength=t))

    rows = []
    for r in r_values:
        if not 1 <= r <= c:
            raise ValueError(f"r={r} outside [1, {c}]")
        err = float(np.sqrt(rank_tail[min(r, s.size)]))
        rows.append(("svd", int(r), err / norm if norm else 0.0))
    for tp in tprime_values:
        if not 1 <= tp <= t:
            raise ValueError(f"t_prime={tp} outside [1, {t}]")
        err = float(np.sqrt(freq_tail[tp]))
        rows.append(("dct", int(tp), err / norm if norm else 0.0))
    return rows


def format_spectrum_csv(rows) -> str:
    """Render spectrum rows as CSV with header kind,param,rel_error."""
    lines = ["kind,param,rel_error"]
    for kind, param, err in rows:
        lines.append(f"{kind},{param},{err:.12g}")
    return "\n".join(lines) + "\n"
