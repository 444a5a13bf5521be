"""Per-sample SVD and block-DCT decomposition: the oracle the tests pin the
shipped split against.

``decompose`` factors one (c, h, w) sample by a thin SVD of its
channel-flattened matrix, pushes the top-r right singular vectors through
an explicit blockwise DCT, and keeps the t' x t' corner of every t-block.
It keeps the factors and the coefficients, so the tests can rebuild the
input from them by a route independent of ``asymsplit.decompose``'s cached
low-pass operator.  ``spectrum_reference`` computes the error curves of
``asymsplit.decompose.spectrum`` the same explicit way: by rank-r
reconstruction and by a zero-padded inverse DCT.

``synthetic_images_reference`` is the synthetic generator's per-image loop,
the reference ``asymsplit.datasets``' chunked draw is pinned against byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from asymsplit.datasets import _MAX_CLASSES, _smooth_map, _texture_map
from asymsplit.decompose import DecompositionConfig
from asymsplit.numerics import as_tensor3, dct_matrix

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

def _split_blocks(x: np.ndarray, t: int) -> np.ndarray:
    """(..., h, w) -> (..., h//t, w//t, t, t) without copying rows."""
    *lead, h, w = x.shape
    if h % t or w % t:
        raise ValueError(f"spatial dims ({h}, {w}) not divisible by block size {t}")
    x = x.reshape(*lead, h // t, t, w // t, t)
    return x.swapaxes(-3, -2)


def _join_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of _split_blocks."""
    *lead, nb_h, nb_w, t1, t2 = blocks.shape
    x = blocks.swapaxes(-3, -2)
    return x.reshape(*lead, nb_h * t1, nb_w * t2)


def dct_block_forward(channel, t: int) -> np.ndarray:
    """Blockwise 2-D DCT of an (h, w) channel: per block C = T @ B @ T.T.

    Also accepts a leading batch/channel axis.
    """
    x = np.asarray(channel, dtype=np.float64)
    mat = dct_matrix(t)
    return _join_blocks(mat @ _split_blocks(x, t) @ mat.T)


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
    return _join_blocks(mat.T @ blocks @ mat)


# ---------------------------------------------------------------------------
# The per-sample split
# ---------------------------------------------------------------------------

@dataclass
class DecompositionOutput:
    ir_main: np.ndarray     # c x (h/t)t' x (w/t)t'
    ir_res_raw: np.ndarray  # c x h x w, unclipped
    ir_res: np.ndarray      # c x h x w, l2 norm <= C
    factors: SvdFactors     # channel-flattened SVD of the input
    dct_coeffs: np.ndarray  # r x h x w blockwise coefficients of the principal channels


def _lowfreq_mask(h: int, w: int, t: int, t_prime: int) -> np.ndarray:
    """Boolean (h, w) mask of the top-left t' x t' corner of every t-block."""
    rows = (np.arange(h) % t) < t_prime
    cols = (np.arange(w) % t) < t_prime
    return rows[:, None] & cols[None, :]


def normalize_residual(ir_res_raw, C: float) -> np.ndarray:
    """Scale the residual into the l2 ball of radius C: x / max(1, |x|/C)."""
    if not (np.isfinite(C) and C > 0):
        raise ValueError(f"C must be positive and finite, got {C}")
    x = np.asarray(ir_res_raw, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    return x / max(1.0, norm / C)


def decompose(x, cfg: DecompositionConfig) -> DecompositionOutput:
    """Split x into the rank-r low-frequency main part and the residual.

    The channel-flattened (c, h*w) matrix is factored by SVD; the top-r
    right singular vectors are the principal channels.  Each is pushed
    through a blockwise DCT, and only the t' x t' low-frequency corner of
    every t-block survives into ir_main (inverted at reduced resolution).
    The residual collects the trailing singular directions plus the
    discarded high-frequency content of the principal channels, both at
    full resolution, so that the split is exactly additive.
    """
    x = as_tensor3(x)
    cfg.check_shape(x.shape)
    c, h, w = x.shape
    t, tp = cfg.t, cfg.t_prime

    factors = svd(x.reshape(c, h * w))
    u, s, vt = factors.left_vectors, factors.singular_values, factors.right_vectors
    r = min(cfg.r, s.size)

    principal = vt[:r].reshape(r, h, w)
    coeffs = dct_block_forward(principal, t)
    v_lf = idct_block(coeffs, t, tp)
    scaled_u = u[:, :r] * s[:r]
    ir_main = np.einsum("ci,i...->c...", scaled_u, v_lf, optimize=True)

    svd_res = ((u[:, r:] * s[r:]) @ vt[r:]).reshape(c, h, w)
    hf_coeffs = coeffs * ~_lowfreq_mask(h, w, t, tp)
    v_hf = idct_block(hf_coeffs, t, t)
    dct_res = np.einsum("ci,i...->c...", scaled_u, v_hf, optimize=True)
    raw = svd_res + dct_res

    return DecompositionOutput(
        ir_main=ir_main,
        ir_res_raw=raw,
        ir_res=normalize_residual(raw, cfg.C),
        factors=factors,
        dct_coeffs=coeffs,
    )


def spectrum_reference(x, t: int, r_values, tprime_values):
    """Relative reconstruction error along each axis of the decomposition.

    For each r: |X - X_lr| / |X| with X_lr the rank-r channel reconstruction.
    For each t': |X - X_lf| / |X| with X_lf the blockwise DCT truncation of
    all channels, zero-padded and inverted at full resolution.
    Returns rows (kind, param, rel_error) with kind in {"svd", "dct"}.
    """
    x = as_tensor3(x)
    c, h, w = x.shape
    if h % t or w % t:
        raise ValueError(f"block size t={t} must divide spatial dims ({h}, {w})")
    norm = float(np.linalg.norm(x))
    factors = svd(x.reshape(c, h * w))
    coeffs = dct_block_forward(x, t)

    rows = []
    for r in r_values:
        if not 1 <= r <= c:
            raise ValueError(f"r={r} outside [1, {c}]")
        err = float(np.linalg.norm(x.reshape(c, h * w) - factors.reconstruct(r)))
        rows.append(("svd", int(r), err / norm if norm else 0.0))
    for tp in tprime_values:
        if not 1 <= tp <= t:
            raise ValueError(f"t_prime={tp} outside [1, {t}]")
        x_lf = idct_block(coeffs * _lowfreq_mask(h, w, t, tp), t, t)
        err = float(np.linalg.norm(x - x_lf))
        rows.append(("dct", int(tp), err / norm if norm else 0.0))
    return rows


# ---------------------------------------------------------------------------
# The synthetic generator, one image at a time
# ---------------------------------------------------------------------------

def synthetic_images_reference(
    n: int = 2000,
    num_classes: int = 4,
    rank: int = 3,
    cutoff: int = 4,
    noise: float = 0.4,
    seed: int = 0,
    side: int = 16,
    channels: int = 3,
    gamma: float = 0.1,
    texture_amp: float = 0.5,
    spread: float = 0.25,
    count: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(images, labels) of the first ``count`` samples (all n if None) of
    the n-sample draw: every label first, then each image in order, its
    ``rank`` common-mode scalars and then its noise block."""
    if num_classes < 2 or num_classes > _MAX_CLASSES:
        raise ValueError(f"num_classes must be in [2, {_MAX_CLASSES}]")
    if n < num_classes:
        raise ValueError(f"need at least one sample per class, got n={n}")
    if side % 8:
        raise ValueError(f"side must be a multiple of 8, got {side}")
    rng = np.random.default_rng(seed)
    basis = dct_matrix(side)

    num_pairs = (num_classes + 1) // 2
    pair_maps = [_smooth_map(rng, side, cutoff, basis) for _ in range(num_pairs)]
    delta_map = _smooth_map(rng, side, cutoff, basis)
    common_maps = [_smooth_map(rng, side, cutoff, basis) for _ in range(rank)]
    texture = _texture_map(side)

    def unit(v):
        v = np.asarray(v, dtype=np.float64)
        return v / np.linalg.norm(v)

    u_pair = unit([1.0] * channels)
    u_delta = unit([1.0] + [-1.0] * (channels - 1))
    u_texture = unit([1.0, 0.0, -1.0][:channels] if channels > 1 else [1.0])
    u_common = [unit(rng.normal(size=channels)) for _ in range(rank)]

    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    count = n if count is None else min(count, n)
    xs = np.empty((count, channels, side, side))
    for i in range(count):
        cls = labels[i]
        pair, flip = cls // 2, 1.0 - 2.0 * (cls % 2)
        img = np.multiply.outer(u_pair, pair_maps[pair])
        img = img + gamma * flip * np.multiply.outer(u_delta, delta_map)
        img = img + texture_amp * flip * np.multiply.outer(u_texture, texture)
        for k in range(rank):
            img = img + spread * rng.normal() * np.multiply.outer(u_common[k], common_maps[k])
        img = img + noise * rng.normal(size=img.shape)
        xs[i] = img
    return xs, labels[:count]
