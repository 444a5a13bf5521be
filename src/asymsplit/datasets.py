"""Datasets: IDX ingestion and the synthetic benchmark generator.

The synthetic set places class information on both sides of the
decomposition by construction.  Class pairs are separated by smooth
low-rank templates that survive into ir_main; classes within a pair are
separated (mostly) by high-frequency square-wave textures.

The texture carrier needs care: a convolution ahead of the decomposition
phase-shifts a generic carrier wave, and the shifted quadrature spills
energy into the kept low band, where the main path can find it.  The
grid Nyquist frequency is phase-degenerate -- cos and sin alias onto the
same alternating samples -- so the 2-D checkerboard (-1)^(x+y) maps to
an exact scalar multiple of itself under *any* convolution kernel.  Its
blockwise DCT energy sits almost entirely outside the kept corner (about
0.6% inside for t=8, t'=4), and no linear front end can move it there.
The two classes of a pair carry the checkerboard with opposite signs:
invisible to the truncated main part, while sign quantization hands the
flipped bits to the residual untouched.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import dct_matrix

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_MAX_CLASSES = 8
# the share of a synthetic set held out for validation, by default
VAL_FRACTION = 0.2
# seeds the one fixed shuffle ahead of the IDX validation split, so a
# class-sorted file still validates on every class
_IDX_SPLIT_SEED = 0


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        for name, y in (("train", self.train_y), ("val", self.val_y)):
            y = np.asarray(y)
            if y.size and (y.min() < 0 or y.max() >= self.num_classes):
                raise ValueError(f"{name} labels outside [0, {self.num_classes})")
        present = np.unique(self.train_y)
        if len(present) < self.num_classes:
            raise ValueError(
                f"train split covers {len(present)} of {self.num_classes} classes"
            )


def _train_count(n: int, val_fraction: float) -> int:
    """How many of n samples a split keeps for training."""
    if not 0 <= val_fraction < 1:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    return n - int(round(n * val_fraction))


# ---------------------------------------------------------------------------
# IDX files (big-endian magic + dims, then unsigned bytes)
# ---------------------------------------------------------------------------

def _idx_pixels(path) -> np.ndarray:
    """(n, 1, rows, cols) uint8 pixels, a view of the file's bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ValueError(f"idx image file truncated at offset {len(raw)}: no header")
    magic, n, rows, cols = struct.unpack_from(">IIII", raw, 0)
    if magic != IDX_IMAGES_MAGIC:
        raise ValueError(f"bad idx image magic 0x{magic:08x} at offset 0")
    expected = 16 + n * rows * cols
    if len(raw) != expected:
        raise ValueError(f"idx image file length {len(raw)} != expected {expected}")
    return np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, 1, rows, cols)


def _unit_scale(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float64 in [0, 1], divided in place: one float copy."""
    out = pixels.astype(np.float64)
    out /= 255.0
    return out


def load_idx_images(path) -> np.ndarray:
    """(n, 1, rows, cols) float64 images scaled into [0, 1]."""
    return _unit_scale(_idx_pixels(path))


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"idx label file truncated at offset {len(raw)}: no header")
    magic, n = struct.unpack_from(">II", raw, 0)
    if magic != IDX_LABELS_MAGIC:
        raise ValueError(f"bad idx label magic 0x{magic:08x} at offset 0")
    if len(raw) != 8 + n:
        raise ValueError(f"idx label file length {len(raw)} != expected {8 + n}")
    return np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.int64)


def load_idx_dataset(images_path, labels_path, val_fraction: float = 0.2) -> Dataset:
    """Pair up IDX images and labels, then split off a validation share.

    The split follows one fixed permutation of the file's order, the same
    on every load, so a file sorted by class validates on all of them.
    Each split is gathered from the file's uint8 pixels and only then
    scaled, so no float copy of the whole file is ever formed.
    """
    pixels = _idx_pixels(images_path)
    ys = load_idx_labels(labels_path)
    if len(pixels) != len(ys):
        raise ValueError(f"{len(pixels)} images but {len(ys)} labels")
    n_train = _train_count(len(pixels), val_fraction)
    order = np.random.default_rng(_IDX_SPLIT_SEED).permutation(len(pixels))
    train, val = order[:n_train], order[n_train:]
    num_classes = int(ys.max()) + 1
    return Dataset(
        train_x=_unit_scale(pixels[train]), train_y=ys[train],
        val_x=_unit_scale(pixels[val]), val_y=ys[val],
        num_classes=num_classes,
    )


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------

def _smooth_map(rng, side: int, cutoff: int, basis: np.ndarray) -> np.ndarray:
    """Unit-norm random field supported on the lowest cutoff^2 frequencies."""
    coeffs = np.zeros((side, side))
    coeffs[:cutoff, :cutoff] = rng.normal(size=(cutoff, cutoff))
    field = basis.T @ coeffs @ basis
    return field / np.linalg.norm(field)


def _texture_map(side: int) -> np.ndarray:
    """The unit-amplitude Nyquist checkerboard (-1)^(x+y)."""
    signs = 1.0 - 2.0 * (np.arange(side) % 2)
    return np.outer(signs, signs)


# images drawn per chunk: one normal() call, then the chunk's arithmetic in
# place, so generation holds the chunk's draw and one term buffer (0.75
# MiB at the default 3x16x16), never a second copy of the set
CHUNK = 64


def _synthetic_draw(
    n: int,
    num_classes: int,
    sizes,
    *,
    rank: int = 3,
    cutoff: int = 4,
    noise: float = 0.4,
    seed: int = 0,
    side: int = 16,
    channels: int = 3,
    gamma: float = 0.1,
    texture_amp: float = 0.5,
    spread: float = 0.25,
) -> tuple[np.ndarray, list]:
    """The n labels and the first sum(sizes) images of the n-sample draw,
    as one separately allocated (size, channels, side, side) array per size.

    Class-structured images: smooth pair templates, a gamma-scaled smooth
    within-pair offset, per-class high-frequency textures, shared smooth
    variability of the given rank, and pixel noise.  Every label is drawn
    first, then each image in order from the same generator: its ``rank``
    common-mode scalars, then its noise block.  The images are drawn CHUNK
    at a time with one ``normal`` call per chunk, which takes the same
    stream in the same order, and each term is added over the whole chunk
    in the per-image order, so every image is the same to the byte
    whichever sizes split the draw.
    """
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

    templates = np.stack([np.multiply.outer(u_pair, m) for m in pair_maps])
    delta = np.multiply.outer(u_delta, delta_map)
    carrier = np.multiply.outer(u_texture, texture)
    commons = [np.multiply.outer(u, m) for u, m in zip(u_common, common_maps)]
    flips = (1.0 - 2.0 * (labels % 2))[:, None, None, None]
    shape = (channels, side, side)
    pixels = math.prod(shape)

    outs = [np.empty((size, *shape)) for size in sizes]
    term = np.empty((min(CHUNK, sum(sizes)), *shape))  # each product, before its add
    done = 0
    for out in outs:
        for lo in range(0, len(out), CHUNK):
            img = out[lo : lo + CHUNK]
            k = len(img)
            at = slice(done, done + k)
            draw = rng.normal(size=(k, rank + pixels))
            tmp = term[:k]
            # any mode but the default "raise" writes straight into img
            np.take(templates, labels[at] // 2, axis=0, out=img, mode="clip")
            img += np.multiply(gamma * flips[at], delta, out=tmp)
            img += np.multiply(texture_amp * flips[at], carrier, out=tmp)
            for j in range(rank):
                img += np.multiply(spread * draw[:, j, None, None, None], commons[j], out=tmp)
            img += np.multiply(noise, draw[:, rank:].reshape(k, *shape), out=tmp)
            del draw  # before the next chunk's draw is allocated
            done += k
    return labels, outs


def synthetic_images(n: int = 2000, num_classes: int = 4, *, count: int | None = None,
                     **kwargs) -> tuple[np.ndarray, np.ndarray]:
    """(images, labels) of the first ``count`` samples (all n if None) of
    the n-sample draw that ``synthetic_dataset`` splits; ``kwargs`` set the
    generator (rank, cutoff, noise, seed, side, channels, gamma,
    texture_amp, spread; see ``_synthetic_draw``).  The first ``count``
    images are those of the whole draw and cost only their own.
    """
    count = n if count is None else min(count, n)
    labels, (xs,) = _synthetic_draw(n, num_classes, (count,), **kwargs)
    return xs, labels[:count]


def synthetic_train_count(n: int, val_fraction: float = VAL_FRACTION) -> int:
    """How many of ``synthetic_dataset``'s n samples go to the training split."""
    return _train_count(n, val_fraction)


def synthetic_dataset(n: int = 2000, num_classes: int = 4, *,
                      val_fraction: float = VAL_FRACTION, **kwargs) -> Dataset:
    """``synthetic_images``' n samples, the first ``synthetic_train_count``
    for training and the rest for validation; ``kwargs`` go to it.

    The two splits are drawn straight into two separately allocated
    arrays, so a caller that keeps only one frees the other's pixels.
    """
    n_train = synthetic_train_count(n, val_fraction)
    labels, (train_x, val_x) = _synthetic_draw(n, num_classes, (n_train, n - n_train), **kwargs)
    return Dataset(
        train_x=train_x, train_y=labels[:n_train],
        val_x=val_x, val_y=labels[n_train:],
        num_classes=num_classes,
    )


def class_means(data: Dataset) -> np.ndarray:
    """Per-class mean training image, stacked (L, c, h, w)."""
    out = []
    for cls in range(data.num_classes):
        out.append(data.train_x[data.train_y == cls].mean(axis=0))
    return np.stack(out)
