"""Differential privacy for the transmitted residual.

Budget accounting uses the subsampled Gaussian mechanism: a per-mechanism
budget (eps', delta') amplifies under sampling probability p to

    eps = ln(1 + p * (e^eps' - 1)),    delta = p * delta'

and calibration inverts that map, then sets the noise scale

    sigma = C * sqrt(2 * ln(2 / delta') / eps')

for sensitivity bound C (natural logarithms throughout).  Perturbation
draws from a counter-based Philox stream keyed by (seed, stream id), so a
sample's noise is reproducible bit-for-bit regardless of the order in
which samples are processed.  The quantizer keeps only the sign bit of the
noisy residual; the cache guarantees each sample is perturbed exactly
once, which keeps the whole release one-shot.

``add_noise`` is the one noise routine: one Philox generator fills a
(b, c, h, w) block row by row, re-keyed to each row's (seed, id) with
counter 0 and an empty buffer.  A counter-based stream is a function of
key and counter alone, so each row gets the draws of a fresh
``noise_stream(seed, id)`` without the OS-entropy seeding a new instance
costs, and ``sigma * standard_normal`` equals ``normal(0, sigma)`` bit for
bit: the released bits are unchanged.  ``build_cache`` runs it a block at
a time, ``perturb`` on one sample, with the caller's ``gen`` if given (a
new Philox seeds an OS-entropy SeedSequence first, costly per request).
No threads: two threads drawing Philox normals on two cores were no
faster than one.

Released bits stay bits at rest on the private side too: ``build_cache``
packs each block's sign bits with ``pack_bits``, the layout the wire and
the public store use, and ``ResidualCache`` keeps those packed blocks, in
ascending id order, and their id column, 256 B + 8 B per sample at
(8, 16, 16) against the 2048 B of one uint8 per bit.  A block's packed
rows are formed as the block's last allocation, after its float noise and
bool signs, which are freed at once.  That order is load-bearing: with one array for the whole
release allocated up front, the freed block buffers were left at the heap
top, glibc could return them to the OS after every block, and the next
block's buffers then took first-touch page faults again (a whole release
refaulting its 2 MB noise buffer per block).
"""

from __future__ import annotations

import math
import operator as op
from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .numerics import as_tensor3


def _check_probability(p: float) -> None:
    if not (0 < p <= 1):
        raise ValueError(f"sampling probability must be in (0, 1], got {p}")


def amplify(eps_prime: float, delta_prime: float, p: float) -> tuple[float, float]:
    """Privacy after amplification by subsampling with probability p."""
    if not (np.isfinite(eps_prime) and eps_prime > 0):
        raise ValueError(f"eps_prime must be positive and finite, got {eps_prime}")
    if not (0 < delta_prime < 1):
        raise ValueError(f"delta_prime must be in (0, 1), got {delta_prime}")
    _check_probability(p)
    return math.log1p(p * math.expm1(eps_prime)), p * delta_prime


@dataclass(frozen=True)
class PrivacyParams:
    """A calibrated budget: targets, per-mechanism budget, and noise scale."""

    epsilon: float
    delta: float
    p: float
    C: float
    eps_prime: float
    delta_prime: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("epsilon", "delta", "p", "C", "eps_prime", "delta_prime", "sigma"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")


def calibrate(epsilon: float, delta: float, p: float, C: float) -> PrivacyParams:
    """Invert the amplification for targets (epsilon, delta) and set sigma."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    _check_probability(p)
    if not (np.isfinite(C) and C > 0):
        raise ValueError(f"C must be positive and finite, got {C}")
    delta_prime = delta / p
    if delta_prime >= 1:
        raise ValueError(
            f"delta/p = {delta_prime} >= 1; per-mechanism delta' must stay below 1"
        )
    eps_prime = math.log1p(math.expm1(epsilon) / p)
    sigma = C * math.sqrt(2.0 * math.log(2.0 / delta_prime) / eps_prime)
    return PrivacyParams(
        epsilon=epsilon,
        delta=delta,
        p=p,
        C=C,
        eps_prime=eps_prime,
        delta_prime=delta_prime,
        sigma=sigma,
    )


def _uint64(name: str, value) -> int:
    """``value``, an int or numpy integer, as an int in [0, 2**64); a float
    or any other non-integer is refused, never truncated onto a key."""
    try:
        value = op.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must fit in uint64, got {value}")
    return value


def noise_stream(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); order-independent draws."""
    key = np.array([_uint64("seed", seed), _uint64("stream", stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def add_noise(out: np.ndarray, block: np.ndarray, sigma: float, seed: int, ids,
              gen: np.random.Generator | None = None) -> np.ndarray:
    """Fill ``out`` with ``block`` + N(0, sigma^2) noise, row j from stream ids[j].

    ``out``: C-contiguous float64 in the finite block's (b, c, h, w) shape.
    ``gen``, of any key, is re-keyed per row to ``noise_stream(seed, ids[j])``.
    """
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be >= 0 and finite, got {sigma}")
    if not np.isfinite(block).all():
        raise ValueError("residual contains non-finite entries")
    seed = _uint64("seed", seed)
    ids = [_uint64("stream", i) for i in ids]
    if sigma == 0 or not ids:
        np.copyto(out, block)
        return out
    if gen is None:
        gen = noise_stream(seed, 0)
    # a fresh generator's state; the setter copies it, so rows change only the key
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, 0], np.uint64)},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, stream in zip(out, ids):
        fresh["state"]["key"][1] = stream
        gen.bit_generator.state = fresh
        gen.standard_normal(out=row)
    out *= sigma
    out += block
    return out


def perturb(ir_res, sigma: float, seed: int, stream: int = 0,
            gen: np.random.Generator | None = None) -> np.ndarray:
    """Add i.i.d. Gaussian(0, sigma^2) noise from the (seed, stream) key;
    ``gen``, a Philox generator of any key, is re-keyed and used if given."""
    x = as_tensor3(ir_res)
    return add_noise(np.empty((1, *x.shape)), x[None], sigma, seed, [stream], gen)[0]


def quantize(ir_noisy) -> np.ndarray:
    """Keep only the sign: 0 where negative, 1 where >= 0 (uint8)."""
    x = np.asarray(ir_noisy, dtype=np.float64)
    return (x >= 0).view(np.uint8)


# Released bits at rest and on the wire: one bit per value, channel-major,
# most significant bit first, each sample zero-padded to a whole byte.

def pack_bits(bits) -> np.ndarray:
    """0/1 bits, one (c, h, w) tensor or a (b, c, h, w) block of them, as
    packed uint8 rows: (nbytes,) or (b, nbytes), each row padded on its own."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim not in (3, 4):
        raise ValueError(f"expected (c, h, w) or (b, c, h, w) bits, got {bits.shape}")
    rows = bits.reshape(*bits.shape[:-3], math.prod(bits.shape[-3:]))
    # positional arguments: numpy parses keywords about as long as it packs a sample
    return np.packbits(rows, -1, "big")


def unpack_bits(packed: np.ndarray, shape) -> np.ndarray:
    """Rows of packed uint8 bytes (a leading axis or none) as 0/1 uint8
    bits, each row reshaped to the (c, h, w) ``shape``."""
    shape = tuple(shape)
    bits = np.unpackbits(packed, -1, math.prod(shape), "big")  # positional, as above
    return bits.reshape(packed.shape[:-1] + shape)


class ResidualCache:
    """Immutable store of one-shot quantized residual bits, keyed by sample id.

    Holds the release as ``build_cache`` formed it: one read-only packed
    (b, ceil(c*h*w/8)) uint8 array per block, every block but the last of
    the first's size, their rows in ascending sample-id order, and a uint64
    column of those ids.  No Python object is kept per sample; ``bits``
    bisects the id column and unpacks the row at that position.  Each
    block is formed after its float temporaries, never preallocated for the
    whole release (see the module docstring: that order keeps the freed
    temporaries' pages mapped for the next block).
    """

    def __init__(self, shape, blocks, ids):
        """``shape``: each sample's (c, h, w); ``blocks``: the packed rows;
        ``ids``: each row's sample id, strictly ascending."""
        self._shape = shape
        self._blocks = tuple(blocks)
        self._step = len(self._blocks[0]) if self._blocks else 1
        self._ids = array("Q", ids)

    def _find(self, sample_id) -> int:
        """The position of ``sample_id`` in the id column, or -1."""
        i = bisect_left(self._ids, sample_id)
        return i if i < len(self._ids) and self._ids[i] == sample_id else -1

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, sample_id) -> bool:
        return self._find(sample_id) >= 0

    def ids(self) -> list:
        return self._ids.tolist()

    def packed(self, sample_id) -> np.ndarray:
        """One sample's packed row as the cache holds it: a read-only view
        of ceil(c*h*w/8) bytes, the payload of its residual-bits frame."""
        i = self._find(sample_id)
        if i < 0:
            raise KeyError(f"sample id {sample_id} not in cache")
        block, row = divmod(i, self._step)
        return self._blocks[block][row]

    def blocks(self) -> list:
        """Each block as (first sample id, packed rows), in id order: the
        payload of one residual-block frame.  A block whose ids are not
        consecutive, which one first id cannot name, is refused."""
        out = []
        for lo, block in zip(range(0, len(self._ids), self._step), self._blocks):
            first = self._ids[lo]
            if self._ids[lo + len(block) - 1] - first != len(block) - 1:
                raise ValueError(f"the block from sample id {first} has gaps in its ids")
            out.append((first, block))
        return out

    def bits(self, sample_id) -> np.ndarray:
        """The cached bit tensor for one sample, freshly unpacked and
        read-only; never re-perturbs."""
        out = unpack_bits(self.packed(sample_id), self._shape)
        out.setflags(write=False)
        return out


# residuals released per block: large enough to spread the per-call costs,
# small enough that a release never holds a second copy of itself
RELEASE_CHUNK = 128


def build_cache(residuals, params: PrivacyParams | None, seed: int, sigma: float | None = None,
                gen: np.random.Generator | None = None) -> ResidualCache:
    """Perturb and quantize every residual exactly once.

    ``residuals`` maps sample id -> normalized residual tensor; the ids
    must be distinct uint64 values.  Each sample's noise comes from the
    (seed, sample id) stream, so the result is identical no matter how the
    mapping is ordered or chunked: blocks take the samples in ascending id
    order.
    ``sigma`` overrides the calibrated scale (used for the no-noise
    ablation); otherwise params.sigma applies, and every residual must
    respect the sensitivity bound params.C.

    Blocks of at most RELEASE_CHUNK residuals (never the whole release)
    each get one stack, norm check, ``add_noise`` with its finiteness
    check, ``quantize`` and ``pack_bits``; one re-keyed generator serves
    all of them: ``gen``, a Philox generator of any key, if given, else a
    fresh one.  Each block's packed rows are its last allocation (see the
    module docstring), and the cache keeps only them and the id columns.  A
    sample's bits, as ``ResidualCache.bits`` unpacks them, equal
    ``quantize(perturb(r, sigma, seed, sample_id))`` byte for byte.
    The seed is checked first, so an empty release refuses a bad seed too.
    """
    seed = _uint64("seed", seed)
    if sigma is None:
        if params is None:
            raise ValueError("either params or an explicit sigma is required")
        sigma = params.sigma
    id_of = {k: _uint64("sample id", k) for k in residuals}
    keys = sorted(id_of, key=id_of.get)
    ids = [id_of[k] for k in keys]
    if any(map(op.eq, ids, ids[1:])):
        raise ValueError("sample ids of one release repeat")
    shapes = {np.shape(residuals[k]) for k in keys}
    if len(shapes) > 1:
        raise ValueError(f"residuals of one release differ in shape: {sorted(shapes)}")
    if any(len(shape) != 3 or min(shape) < 1 for shape in shapes):
        raise ValueError(f"expected (c, h, w) residuals with positive dims, got {shapes}")
    # one generator for the whole release; add_noise re-keys it per sample
    if gen is None:
        gen = noise_stream(seed, 0)
    blocks = []
    for lo in range(0, len(keys), RELEASE_CHUNK):
        chunk = ids[lo : lo + RELEASE_CHUNK]
        block = np.stack([residuals[k] for k in keys[lo : lo + RELEASE_CHUNK]], dtype=np.float64)
        if params is not None:
            norms = np.sqrt(np.einsum("bchw,bchw->b", block, block))
            worst = int(np.argmax(norms))
            if norms[worst] > params.C + 1e-9:
                raise ValueError(
                    f"residual norm {norms[worst]} exceeds sensitivity bound C={params.C} "
                    f"for sample {chunk[worst]}"
                )
        packed = pack_bits(quantize(add_noise(np.empty_like(block), block, sigma, seed, chunk, gen)))
        packed.setflags(write=False)
        blocks.append(packed)
    return ResidualCache(next(iter(shapes), None), blocks, ids)
