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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

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
    value = int(value)
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
# most significant bit first, zero-padded to a whole byte.

def pack_bits(bits) -> bytes:
    """A (c, h, w) tensor of 0/1 bits as its packed bytes."""
    return np.packbits(np.asarray(bits, dtype=np.uint8).reshape(-1), bitorder="big").tobytes()


def unpack_bits(packed: np.ndarray, shape) -> np.ndarray:
    """Rows of packed uint8 bytes (a leading axis or none) as 0/1 uint8
    bits, each row reshaped to the (c, h, w) ``shape``."""
    bits = np.unpackbits(packed, axis=-1, count=math.prod(shape), bitorder="big")
    return bits.reshape(*packed.shape[:-1], *shape)


@dataclass
class ResidualCache:
    """Immutable store of one-shot quantized residual bits, keyed by sample id."""

    _bits: MappingProxyType = field(repr=False)

    def __len__(self) -> int:
        return len(self._bits)

    def __contains__(self, sample_id: int) -> bool:
        return sample_id in self._bits

    def ids(self):
        return sorted(self._bits)

    def bits(self, sample_id: int) -> np.ndarray:
        """The cached bit tensor for one sample; never re-perturbs."""
        try:
            return self._bits[sample_id]
        except KeyError:
            raise KeyError(f"sample id {sample_id} not in cache") from None


# residuals released per block: large enough to spread the per-call costs,
# small enough that a release never holds a second copy of itself
RELEASE_CHUNK = 128


def build_cache(residuals, params: PrivacyParams | None, seed: int, sigma: float | None = None,
                gen: np.random.Generator | None = None) -> ResidualCache:
    """Perturb and quantize every residual exactly once.

    ``residuals`` maps sample id -> normalized residual tensor.  Each
    sample's noise comes from the (seed, sample id) stream, so the result
    is identical no matter how the mapping is ordered or chunked.
    ``sigma`` overrides the calibrated scale (used for the no-noise
    ablation); otherwise params.sigma applies, and every residual must
    respect the sensitivity bound params.C.

    Blocks of at most RELEASE_CHUNK residuals (never the whole release)
    each get one stack, norm check, ``add_noise`` with its finiteness
    check and ``quantize``; one re-keyed generator serves all of them:
    ``gen``, a Philox generator of any key, if given, else a fresh one.  A
    sample's bits, a read-only view into its block's, equal
    ``quantize(perturb(r, sigma, seed, sample_id))`` byte for byte.
    """
    if sigma is None:
        if params is None:
            raise ValueError("either params or an explicit sigma is required")
        sigma = params.sigma
    keys = list(residuals)
    ids = [_uint64("sample id", k) for k in keys]
    shapes = {np.shape(residuals[k]) for k in keys}
    if len(shapes) > 1:
        raise ValueError(f"residuals of one release differ in shape: {sorted(shapes)}")
    if any(len(shape) != 3 or min(shape) < 1 for shape in shapes):
        raise ValueError(f"expected (c, h, w) residuals with positive dims, got {shapes}")
    # one generator for the whole release; add_noise re-keys it per sample
    if gen is None:
        gen = noise_stream(seed, 0)
    store = {}
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
        bits = quantize(add_noise(np.empty_like(block), block, sigma, seed, chunk, gen))
        bits.setflags(write=False)
        store.update(zip(chunk, bits))
    return ResidualCache(MappingProxyType(store))
