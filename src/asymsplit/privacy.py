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


def noise_stream(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); order-independent draws."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in uint64, got {seed}")
    if not 0 <= stream < 2**64:
        raise ValueError(f"stream must fit in uint64, got {stream}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def perturb(ir_res, sigma: float, seed: int, stream: int = 0) -> np.ndarray:
    """Add i.i.d. Gaussian(0, sigma^2) noise from the (seed, stream) key."""
    x = as_tensor3(ir_res)
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be >= 0 and finite, got {sigma}")
    if sigma == 0:
        return x.copy()
    return x + noise_stream(seed, stream).normal(0.0, sigma, size=x.shape)


def quantize(ir_noisy) -> np.ndarray:
    """Keep only the sign: 0 where negative, 1 where >= 0 (uint8)."""
    x = np.asarray(ir_noisy, dtype=np.float64)
    return (x >= 0).astype(np.uint8)


@dataclass
class ResidualCache:
    """Immutable store of one-shot quantized residual bits, keyed by sample id."""

    seed: int
    params: PrivacyParams | None
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


def build_cache(residuals, params: PrivacyParams | None, seed: int, sigma: float | None = None) -> ResidualCache:
    """Perturb and quantize every residual exactly once.

    ``residuals`` maps sample id -> normalized residual tensor.  Each
    sample's noise comes from the (seed, sample id) stream, so the result
    is identical no matter how the mapping is ordered or parallelized.
    ``sigma`` overrides the calibrated scale (used for the no-noise
    ablation); otherwise params.sigma applies, and every residual must
    respect the sensitivity bound params.C.
    """
    if sigma is None:
        if params is None:
            raise ValueError("either params or an explicit sigma is required")
        sigma = params.sigma
    store = {}
    for sample_id in residuals:
        res = as_tensor3(residuals[sample_id])
        if params is not None:
            norm = float(np.linalg.norm(res))
            if norm > params.C + 1e-9:
                raise ValueError(
                    f"residual norm {norm} exceeds sensitivity bound C={params.C} "
                    f"for sample {sample_id}"
                )
        bits = quantize(perturb(res, sigma, seed, stream=int(sample_id)))
        bits.setflags(write=False)
        store[int(sample_id)] = bits
    return ResidualCache(seed=seed, params=params, _bits=MappingProxyType(store))
