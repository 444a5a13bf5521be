"""Why the private branch is cheap: exact low-rank convolution.

If every lowered input patch lies in a q-dimensional subspace, a dense
n-channel conv factorizes exactly into a q-channel projection followed
by a 1x1 mix.  This script builds such an input, checks exactness, and
then prints the multiply-accumulate budget of the shipped architecture.
"""

import numpy as np

from asymsplit.decompose import DecompositionConfig
from asymsplit.model import count_macs, default_spec, factorize_reference
from asymsplit.numerics import conv2d_forward_batch


def conv2d_forward(x, w, stride=1, padding=0):
    """One (c, h, w) tensor through the batched convolution."""
    return conv2d_forward_batch(x[None], w, stride, padding)[0]


def lowrank_forward(w1, w2, x, stride=1, padding=0):
    """The factorized conv: k x k projection to q channels, then a 1x1 mix."""
    return conv2d_forward(conv2d_forward(x, w1, stride, padding), w2)


rng = np.random.default_rng(11)

c, n, k, q = 4, 6, 3, 2
patches = 4

# input whose k-stride patches all live in a q-dim subspace
basis = np.linalg.qr(rng.normal(size=(c * k * k, q)))[0]
coeffs = rng.normal(size=(patches**2, q))
x = np.zeros((c, patches * k, patches * k))
for idx, row in enumerate(coeffs @ basis.T):
    i, j = divmod(idx, patches)
    x[:, i * k : (i + 1) * k, j * k : (j + 1) * k] = row.reshape(c, k, k)

w = rng.normal(size=(n, c, k, k))
w1, w2 = factorize_reference(w, basis)

y_dense = conv2d_forward(x, w, stride=k, padding=0)
y_lowrank = lowrank_forward(w1, w2, x, stride=k, padding=0)
gap = np.linalg.norm(y_dense - y_lowrank) / np.linalg.norm(y_dense)

print(f"dense kernel:      {w.shape}  ({w.size} weights)")
print(f"factorized:        w1 {w1.shape} + w2 {w2.shape}  ({w1.size + w2.size} weights)")
print(f"relative gap:      {gap:.2e}  (exact up to floating point)")

dense_macs = n * c * k * k
lr_macs = q * c * k * k + n * q
print(f"per-position MACs: dense {dense_macs} vs factorized {lr_macs}")

# off the subspace the factorization is only an approximation
x_off = rng.normal(size=x.shape)
y_off = conv2d_forward(x_off, w, stride=k, padding=0)
y_off_lr = lowrank_forward(w1, w2, x_off, stride=k, padding=0)
off_gap = np.linalg.norm(y_off - y_off_lr) / np.linalg.norm(y_off)
print(f"gap on a random (inadmissible) input: {off_gap:.3f}")

# --- compute split of the shipped architecture ----------------------------
print("\nMAC budget for the shipped spec on 16x16 images:")
macs = count_macs(default_spec(r=4), (16, 16), DecompositionConfig(r=4, t=8, t_prime=2))
for key in ("backbone", "main", "res", "private", "public"):
    print(f"  {key:>8}: {macs[key]:>10,}")
print(f"  private/public ratio: {macs['ratio']:.3f}")
print("the private device does ~7% of the work; the heavy residual branch")
print("runs on the public side against bit tensors.")
