"""Calibrating the residual noise: budget in, sigma out.

The cache releases each clipped residual once, perturbed with Gaussian
noise.  Subsampling (each record lands in a batch with probability p)
amplifies the guarantee, so the per-mechanism budget (eps', delta') that
sigma is scaled to is laxer than the advertised (eps, delta).
"""

import dataclasses
import json

import numpy as np

from asymsplit.privacy import amplify, calibrate, perturb, quantize

DELTA = 1e-6

# --- sigma across the budget grid ----------------------------------------
print("sigma needed for (eps, delta=1e-6) at clipping C=1:")
print(f"{'eps':>6} {'p=1.0':>10} {'p=0.1':>10} {'p=0.01':>10}")
for eps in (0.1, 0.5, 1.0, 1.4, 9.0, 17.0):
    row = [calibrate(eps, DELTA, p, 1.0).sigma for p in (1.0, 0.1, 0.01)]
    print(f"{eps:>6} " + " ".join(f"{s:>10.3f}" for s in row))

print("\nsubsampling helps most at small eps: with p=0.01 the mechanism")
print("only needs to defend the rare batches a record appears in.")

# --- the accountant is self-inverse --------------------------------------
params = calibrate(1.0, DELTA, 0.1, 1.0)
back = amplify(params.eps_prime, params.delta_prime, params.p)
print("\ncalibrate(eps=1, p=0.1) then amplify back:")
print(json.dumps(dataclasses.asdict(params)))
print(f"amplified: eps={back[0]:.15f} delta={back[1]:.2e}")

# --- what the noise does to the released bits -----------------------------
# A residual entry is shipped as sign(x + noise) >= 0.  Clipping to the
# C=1 ball spreads that budget over all c*h*w entries, so each one is
# tiny -- and the released bits sit much closer to a coin flip than the
# raw sigma values above might suggest.
rng = np.random.default_rng(7)
res = rng.normal(size=(8, 16, 16))
res /= max(1.0, np.linalg.norm(res))  # inside the C=1 ball
clean = quantize(res)
scale = float(np.sqrt(np.mean(res**2)))
print(f"\nper-entry residual amplitude after clipping: {scale:.4f}")

print("bit flip rate vs sigma (one 8x16x16 residual, C=1):")
for sigma in (0.0, 0.01, 0.02, 0.05, 0.2, 1.0, 5.0):
    noisy = quantize(perturb(res, sigma, seed=0, stream=0))
    flips = float(np.mean(noisy != clean))
    print(f"  sigma={sigma:>5}  flips={flips:.3f}")

print("\neven sigma below the calibrated grid drives the flip rate toward")
print("0.5; the public branch learns from the faint bias that survives,")
print("which is why the cache can be released at all.")
